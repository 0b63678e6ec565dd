// The static-layout baselines of the paper's evaluation (Section 5, Figs. 5
// and 7a): one fixed home GPU per expert (GShard placement), no placement
// adjustment, checkpoint restart + wholesale failover on membership change.
// The three systems differ only in what each does to a layer's tokens:
//
//  * DeepSpeed (kCapacityDrop): a uniform expert capacity (capacity factor
//    1.0 in the paper's runs); everything beyond it is dropped. Smallest
//    iteration time, but the dropped tokens cost statistical efficiency
//    (Table 2 / Figure 5).
//  * SWIPE (kStrictRebalance; BaGuaLu, PPoPP'22): overflow tokens are
//    re-assigned to under-loaded experts, so every expert ends up with
//    (almost) exactly the average load — near-perfect expert efficiency,
//    but the re-assigned tokens are processed by experts the gate did not
//    choose, which costs token efficiency.
//  * FasterMoE (kShadow; He et al., PPoPP'22): a performance model picks
//    the experts hot enough that replicating them on EVERY GPU pays off;
//    shadowed experts process their tokens locally at the source GPU at
//    the price of a parameter broadcast beforehand and a global gradient
//    AllReduce afterwards. No tokens are dropped, but the all-or-one
//    granularity lands it between DeepSpeed and FlexMoE (Figures 5, 7).
//
// Serving never degrades a response: a non-shadow policy caps every
// expert (at the capacity factor, or at the uniform average for SWIPE)
// and recirculates the overflow to its true experts in a second forward
// pass, turning the quality loss into a latency cost. SWIPE serving is
// therefore DeepSpeed serving at capacity factor 1.0 (DESIGN.md §8.3).
// Shadowing pays the broadcast but, with no backward pass, no AllReduce.

#ifndef FLEXMOE_BASELINES_STATIC_SYSTEM_H_
#define FLEXMOE_BASELINES_STATIC_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "core/step_executor.h"
#include "core/system.h"
#include "elastic/elastic_controller.h"

namespace flexmoe {

/// \brief What a static system does to each layer's tokens.
enum class TokenPolicy {
  kCapacityDrop,     ///< DeepSpeed: drop beyond the expert capacity
  kStrictRebalance,  ///< SWIPE: re-assign overflow to under-loaded experts
  kShadow,           ///< FasterMoE: replicate hot experts on every GPU
};

/// \brief Static-system configuration.
struct StaticSystemOptions {
  ModelConfig model;
  int num_gpus = 64;
  TokenPolicy policy = TokenPolicy::kCapacityDrop;
  /// kCapacityDrop only: per-expert capacity factor; <= 0 disables
  /// capacity (no dropping, no serving recirculation).
  double capacity_factor = 1.0;
  /// Fault handling (static: checkpoint restart + failover, no
  /// rebalancing).
  ElasticControllerOptions elastic;
  /// Forward-pass chunked overlap (core/step_executor.h); shared by all
  /// systems so pipelining comparisons hold the executor semantics fixed.
  PipelineOptions pipeline;

  Status Validate() const;
};

/// \brief DeepSpeed, SWIPE or FasterMoE on a fixed expert-parallel layout.
class StaticSystem : public MoESystem {
 public:
  /// `topo` and `profile` must outlive the system.
  static Result<std::unique_ptr<StaticSystem>> Create(
      const StaticSystemOptions& options, const Topology* topo,
      const HardwareProfile* profile);

  /// "DeepSpeed", "SWIPE" or "FasterMoE".
  std::string name() const override;
  StepMetrics RunStep(
      const std::vector<Assignment>& layer_assignments) override;
  StepMetrics ServeMicrobatch(
      const std::vector<Assignment>& layer_assignments) override;
  const TrainingStats& stats() const override { return stats_; }
  const ClusterState& cluster() const override { return cluster_; }
  Status InstallFaultPlan(const FaultPlan& plan) override;
  const ClusterHealth* cluster_health() const override {
    return &elastic_.health();
  }
  void SetObservability(obs::Observability* obs) override;

  /// kShadow: experts shadowed in the most recent step, per layer (empty
  /// lists under the other policies).
  const std::vector<std::vector<int>>& last_shadows() const {
    return last_shadows_;
  }

 private:
  StaticSystem(const StaticSystemOptions& options, const Topology* topo,
               const HardwareProfile* profile, Placement placement);

  /// FasterMoE's performance-model policy: shadow expert `e` iff the
  /// compute time saved by processing it locally exceeds the shadow price
  /// (at most kMaxShadowsPerLayer, best gain first).
  std::vector<int> SelectShadows(const Assignment& assignment,
                                 bool serving) const;

  StepMetrics RunStepImpl(const std::vector<Assignment>& layer_assignments,
                          bool serving);

  StaticSystemOptions options_;
  const HardwareProfile* profile_;
  ClusterState cluster_;
  ElasticController elastic_;
  Placement placement_;
  StepExecutor step_executor_;
  TrainingStats stats_;
  /// kShadow: the global shadow-gradient sync group, and the fixed price
  /// of shadowing one expert for one step (parameter broadcast, plus the
  /// all-GPU gradient AllReduce in training).
  std::vector<GpuId> all_gpus_;
  double train_shadow_price_ = 0.0;
  double serve_shadow_price_ = 0.0;
  std::vector<std::vector<int>> last_shadows_;
  int64_t step_ = 0;
  obs::Observability* obs_ = nullptr;
};

/// \brief SWIPE's rebalancing of one assignment to uniform per-expert load:
/// the balanced assignment and the number of re-assigned token-assignments.
struct SwipeRebalance {
  Assignment balanced;
  int64_t reassigned = 0;
};
SwipeRebalance RebalanceStrict(const Assignment& assignment);

/// \brief Builds the canonical one-home-GPU-per-expert placement (exactly
/// one vExpert per expert, no replicas).
Result<Placement> FixedExpertParallelPlacement(int num_experts, int num_gpus);

}  // namespace flexmoe

#endif  // FLEXMOE_BASELINES_STATIC_SYSTEM_H_
