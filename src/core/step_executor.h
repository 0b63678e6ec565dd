// Shared engine-level execution of one training step. FlexMoE and every
// baseline system express a step as a list of LayerWork items (routing +
// placement + optional extras) and delegate the simulated execution here,
// so all systems are timed by the identical machinery:
//
//   forward:  per layer — [shadow broadcasts] -> dispatch A2A -> expert
//             compute (1/3 of fwd+bwd FLOPs) -> combine A2A
//   middle:   non-MoE compute (attention, dense FFNs, gate, optimizer)
//   backward: per layer, reverse order — grad dispatch A2A -> expert
//             compute (2/3) -> grad combine A2A
//   sync:     per replicated expert, AllReduce in ascending logical-id
//             order (deadlock-free posting), NCCL groups via LRU cache;
//             then the data-parallel AllReduce of non-MoE gradients.

#ifndef FLEXMOE_CORE_STEP_EXECUTOR_H_
#define FLEXMOE_CORE_STEP_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "collective/engine_ops.h"
#include "collective/nccl_group.h"
#include "core/router.h"
#include "elastic/cluster_health.h"
#include "moe/model_config.h"
#include "obs/observability.h"
#include "placement/placement.h"

namespace flexmoe {

/// \brief One shadow-parameter broadcast (FasterMoE baseline).
struct ShadowBroadcast {
  GpuId root = 0;
  double bytes = 0.0;
};

/// \brief Forward-pass pipelining configuration (DESIGN.md Section 11).
///
/// With chunks > 1, each MoE layer's routed tokens split into `chunks`
/// per-cell pieces (cell v contributes v*(k+1)/chunks - v*k/chunks tokens
/// to chunk k — integer-exact, sums to v, last chunk is the ceil) and the
/// per-chunk dispatch A2A, expert compute, and combine A2A overlap through
/// the per-GPU stream reservations: chunk k+1's dispatch occupies the NIC
/// while chunk k computes, and combines drain behind compute. Both MoE
/// legs pipeline: the backward grad dispatch/compute/grad combine chunk
/// the same way (DESIGN.md Section 12). chunks == 1 is the serial path,
/// byte-identical to the pre-pipelining executor. chunks == 0 is auto-K:
/// the depth is planned per layer and arrives via LayerWork::chunks;
/// layers with no planned depth yet run serial.
struct PipelineOptions {
  int chunks = 1;

  Status Validate() const;
};

/// \brief Everything needed to execute one MoE layer.
struct LayerWork {
  const RoutedAssignment* routed = nullptr;
  /// Placement for replica synchronization; nullptr => no replica sync
  /// (e.g. plain expert parallelism).
  const Placement* placement = nullptr;
  /// Extra synchronization groups beyond the placement-derived ones
  /// (e.g. FasterMoE's global shadow-gradient AllReduce).
  std::vector<std::vector<GpuId>> extra_sync_groups;
  std::vector<ShadowBroadcast> broadcasts;
  /// Per-layer pipeline chunk depth override (auto-K planning). 0 defers
  /// to PipelineOptions::chunks; > 0 pins this layer's depth.
  int chunks = 0;
};

/// \brief Timing of one executed step.
struct StepTiming {
  double start = 0.0;
  double end = 0.0;
  double a2a_seconds = 0.0;
  double compute_seconds = 0.0;
  /// Expert-replica synchronization on the critical path: only the tail
  /// that outlasts the backward pass (syncs overlap with backward).
  double sync_seconds = 0.0;
  /// Total expert-sync activity regardless of overlap (launch-to-finish
  /// summed over collectives); measures the sync work replication costs
  /// even when it hides behind backward compute.
  double sync_busy_seconds = 0.0;
  /// Data-parallel AllReduce of non-MoE gradients (every system pays it).
  double dp_sync_seconds = 0.0;
  double non_moe_seconds = 0.0;
  /// Expert-compute busy seconds per GPU this step (efficiency metrics).
  std::vector<double> per_gpu_expert_compute;

  double StepSeconds() const { return end - start; }
};

/// \brief Executes steps on the discrete-event cluster.
class StepExecutor {
 public:
  StepExecutor(ClusterState* cluster, const HardwareProfile* profile,
               const ModelConfig& model);

  /// Executes one full step; `group_cache` may be nullptr (no group costs).
  StepTiming ExecuteStep(const std::vector<LayerWork>& layers,
                         NcclGroupCache* group_cache);

  /// Executes a forward-only pass (the serving path, DESIGN.md Section 8):
  /// per layer — [shadow broadcasts] -> dispatch A2A -> expert compute at
  /// forward FLOPs -> combine A2A — then the non-MoE forward compute. No
  /// backward, no expert/data-parallel gradient sync, no optimizer; the
  /// timing therefore measures the latency of answering one microbatch.
  /// `layers` may contain more entries than the model has MoE layers
  /// (recirculation passes append extra LayerWork); the non-MoE forward
  /// cost is charged once regardless.
  StepTiming ExecuteForward(const std::vector<LayerWork>& layers);

  /// The earliest time all training-critical streams are free — the start
  /// of the next step.
  double Frontier() const;

  /// Installs the dynamic-membership view (nullable; default: a static,
  /// healthy cluster). Dead devices take part in no phase of the step;
  /// degraded devices run compute and move bytes at their multipliers.
  void set_cluster_health(const ClusterHealth* health) { health_ = health; }
  const ClusterHealth* cluster_health() const { return health_; }

  /// Installs the pipelining configuration (chunks must be >= 0;
  /// chunks == 1 keeps the serial, byte-identical path; chunks == 0 is
  /// auto-K — per-layer depths come from LayerWork::chunks).
  void set_pipeline(const PipelineOptions& pipeline) { pipeline_ = pipeline; }
  const PipelineOptions& pipeline() const { return pipeline_; }

  /// Installs the per-run observability handle (nullable). With tracing
  /// enabled, every step phase emits per-GPU spans — dispatch/combine A2A,
  /// expert compute (forward, backward, recirculation), expert sync, DP
  /// sync — stamped with the engine's sim times.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

 private:
  obs::Tracer* trace() const { return obs::TracerOf(obs_); }
  bool Alive(GpuId g) const { return health_ == nullptr || health_->alive(g); }
  double ComputeScale(GpuId g) const {
    return health_ == nullptr ? 1.0 : health_->compute_multiplier(g);
  }
  /// Per-GPU NIC-port stretch factors from the health view, or nullptr on
  /// a static healthy cluster. Passed to every collective so a straggler
  /// stretches exactly its own ports, exactly once — never the healthy
  /// peers' (the engine-level port_scale contract, engine_ops.h).
  const std::vector<double>* BandwidthScales() const;
  /// All currently alive GPUs, ascending.
  std::vector<GpuId> AliveGpus() const;
  /// Refills alive_mask_ from the health view. Membership is fixed for the
  /// duration of a step, so ExecuteStep/ExecuteForward call it once.
  void RefreshAliveMask();
  /// Runs one routed All-to-All of `work` (chunk k of K; K == 1 is the
  /// whole layer) from `earliest`, read straight from
  /// routed.dispatch_to: the dispatch, or with `combine` the return leg.
  /// Dead endpoints move nothing. Straggler slowdown is not folded into
  /// the payload: the engine's per-port scale (BandwidthScales) stretches
  /// the slow endpoint's port directly, so the stretch applies exactly
  /// once. Counted as exec.a2a_collectives in the metrics registry.
  CollectiveResult AllToAll(const LayerWork& work, bool combine, int k, int K,
                            double earliest,
                            const std::vector<double>* scales);

  /// Runs expert compute for chunk k of K of one layer (K == 1: the whole
  /// layer, serial) with the given FLOPs/token; returns the phase finish
  /// time. per_gpu_expert_compute gains the wall interval of each serial
  /// reservation and the busy duration of each chunk's. `span_name` labels
  /// the per-GPU trace spans (must be a string literal); `layer` is their
  /// arg.
  double RunExpertCompute(const RoutedAssignment& routed,
                          double flops_per_token, int k, int K,
                          const std::vector<double>& per_gpu_earliest,
                          StepTiming* timing, const char* span_name,
                          int layer);

  /// The chunk depth one layer actually runs at: LayerWork::chunks when
  /// planned (> 0), else PipelineOptions::chunks, else serial.
  int EffectiveChunks(const LayerWork& work) const {
    if (work.chunks > 0) return work.chunks;
    return pipeline_.chunks > 1 ? pipeline_.chunks : 1;
  }

  /// The forward pass over `layers` — [shadow broadcasts] -> dispatch A2A
  /// -> expert compute at forward FLOPs -> combine A2A, per layer —
  /// shared verbatim by ExecuteStep and ExecuteForward so the two paths
  /// can never diverge in dispatch/broadcast semantics. Returns the new
  /// frontier. Each layer dispatches to the chunked variant when its
  /// effective depth is > 1; the serial body is the pre-pipelining code.
  double RunForwardLayers(const std::vector<LayerWork>& layers,
                          const std::vector<GpuId>& alive, double frontier,
                          StepTiming* timing);

  /// The chunked-overlap forward leg for one layer (PipelineOptions,
  /// DESIGN.md Section 11): all K dispatch chunks are posted from the
  /// layer's start (the NIC ports serialize them), each chunk's expert
  /// compute starts at that chunk's per-GPU dispatch finish, and each
  /// chunk's combine launches at that chunk's global compute finish — so
  /// chunk k+1's dispatch overlaps chunk k's compute and combines drain
  /// behind compute on the port streams. Broadcasts have already run.
  double RunForwardLayerChunked(const LayerWork& work, int chunks, int layer,
                                bool recirc, const std::vector<double>* scales,
                                double frontier, StepTiming* timing);

  /// The chunked backward MoE leg for one layer (DESIGN.md Section 12):
  /// same overlap shape as the forward leg at backward FLOPs — grad
  /// dispatch chunks posted at the leg start, per-chunk backward compute,
  /// per-chunk grad combine. Expert syncs are launched by the caller at
  /// the returned all-chunk compute finish (`*compute_all`): an expert's
  /// gradient is final only once every chunk's contribution is reduced.
  double RunBackwardLayerChunked(const LayerWork& work, int chunks, int layer,
                                 const std::vector<double>* scales,
                                 double frontier, StepTiming* timing,
                                 double* compute_all);

  /// Builds and launches one layer's expert-replica syncs (placement
  /// groups plus extra_sync_groups, ascending logical id) at `earliest`;
  /// returns max(sync_finish, each collective's finish) and accumulates
  /// sync_busy_seconds.
  double RunLayerSyncs(const LayerWork& work, double earliest,
                       NcclGroupCache* group_cache,
                       const std::vector<double>* scales, StepTiming* timing,
                       double sync_finish);

  ClusterState* cluster_;
  const HardwareProfile* profile_;
  ModelConfig model_;
  const ClusterHealth* health_ = nullptr;
  obs::Observability* obs_ = nullptr;
  PipelineOptions pipeline_;
  /// Per-call scratch owned by the executor (see DESIGN.md "Performance
  /// architecture"); mutable because BandwidthScales is logically const.
  mutable std::vector<double> port_scale_scratch_;
  /// 1 per alive GPU (RefreshAliveMask); every GPU is alive without a
  /// health view.
  std::vector<uint8_t> alive_mask_;
  /// Per-GPU running state of the expert-compute walk.
  std::vector<double> gpu_finish_scratch_;
  std::vector<double> gpu_flops_scratch_;
  std::vector<int64_t> gpu_tokens_scratch_;
  /// Per-chunk dispatch results for the layer in flight (K is small).
  std::vector<CollectiveResult> chunk_dispatch_scratch_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_STEP_EXECUTOR_H_
