// Shared declarations of the repo benchmark binary (see RATIONALE.md).
//
// The benchmark runs the simulator from outside, through the same public
// calls RunExperiment makes (Topology::Create, Profiler::Calibrate,
// BuildTraceSource, BuildSystem, TraceSource::NextStep,
// MoESystem::RunStep / ServeMicrobatch, ServeExecutor::Run), times each call
// with a steady clock, and audits every simulated step or microbatch.

#ifndef FLEXMOE_PERFBENCH_PERFBENCH_H_
#define FLEXMOE_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/serve_executor.h"
#include "harness/experiment.h"

namespace perfbench {

using flexmoe::Assignment;
using flexmoe::ExperimentOptions;
using flexmoe::Status;

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Workloads --------------------------------------------------------------

/// One workload: the systems it compares, each as the ExperimentOptions
/// RunExperiment would take. All systems share seed and scenario, so they
/// consume the identical trace (and, serving, the identical arrival stream).
struct Workload {
  std::string name;
  bool serving = false;
  std::vector<ExperimentOptions> systems;
};

/// Cell lengths: "full" is the measured cell, "tiny" the self-test pass.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& length);

// ---- Audit ------------------------------------------------------------------

/// Per-operation audit. Each check returns "" when the law holds, else a
/// one-line description of the violation. An operation (one simulated
/// step or microbatch) fails if any check on it fails.

/// Routed plus dropped tokens must equal the assigned tokens.
std::string CheckTokenConservation(const std::string& where,
                                   int64_t assigned, int64_t routed,
                                   int64_t dropped);

/// arrived == completed + shed + queued, in requests and in tokens.
std::string CheckServingLedger(const flexmoe::ServingReport& r);

/// The forward floor may not exceed the measured microbatch time.
std::string CheckForwardFloor(int64_t batch, double floor_seconds,
                              double measured_seconds);

/// Every system of one workload must consume the same trace_hash stream.
std::string CheckTraceHashes(const std::vector<uint64_t>& hashes);

// ---- Layer probe (traced runs) ----------------------------------------------

/// Replays captured FlexMoE step inputs through the layers' public calls
/// (FlexibleRouter::Route, PolicyMaker::MakeSchedulingPlan / PlanMigrations,
/// LayerCostState::Reset / Apply, StepExecutor::ExecuteStep /
/// ExecuteForward) on private objects, so the simulated run itself is never
/// perturbed. Accumulates per-call host timings.
class LayerProbe {
 public:
  LayerProbe(const ExperimentOptions& options, const flexmoe::Topology* topo,
             const flexmoe::HardwareProfile* profile,
             const flexmoe::CostModel* cost_model, bool serving);
  ~LayerProbe();

  /// Replays one step: `assignments` per layer, `live` the placements the
  /// step routed on, `target` the planner's placements after the step.
  void Replay(const std::vector<Assignment>& assignments,
              const std::vector<const flexmoe::Placement*>& live,
              const std::vector<const flexmoe::Placement*>& target);

  struct Totals {
    int64_t route_calls = 0;
    double route_s = 0.0;
    int64_t plan_calls = 0;
    double plan_s = 0.0;
    int64_t plan_candidates = 0;
    int64_t migration_calls = 0;
    double migration_s = 0.0;
    int64_t reset_calls = 0;
    double reset_s = 0.0;
    int64_t apply_calls = 0;  // successful LayerCostState::Apply calls
    double apply_s = 0.0;
    int64_t exec_calls = 0;
    double exec_s = 0.0;
  };
  const Totals& totals() const { return totals_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  Totals totals_;
};

}  // namespace perfbench

#endif  // FLEXMOE_PERFBENCH_PERFBENCH_H_
