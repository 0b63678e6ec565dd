// Step accounting shared by every MoESystem (FlexMoE and the static
// baselines): a step's StepMetrics from its executed timing, the fault
// fields, the fault boundary's trace instants, and the per-step registry
// counters. One path, so a metric means the same thing for all four
// systems.

#ifndef FLEXMOE_CORE_STEP_ACCOUNTING_H_
#define FLEXMOE_CORE_STEP_ACCOUNTING_H_

#include <vector>

#include "core/metrics.h"
#include "core/step_executor.h"
#include "elastic/elastic_controller.h"
#include "obs/observability.h"
#include "placement/placement.h"

namespace flexmoe {

/// \brief Fills the timing-derived fields of `metrics` from the executed
/// step `timing`, with `blocked_seconds` of boundary blocking (fault
/// recovery, blocking placement adjustments) on the step's critical path.
/// Reads `metrics->tokens_total` and `metrics->tokens_dropped`, so fill
/// those first; `tokens_reassigned` counts token-assignments processed by
/// an expert the gate did not choose (SWIPE).
///
///  * step_seconds = timing.StepSeconds() + blocked_seconds;
///  * non_moe_seconds = non-MoE compute + the data-parallel AllReduce;
///  * token_efficiency = (total - dropped - reassigned) / total;
///  * expert_efficiency = mean / max per-GPU expert compute;
///  * gpu_utilization = (mean per-GPU expert compute + non-MoE compute) /
///    step_seconds — the share of the step the average GPU spends
///    computing (Fig. 2). Communication (All-to-All, expert sync, the
///    data-parallel AllReduce) and blocking are not useful work, so they
///    count only in the denominator.
///
/// Means are over `num_alive_gpus` (0 = all): a rebalanced degraded
/// cluster can still read as 100% efficient, because departed devices are
/// lost capacity, not inefficiency.
void MetricsFromTiming(const StepTiming& timing, double blocked_seconds,
                       int64_t tokens_reassigned, int num_alive_gpus,
                       StepMetrics* metrics);

/// \brief Fills the fault fields of `metrics` from this boundary's report.
/// Degraded mode is a state, not an event: it is recomputed from the
/// current `placements` every step, not only on boundaries where events
/// fired.
void FillFaultMetrics(const ElasticController& elastic,
                      const ElasticController::StepReport& report,
                      const std::vector<Placement*>& placements,
                      StepMetrics* metrics);

/// \brief With tracing enabled, marks each fault event of `report` on the
/// control lane at `boundary`, and the `blocked_seconds` every stream is
/// held from `boundary` (if any) as a recovery span.
void TraceFaultBoundary(obs::Observability* obs,
                        const ElasticController::StepReport& report,
                        double boundary, double blocked_seconds);

/// \brief Records one step's registry counters (FlexMoE adds its policy
/// counters on top).
void RecordStepObservability(obs::Observability* obs, bool serving,
                             const StepMetrics& metrics);

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_STEP_ACCOUNTING_H_
