#include "core/step_accounting.h"

#include "elastic/recovery.h"

namespace flexmoe {

void MetricsFromTiming(const StepTiming& timing, double blocked_seconds,
                       int64_t tokens_reassigned, int num_alive_gpus,
                       StepMetrics* metrics) {
  metrics->step_seconds = timing.StepSeconds() + blocked_seconds;
  metrics->a2a_seconds = timing.a2a_seconds;
  metrics->compute_seconds = timing.compute_seconds;
  metrics->sync_seconds = timing.sync_seconds;
  metrics->non_moe_seconds = timing.non_moe_seconds + timing.dp_sync_seconds;
  const int64_t total = metrics->tokens_total;
  metrics->token_efficiency =
      total > 0 ? static_cast<double>(total - metrics->tokens_dropped -
                                      tokens_reassigned) /
                      static_cast<double>(total)
                : 1.0;

  double max_c = 0.0, mean_c = 0.0;
  for (double v : timing.per_gpu_expert_compute) {
    max_c = v > max_c ? v : max_c;
    mean_c += v;
  }
  const int denom =
      num_alive_gpus > 0
          ? num_alive_gpus
          : static_cast<int>(timing.per_gpu_expert_compute.size());
  if (denom > 0) mean_c /= static_cast<double>(denom);
  metrics->expert_efficiency = max_c > 0.0 ? mean_c / max_c : 1.0;
  metrics->gpu_utilization =
      metrics->step_seconds > 0.0
          ? (mean_c + timing.non_moe_seconds) / metrics->step_seconds
          : 0.0;
}

void FillFaultMetrics(const ElasticController& elastic,
                      const ElasticController::StepReport& report,
                      const std::vector<Placement*>& placements,
                      StepMetrics* metrics) {
  metrics->recovery_seconds = report.recovery_seconds;
  metrics->faults_applied = static_cast<int>(report.events.size());
  metrics->degraded = false;
  if (!elastic.active() || elastic.health().AllHealthy()) return;
  for (const Placement* p : placements) {
    if (ExpertsWithoutLiveReplica(*p, elastic.health()) > 0) {
      metrics->degraded = true;
      return;
    }
  }
}

void TraceFaultBoundary(obs::Observability* obs,
                        const ElasticController::StepReport& report,
                        double boundary, double blocked_seconds) {
  obs::Tracer* tr = obs::TracerOf(obs);
  if (tr == nullptr) return;
  for (const FaultEvent& e : report.events) {
    tr->Instant("fault_event", "recovery", obs::kControlLane, boundary, "gpu",
                static_cast<double>(e.gpu));
  }
  if (blocked_seconds > 0.0) {
    tr->Span("recovery_block", "recovery", obs::kControlLane, boundary,
             boundary + blocked_seconds, "faults",
             static_cast<double>(report.events.size()));
  }
}

void RecordStepObservability(obs::Observability* obs, bool serving,
                             const StepMetrics& metrics) {
  obs::MetricsRegistry* m = obs::MetricsOf(obs);
  if (m == nullptr) return;
  m->Add(serving ? "serve.microbatches" : "train.steps");
  m->Add("tokens.total", metrics.tokens_total);
  if (metrics.tokens_dropped > 0) {
    m->Add("tokens.dropped", metrics.tokens_dropped);
  }
  if (metrics.tokens_recirculated > 0) {
    m->Add("tokens.recirculated", metrics.tokens_recirculated);
  }
  if (metrics.faults_applied > 0) {
    m->Add("faults.applied", metrics.faults_applied);
  }
  m->Observe("step.seconds", metrics.step_seconds);
  m->Observe("step.balance_ratio", metrics.balance_ratio);
}

}  // namespace flexmoe
