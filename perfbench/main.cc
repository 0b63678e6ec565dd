// flexmoe_perfbench: one repetition of a benchmark workload.
//
//   flexmoe_perfbench rep --workload NAME --seed N [--mode untraced|traced]
//                         [--length full|tiny] [--fidelity]
//   flexmoe_perfbench selftest
//   flexmoe_perfbench env
//
// A repetition sets up every system of the workload exactly as
// RunExperiment does, runs the cell, audits every step or microbatch, and
// prints one JSON object: set-up and host timings, per-operation host
// times, the simulated report of each system, audit failures, and (traced
// mode) the layer probe's timings and the program's registry counts.
// perfbench/run.py repeats it in fresh processes and aggregates.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "collective/profiler.h"
#include "core/cost_model.h"
#include "core/flexmoe.h"
#include "harness/golden.h"
#include "perfbench.h"
#include "quality/convergence.h"
#include "quality/targets.h"
#include "topology/topology.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using flexmoe::ExperimentReport;
using flexmoe::MoESystem;
using flexmoe::StepMetrics;
using flexmoe::StrFormat;

// ---- Minimal JSON writer ----------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += JsonString(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, StrFormat("%lld", static_cast<long long>(v)));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(values[i]);
  }
  return out + "]";
}

// ---- Report aggregation (mirrors RunExperiment) ----------------------------

ExperimentReport BuildReport(const ExperimentOptions& options,
                             const MoESystem& system, uint64_t trace_hash,
                             const flexmoe::ServingReport* serve) {
  ExperimentReport report;
  report.system = system.name();
  report.model = options.model.name;
  report.workload = options.workload.scenario.name;
  report.trace_hash = trace_hash;
  report.num_gpus = options.num_gpus;
  report.stats = system.stats();
  report.tokens_per_step = static_cast<double>(options.model.tokens_per_gpu) *
                           options.num_gpus;
  const int warmup = options.warmup_steps;
  report.mean_step_seconds = report.stats.MeanStepSeconds(warmup);
  report.throughput_tokens_per_sec =
      report.stats.Throughput(report.tokens_per_step, warmup);
  report.mean_token_efficiency = report.stats.MeanTokenEfficiency(warmup);
  report.mean_effective_token_rate = flexmoe::EffectiveTokenRate(
      report.system, report.mean_token_efficiency);
  report.mean_expert_efficiency = report.stats.MeanExpertEfficiency(warmup);
  report.mean_gpu_utilization = report.stats.MeanGpuUtilization(warmup);
  report.mean_balance_ratio = report.stats.MeanBalanceRatio(warmup);
  report.faults_applied = report.stats.TotalFaultsApplied();
  report.tokens_dropped_total = report.stats.TotalTokensDropped();
  report.recovery_seconds_total = report.stats.TotalRecoverySeconds();
  report.degraded_steps = report.stats.DegradedSteps();
  if (serve != nullptr) {
    report.serving = true;
    report.serve = *serve;
    report.tokens_per_step = serve->mean_batch_tokens;
    report.throughput_tokens_per_sec = serve->served_tokens_per_sec;
    return report;
  }
  const flexmoe::Result<flexmoe::ConvergenceModel> conv =
      flexmoe::PrimaryConvergence(options.model);
  if (conv.ok()) {
    report.target_metric_name = conv->calibration().metric_name;
    report.target_metric = conv->DefaultTarget();
    const double u_target = conv->EffectiveTokensForMetric(
        report.target_metric, options.balance_coef);
    const double eff_tokens_per_step =
        report.tokens_per_step * report.mean_effective_token_rate;
    report.steps_to_target =
        std::isfinite(u_target) && eff_tokens_per_step > 0
            ? u_target / eff_tokens_per_step
            : std::numeric_limits<double>::infinity();
    report.hours_to_target =
        report.steps_to_target * report.mean_step_seconds / 3600.0;
    report.metric_at_budget = conv->MetricAt(
        conv->calibration().u_total_tokens * report.mean_effective_token_rate,
        options.balance_coef);
  }
  return report;
}

// Bit-exact rendering of every report field the benchmark reads (hex
// floats), for the fidelity and determinism checks.
std::string Fingerprint(const ExperimentReport& r) {
  std::string s = flexmoe::FormatDigest(flexmoe::DigestFromReport("x", r));
  s += StrFormat(
      " eff_rate=%a steps_to_target=%a metric_at_budget=%a hours=%a "
      "step=%a balance=%a",
      r.mean_effective_token_rate, r.steps_to_target, r.metric_at_budget,
      r.hours_to_target, r.mean_step_seconds, r.mean_balance_ratio);
  if (r.serving) {
    s += StrFormat(
        " p99=%a attain=%a goodput=%a batch_s=%a served=%a completed=%lld "
        "shed=%lld chunked=%lld",
        r.serve.p99_latency_seconds, r.serve.slo_attainment,
        r.serve.goodput_tokens_per_sec, r.serve.mean_batch_seconds,
        r.serve.served_tokens_per_sec,
        static_cast<long long>(r.serve.requests_completed),
        static_cast<long long>(r.serve.requests_shed),
        static_cast<long long>(r.serve.chunked_admissions));
  }
  return s;
}

// ---- Timing decorators (serving) -------------------------------------------

class TimedTraceSource : public flexmoe::TraceSource {
 public:
  explicit TimedTraceSource(flexmoe::TraceSource* inner) : inner_(inner) {}
  std::vector<Assignment> NextStep() override {
    const double t0 = NowSeconds();
    std::vector<Assignment> step = inner_->NextStep();
    seconds += NowSeconds() - t0;
    calls += 1;
    for (const Assignment& a : step) assignments += a.Total();
    return step;
  }
  int64_t StepsRemaining() const override { return inner_->StepsRemaining(); }

  double seconds = 0.0;
  int64_t calls = 0;
  int64_t assignments = 0;

 private:
  flexmoe::TraceSource* inner_;
};

/// Per-operation observer: audits an executed step or microbatch and, in
/// traced mode, replays it through the layer probe. Runs outside every
/// timed interval.
using OpObserver = std::function<void(const std::vector<Assignment>&,
                                      const StepMetrics&)>;

class TimedSystem : public MoESystem {
 public:
  TimedSystem(MoESystem* inner, OpObserver observer)
      : inner_(inner), observer_(std::move(observer)) {}
  std::string name() const override { return inner_->name(); }
  StepMetrics RunStep(const std::vector<Assignment>& a) override {
    return Timed(a, /*serving=*/false);
  }
  StepMetrics ServeMicrobatch(const std::vector<Assignment>& a) override {
    return Timed(a, /*serving=*/true);
  }
  const flexmoe::TrainingStats& stats() const override {
    return inner_->stats();
  }
  const flexmoe::ClusterState& cluster() const override {
    return inner_->cluster();
  }
  Status InstallFaultPlan(const flexmoe::FaultPlan& plan) override {
    return inner_->InstallFaultPlan(plan);
  }
  const flexmoe::ClusterHealth* cluster_health() const override {
    return inner_->cluster_health();
  }
  void SetObservability(flexmoe::obs::Observability* obs) override {
    inner_->SetObservability(obs);
  }

  /// Host seconds of each inner RunStep / ServeMicrobatch call.
  std::vector<double> op_seconds;
  double seconds = 0.0;
  /// Host seconds from `last_end` to the end of each call: RunSystem sets
  /// `last_end` before fetching a training step, so this is trace step plus
  /// step; in serving it runs on from the previous microbatch (or from
  /// ServeExecutor::Run's start), adding admission and floor probes.
  std::vector<double> op_host_seconds;
  double last_end = 0.0;
  /// Time spent in the observer while an enclosing timed call (the
  /// ServeExecutor::Run interval) was open; subtracted from that interval.
  double observer_seconds = 0.0;

 private:
  StepMetrics Timed(const std::vector<Assignment>& a, bool serving) {
    const double t0 = NowSeconds();
    StepMetrics m =
        serving ? inner_->ServeMicrobatch(a) : inner_->RunStep(a);
    const double t1 = NowSeconds();
    op_seconds.push_back(t1 - t0);
    op_host_seconds.push_back(t1 - last_end);
    seconds += t1 - t0;
    observer_(a, m);
    last_end = NowSeconds();
    observer_seconds += last_end - t1;
    return m;
  }

  MoESystem* inner_;
  OpObserver observer_;
};

// ---- One system of a workload ----------------------------------------------

struct SystemRun {
  std::string key;  // lower-case system id
  double calibrate_s = 0.0;     // topology + profiler calibration
  double trace_source_s = 0.0;  // BuildTraceSource (logit-sigma calibration)
  double build_system_s = 0.0;  // BuildSystem
  double gate_s = 0.0;
  int64_t gate_calls = 0;
  int64_t assignments = 0;      // gate output volume (token-assignments)
  double step_s = 0.0;
  std::vector<double> op_s;       // per operation: the system call alone
  std::vector<double> op_host_s;  // per operation: all timed host work
  double admission_s = 0.0;     // serving: Run minus its timed callees
  double floor_s = 0.0;
  int64_t floor_calls = 0;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  std::vector<std::string> failures;
  uint64_t trace_hash = 0;
  ExperimentReport report;
  std::string fingerprint;
  // Traced mode only.
  std::map<std::string, int64_t> counters;
  int64_t plans_accepted = 0;
  LayerProbe::Totals probe;
  bool probed = false;
  int num_layers = 0;
  int warmup = 0;
};

void NoteFailure(SystemRun* run, const std::string& what) {
  if (what.empty()) return;
  if (run->failures.size() < 8) run->failures.push_back(what);
}

/// Runs one system of the workload end to end.
flexmoe::Result<SystemRun> RunSystem(const ExperimentOptions& base,
                                     bool serving, bool traced) {
  ExperimentOptions options = base;
  options.observability.enabled = traced;
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  SystemRun run;
  run.key = flexmoe::ToLower(options.system);
  run.num_layers = options.model.num_moe_layers;
  run.warmup = options.warmup_steps;

  // --- Set-up, as RunExperiment performs it. ---
  double t0 = NowSeconds();
  FLEXMOE_ASSIGN_OR_RETURN(
      flexmoe::Topology topo_value,
      flexmoe::Topology::Create(flexmoe::AzureA100Options(options.num_gpus)));
  auto topo = std::make_unique<flexmoe::Topology>(std::move(topo_value));
  const flexmoe::GpuSpec spec;
  auto profile = std::make_unique<flexmoe::HardwareProfile>(topo.get(), spec);
  if (options.calibrate_profile) {
    flexmoe::Profiler profiler(topo.get(), spec, flexmoe::ProfilerOptions{});
    FLEXMOE_ASSIGN_OR_RETURN(
        *profile,
        profiler.Calibrate(options.model.expert_fwdbwd_flops_per_token()));
  }
  if (options.hierarchical_a2a) profile->set_hierarchical_a2a(true);
  double t1 = NowSeconds();
  run.calibrate_s = t1 - t0;
  FLEXMOE_ASSIGN_OR_RETURN(std::unique_ptr<flexmoe::TraceSource> source,
                           flexmoe::BuildTraceSource(options));
  double t2 = NowSeconds();
  run.trace_source_s = t2 - t1;
  FLEXMOE_ASSIGN_OR_RETURN(
      std::unique_ptr<MoESystem> system,
      flexmoe::BuildSystem(options, topo.get(), profile.get()));
  run.build_system_s = NowSeconds() - t2;
  flexmoe::obs::Observability observability(options.observability);

  auto* flex = dynamic_cast<flexmoe::FlexMoESystem*>(system.get());
  std::unique_ptr<LayerProbe> probe;
  if (traced && flex != nullptr) {
    probe = std::make_unique<LayerProbe>(options, topo.get(), profile.get(),
                                         &flex->cost_model(), serving);
  }
  // Replay about sixteen evenly spaced operations per run.
  const int probe_stride = std::max(1, options.measure_steps / 16);

  // Per-operation audit (and, traced, the layer probe's replay).
  int64_t op_index = 0;
  OpObserver observe = [&](const std::vector<Assignment>& step,
                           const StepMetrics& m) {
    const int64_t op = op_index++;
    run.ops += 1;
    int64_t assigned = 0;
    for (const Assignment& a : step) assigned += a.Total();
    bool failed = false;
    std::string why = CheckTokenConservation(
        StrFormat("op %lld", static_cast<long long>(op)), assigned,
        m.tokens_total - m.tokens_dropped, m.tokens_dropped);
    failed |= !why.empty();
    NoteFailure(&run, why);
    if (flex != nullptr) {
      // FlexMoE routes each layer on its live placement; after the step
      // the live placement is exactly the one it routed on.
      std::vector<const flexmoe::Placement*> live, target;
      for (int l = 0; l < static_cast<int>(step.size()); ++l) {
        live.push_back(&flex->live_placement(l));
        target.push_back(&flex->target_placement(l));
        const flexmoe::RoutedAssignment routed =
            flexmoe::FlexibleRouter::Route(step[static_cast<size_t>(l)],
                                           *live.back());
        why = CheckTokenConservation(
            StrFormat("op %lld layer %d", static_cast<long long>(op), l),
            step[static_cast<size_t>(l)].Total(), routed.Total(), 0);
        failed |= !why.empty();
        NoteFailure(&run, why);
      }
      if (probe != nullptr && op % probe_stride == 0) {
        probe->Replay(step, live, target);
      }
    }
    if (failed) run.failed_ops += 1;
  };

  TimedSystem timed(system.get(), observe);
  timed.SetObservability(&observability);

  if (serving) {
    flexmoe::RequestSourceOptions ro;
    ro.arrival_rate_rps = options.serving.arrival_rate_rps;
    ro.tokens_per_request = options.serving.tokens_per_request;
    ro.slo_seconds = options.serving.slo_seconds;
    ro.step_seconds = options.serving.batch_window_seconds;
    ro.scenario = options.workload.scenario;
    ro.size_mix = options.serving.size_mix;
    constexpr uint64_t kServingSeedSalt = 0x5e12f1c3a7b98d41ULL;
    ro.seed = options.seed ^ kServingSeedSalt;
    FLEXMOE_ASSIGN_OR_RETURN(flexmoe::RequestSource requests,
                             flexmoe::RequestSource::Create(ro));
    const int64_t max_batch =
        options.serving.max_batch_tokens > 0
            ? options.serving.max_batch_tokens
            : options.model.tokens_per_gpu * options.num_gpus;
    flexmoe::ForwardFloorEstimator floor(profile.get(), options.model,
                                         options.num_gpus,
                                         options.pipeline_chunks);
    MoESystem* sys_ptr = system.get();
    flexmoe::ServeExecutor::LatencyEstimator estimator =
        [&floor, sys_ptr, &run](int64_t tokens) {
          const double e0 = NowSeconds();
          if (const flexmoe::ClusterHealth* h = sys_ptr->cluster_health();
              h != nullptr && h->num_alive() > 0) {
            floor.set_num_gpus(h->num_alive());
          }
          const double seconds = floor.Seconds(tokens);
          run.floor_s += NowSeconds() - e0;
          run.floor_calls += 1;
          return seconds;
        };
    TimedTraceSource timed_source(source.get());
    flexmoe::ServeExecutor serve(&timed, &timed_source, &requests,
                                 options.serving, max_batch,
                                 options.model.top_k, std::move(estimator));
    serve.set_observability(&observability);
    const double r0 = NowSeconds();
    timed.last_end = r0;
    FLEXMOE_ASSIGN_OR_RETURN(flexmoe::ServingReport serve_report,
                             serve.Run(options.measure_steps));
    const double r1 = NowSeconds();
    const double run_s = r1 - r0 - timed.observer_seconds;
    // Horizon accounting after the last microbatch belongs to it.
    if (!timed.op_host_seconds.empty()) {
      timed.op_host_seconds.back() += r1 - timed.last_end;
    }
    run.gate_s = timed_source.seconds;
    run.gate_calls = timed_source.calls;
    run.assignments = timed_source.assignments;
    run.step_s = timed.seconds;
    run.admission_s = run_s - run.gate_s - run.step_s - run.floor_s;
    run.trace_hash = serve.trace_hash();
    run.report = BuildReport(options, *system, run.trace_hash, &serve_report);

    // Ledger balance (whole run) and the forward floor (every batch). A
    // ledger imbalance fails every operation of the run.
    const std::string ledger = CheckServingLedger(serve_report);
    NoteFailure(&run, ledger);
    if (!ledger.empty()) run.failed_ops = run.ops;
    flexmoe::ForwardFloorEstimator audit_floor(
        profile.get(), options.model, options.num_gpus,
        options.pipeline_chunks);
    const std::vector<StepMetrics>& steps = system->stats().steps();
    for (const flexmoe::ServeBatchRecord& rec : serve.batch_log()) {
      const std::string why = CheckForwardFloor(
          rec.batch, audit_floor.Seconds(rec.tokens),
          steps[static_cast<size_t>(rec.batch)].step_seconds);
      if (!why.empty() && ledger.empty()) run.failed_ops += 1;
      NoteFailure(&run, why);
    }
  } else {
    uint64_t trace_hash = flexmoe::kTraceHashSeed;
    for (int s = 0; s < options.measure_steps; ++s) {
      timed.last_end = NowSeconds();
      const std::vector<Assignment> step = source->NextStep();
      run.gate_s += NowSeconds() - timed.last_end;
      run.gate_calls += 1;
      timed.RunStep(step);
      trace_hash = flexmoe::HashStep(step, trace_hash);
      for (const Assignment& a : step) run.assignments += a.Total();
    }
    run.step_s = timed.seconds;
    run.trace_hash = trace_hash;
    run.report = BuildReport(options, *system, trace_hash, nullptr);
  }
  run.op_s = timed.op_seconds;
  run.op_host_s = timed.op_host_seconds;
  run.fingerprint = Fingerprint(run.report);

  if (traced) {
    const flexmoe::obs::MetricsRegistry& reg = observability.metrics();
    for (const char* name :
         {"policy.invocations", "policy.triggers",
          "policy.candidates_evaluated", "policy.plan_rounds",
          "policy.ops_enqueued", "policy.migrations"}) {
      run.counters[name] = reg.counter(name);
    }
    for (const flexmoe::obs::PolicyDecisionRecord& rec :
         observability.decisions().records()) {
      if (rec.triggered && rec.plan_rounds > 0) run.plans_accepted += 1;
    }
    if (probe != nullptr) {
      run.probe = probe->totals();
      run.probed = true;
    }
  }
  return run;
}

// ---- Rep output ------------------------------------------------------------

double Div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

std::string SystemJson(const SystemRun& r) {
  JsonObject o;
  o.Str("system", r.key)
      .Num("calibrate_s", r.calibrate_s)
      .Num("trace_source_s", r.trace_source_s)
      .Num("build_system_s", r.build_system_s)
      .Num("gate_s", r.gate_s)
      .Int("gate_calls", r.gate_calls)
      .Int("assignments", r.assignments)
      .Num("step_s", r.step_s)
      .Num("admission_s", r.admission_s)
      .Num("floor_s", r.floor_s)
      .Int("floor_calls", r.floor_calls)
      .Int("ops", r.ops)
      .Int("failed_ops", r.failed_ops)
      .Raw("failures", JsonStrings(r.failures))
      .Raw("op_s", JsonArray(r.op_s))
      .Raw("op_host_s", JsonArray(r.op_host_s))
      .Str("trace_hash", StrFormat("%016" PRIx64, r.trace_hash))
      .Str("fingerprint", r.fingerprint);
  const flexmoe::TrainingStats& st = r.report.stats;
  int64_t ops_applied = 0, ops_launched = 0;
  double a2a = 0.0, compute = 0.0, sync = 0.0;
  int measured = 0;
  for (size_t i = 0; i < st.steps().size(); ++i) {
    const StepMetrics& m = st.steps()[i];
    ops_applied += m.ops_applied;
    ops_launched += m.ops_launched;
    if (static_cast<int>(i) < r.warmup) continue;
    // Phase means over the measured (post-warmup) operations.
    a2a += m.a2a_seconds;
    compute += m.compute_seconds;
    sync += m.sync_seconds;
    ++measured;
  }
  JsonObject rep;
  rep.Num("mean_step_s", r.report.mean_step_seconds)
      .Num("balance_ratio", r.report.mean_balance_ratio)
      .Num("hours_to_target", r.report.hours_to_target)
      .Num("token_efficiency", r.report.mean_token_efficiency)
      .Num("expert_efficiency", r.report.mean_expert_efficiency)
      .Num("gpu_utilization", r.report.mean_gpu_utilization)
      .Num("a2a_s", Div(a2a, measured))
      .Num("compute_s", Div(compute, measured))
      .Num("sync_s", Div(sync, measured))
      .Int("ops_applied", ops_applied)
      .Int("ops_launched", ops_launched);
  if (r.report.serving) {
    const flexmoe::ServingReport& s = r.report.serve;
    rep.Num("p99_latency_s", s.p99_latency_seconds)
        .Num("slo_attainment", s.slo_attainment)
        .Num("goodput_tokens_per_s", s.goodput_tokens_per_sec)
        .Int("requests_shed", s.requests_shed)
        .Int("chunked_admissions", s.chunked_admissions)
        .Int("failed_batches", s.failed_batches)
        .Int("tokens_recirculated", s.tokens_recirculated);
  }
  o.Raw("report", rep.ToString());
  if (!r.counters.empty()) {
    JsonObject c;
    for (const auto& kv : r.counters) c.Int(kv.first, kv.second);
    c.Int("plans_accepted", r.plans_accepted);
    o.Raw("counters", c.ToString());
  }
  if (r.probed) {
    const LayerProbe::Totals& p = r.probe;
    JsonObject j;
    j.Int("route_calls", p.route_calls)
        .Num("route_s", p.route_s)
        .Int("plan_calls", p.plan_calls)
        .Num("plan_s", p.plan_s)
        .Int("plan_candidates", p.plan_candidates)
        .Int("migration_calls", p.migration_calls)
        .Num("migration_s", p.migration_s)
        .Int("reset_calls", p.reset_calls)
        .Num("reset_s", p.reset_s)
        .Int("apply_calls", p.apply_calls)
        .Num("apply_s", p.apply_s)
        .Int("exec_calls", p.exec_calls)
        .Num("exec_s", p.exec_s)
        .Int("num_layers", r.num_layers);
    o.Raw("probe", j.ToString());
  }
  return o.ToString();
}

int RunRep(const std::string& workload_name, uint64_t seed,
           const std::string& mode, const std::string& length,
           bool fidelity) {
  const Workload w = MakeWorkload(workload_name, seed, length);
  const bool traced = mode == "traced";
  const double wall0 = NowSeconds();
  std::vector<SystemRun> runs;
  std::vector<const ExperimentOptions*> run_options;
  std::vector<std::string> errors;
  for (const ExperimentOptions& o : w.systems) {
    flexmoe::Result<SystemRun> r = RunSystem(o, w.serving, traced);
    if (!r.ok()) {
      errors.push_back(o.system + ": " + r.status().ToString());
      continue;
    }
    runs.push_back(std::move(*r));
    run_options.push_back(&o);
  }
  const double wall_s = NowSeconds() - wall0;
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  std::vector<uint64_t> hashes;
  for (const SystemRun& r : runs) hashes.push_back(r.trace_hash);
  const std::string hash_check = CheckTraceHashes(hashes);

  // Fidelity: this report must equal RunExperiment's, bit for bit.
  std::vector<std::string> fidelity_errors;
  if (fidelity) {
    for (size_t i = 0; i < runs.size(); ++i) {
      const flexmoe::Result<ExperimentReport> ref =
          flexmoe::RunExperiment(*run_options[i]);
      if (!ref.ok()) {
        fidelity_errors.push_back(runs[i].key + ": RunExperiment failed: " +
                                  ref.status().ToString());
      } else if (Fingerprint(*ref) != runs[i].fingerprint) {
        fidelity_errors.push_back(runs[i].key + ": benchmark report differs "
                                  "from RunExperiment: benchmark {" +
                                  runs[i].fingerprint + "} vs {" +
                                  Fingerprint(*ref) + "}");
      }
    }
  }

  JsonObject out;
  out.Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(seed))
      .Str("mode", mode)
      .Str("length", length)
      .Bool("serving", w.serving)
      .Num("wall_s", wall_s)
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .Raw("errors", JsonStrings(errors))
      .Str("trace_hash_check", hash_check)
      .Bool("fidelity_checked", fidelity)
      .Raw("fidelity_errors", JsonStrings(fidelity_errors));
  std::string systems = "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) systems += ", ";
    systems += SystemJson(runs[i]);
  }
  out.Raw("systems", systems + "]");
  std::printf("%s\n", out.ToString().c_str());
  return errors.empty() ? 0 : 1;
}

// ---- Self-test of the audit -------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  flexmoe::ServingReport ledger;
  ledger.requests_arrived = 10;
  ledger.requests_completed = 6;
  ledger.requests_shed = 3;
  ledger.requests_queued_at_end = 1;
  ledger.tokens_arrived = 1000;
  ledger.tokens_completed = 700;
  ledger.tokens_shed = 200;
  ledger.tokens_queued_at_end = 100;
  expect(CheckServingLedger(ledger).empty(), "balanced ledger passes");
  flexmoe::ServingReport bad = ledger;
  bad.requests_completed -= 1;  // one request vanishes
  expect(!CheckServingLedger(bad).empty(),
         "request-unbalanced ledger is flagged");
  bad = ledger;
  bad.tokens_shed += 5;  // tokens invented
  expect(!CheckServingLedger(bad).empty(),
         "token-unbalanced ledger is flagged");
  expect(CheckTokenConservation("t", 100, 90, 10).empty(),
         "routed + dropped == assigned passes");
  expect(!CheckTokenConservation("t", 100, 91, 10).empty(),
         "mismatched token count is flagged");
  expect(!CheckTokenConservation("t", 100, 100, 1).empty(),
         "dropped tokens on top of a full route are flagged");
  expect(CheckForwardFloor(0, 0.5, 0.5).empty(), "floor == measured passes");
  expect(!CheckForwardFloor(0, 0.51, 0.5).empty(),
         "floor above measured is flagged");
  expect(CheckTraceHashes({7, 7, 7}).empty(), "identical streams pass");
  expect(!CheckTraceHashes({7, 7, 8}).empty(),
         "a different trace_hash stream is flagged");
  return failures == 0 ? 0 : 1;
}

int PrintEnv() {
  JsonObject o;
  o.Str("compiler", PERFBENCH_COMPILER).Str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", o.ToString().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: flexmoe_perfbench rep --workload NAME --seed N "
               "[--mode untraced|traced] [--length full|tiny] [--fidelity]\n"
               "       flexmoe_perfbench selftest | env\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return SelfTest();
  if (cmd == "env") return PrintEnv();
  if (cmd != "rep") return Usage();
  std::string workload, mode = "untraced", length = "full";
  uint64_t seed = 0;
  bool have_seed = false, fidelity = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--length" && has_value) {
      length = argv[++i];
    } else if (arg == "--fidelity") {
      fidelity = true;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed ||
      (mode != "untraced" && mode != "traced")) {
    return Usage();
  }
  return RunRep(workload, seed, mode, length, fidelity);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flexmoe_perfbench: %s\n", e.what());
    return 2;
  }
}
