// Layer probe for traced runs (see perfbench.h): replays captured FlexMoE
// step inputs through each layer's public entry point on private objects
// and times every call. run.py multiplies these per-call timings by the
// program's own call counts to estimate each layer's share of step time.

#include "collective/nccl_group.h"
#include "core/incremental_cost.h"
#include "core/policy_maker.h"
#include "core/router.h"
#include "core/step_executor.h"
#include "perfbench.h"
#include "sim/stream.h"

namespace perfbench {

using flexmoe::ModOp;
using flexmoe::Placement;

struct LayerProbe::Impl {
  Impl(const ExperimentOptions& o, const flexmoe::Topology* topo,
       const flexmoe::HardwareProfile* profile,
       const flexmoe::CostModel* cost_model, bool serving)
      : options(o),
        cost_model(cost_model),
        serving(serving),
        policy(cost_model,
               [&] {
                 flexmoe::PolicyMakerOptions p = o.policy;
                 p.serve_objective = serving;  // as BuildSystem sets it
                 return p;
               }()),
        state(cost_model, /*include_sync=*/!serving),
        cluster(topo),
        executor(&cluster, profile, o.model),
        groups(*flexmoe::NcclGroupCache::Create(
            flexmoe::NcclGroupCache::Options{})) {
    executor.set_pipeline(flexmoe::PipelineOptions{o.pipeline_chunks});
  }

  ExperimentOptions options;
  const flexmoe::CostModel* cost_model;
  bool serving;
  flexmoe::PolicyMaker policy;
  flexmoe::LayerCostState state;
  flexmoe::ClusterState cluster;
  flexmoe::StepExecutor executor;
  flexmoe::NcclGroupCache groups;
};

LayerProbe::LayerProbe(const ExperimentOptions& options,
                       const flexmoe::Topology* topo,
                       const flexmoe::HardwareProfile* profile,
                       const flexmoe::CostModel* cost_model, bool serving)
    : impl_(new Impl(options, topo, profile, cost_model, serving)) {}

LayerProbe::~LayerProbe() = default;

namespace {

// An Expand/Shrink pair of the kind Algorithm 2 scores: shrink the coldest
// multi-replica expert on one of its hosts and expand the hottest expert
// into the freed slot. Empty when no such pair exists.
std::vector<ModOp> SyntheticCandidate(const flexmoe::LayerCostState& state) {
  const Placement& p = state.placement();
  const std::vector<double>& caps = state.vexpert_capacities();
  int hot = -1, cold = -1;
  for (int e = 0; e < p.num_experts(); ++e) {
    if (hot < 0 || caps[e] > caps[hot]) hot = e;
    if (p.VExperts(e) >= 2 && (cold < 0 || caps[e] < caps[cold])) cold = e;
  }
  if (hot < 0 || cold < 0 || hot == cold) return {};
  const flexmoe::GpuId dst = p.HostGpus(cold).back();
  const flexmoe::GpuId src = p.HostGpus(hot).front();
  return {flexmoe::MakeShrink(cold, dst), flexmoe::MakeExpand(hot, src, dst)};
}

}  // namespace

void LayerProbe::Replay(const std::vector<Assignment>& assignments,
                        const std::vector<const Placement*>& live,
                        const std::vector<const Placement*>& target) {
  Impl& m = *impl_;
  const size_t layers = assignments.size();
  std::vector<flexmoe::RoutedAssignment> routed(layers);
  for (size_t l = 0; l < layers; ++l) {
    double t0 = NowSeconds();
    routed[l] = flexmoe::FlexibleRouter::Route(assignments[l], *live[l]);
    totals_.route_s += NowSeconds() - t0;
    totals_.route_calls += 1;

    flexmoe::PlanSearchStats stats;
    t0 = NowSeconds();
    const std::vector<ModOp> plan =
        m.policy.MakeSchedulingPlan(assignments[l], *target[l], &stats);
    totals_.plan_s += NowSeconds() - t0;
    totals_.plan_calls += 1;
    totals_.plan_candidates += stats.candidates_evaluated;

    const int max_migrations = m.options.scheduler.max_migrations;
    if (!m.serving && max_migrations > 0) {
      t0 = NowSeconds();
      const std::vector<ModOp> moves =
          m.policy.PlanMigrations(*target[l], max_migrations);
      totals_.migration_s += NowSeconds() - t0;
      totals_.migration_calls += 1;
      (void)moves;
    }

    t0 = NowSeconds();
    m.state.Reset(assignments[l], *target[l]);
    totals_.reset_s += NowSeconds() - t0;
    totals_.reset_calls += 1;

    const std::vector<ModOp> ops =
        plan.empty() ? SyntheticCandidate(m.state) : plan;
    t0 = NowSeconds();
    int applied = 0;
    for (const ModOp& op : ops) {
      if (!m.state.Apply(op)) break;
      ++applied;
    }
    for (int i = 0; i < applied; ++i) m.state.Undo();
    totals_.apply_s += NowSeconds() - t0;
    totals_.apply_calls += applied;
  }

  std::vector<flexmoe::LayerWork> work(layers);
  for (size_t l = 0; l < layers; ++l) {
    work[l].routed = &routed[l];
    work[l].placement = live[l];
    if (m.options.pipeline_chunks == 0) {
      // Auto-K: the system's per-layer depth is private; use its own
      // first-step rule (BestChunkDepth on the routed estimate).
      const flexmoe::LayerCostEstimate est = m.cost_model->EstimateLayer(
          routed[l], *live[l], /*include_sync=*/!m.serving);
      work[l].chunks = m.cost_model->BestChunkDepth(
          est.per_gpu_compute, est.per_gpu_a2a, est.per_gpu_sync);
    }
  }
  const double t0 = NowSeconds();
  const flexmoe::StepTiming timing =
      m.serving ? m.executor.ExecuteForward(work)
                : m.executor.ExecuteStep(work, &m.groups);
  totals_.exec_s += NowSeconds() - t0;
  totals_.exec_calls += 1;
  (void)timing;
}

}  // namespace perfbench
