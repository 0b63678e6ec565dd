// Tests for the Scheduler (Algorithm 1): trigger policies, metric choices,
// and the planning loop's contract.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "core/balance.h"
#include "elastic/fault_plan.h"

namespace flexmoe {
namespace {

struct Fixture {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ModelConfig model;
  CostModel cost;
  PolicyMaker pm;

  static Fixture Make() {
    TopologyOptions topt;
    topt.num_nodes = 1;
    topt.gpus_per_node = 8;
    ModelConfig model = GptMoES();
    model.num_experts = 8;
    return Fixture(std::make_unique<Topology>(*Topology::Create(topt)),
                   model);
  }

  Fixture(std::unique_ptr<Topology> t, ModelConfig m)
      : topo(std::move(t)),
        profile(topo.get(), GpuSpec{}),
        model(std::move(m)),
        cost(&profile, ShapeFromModel(model)),
        pm(&cost, PolicyMakerOptions{}) {}
};

Placement MakePlacement() {
  PlacementOptions o;
  o.num_experts = 8;
  o.num_gpus = 8;
  o.slots_per_gpu = 2;
  return *Placement::ExpertParallel(o);
}

Assignment Skewed() {
  Assignment a(8, 8);
  for (int g = 0; g < 8; ++g) {
    a.set(0, g, 8000);
    for (int e = 1; e < 8; ++e) a.set(e, g, 100);
  }
  return a;
}

Assignment Balanced() {
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) {
    for (int g = 0; g < 8; ++g) a.set(e, g, 1000);
  }
  return a;
}

TEST(SchedulerOptionsTest, Validation) {
  SchedulerOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.threshold = 0.5;
  EXPECT_FALSE(o.Validate().ok());
  o = SchedulerOptions{};
  o.static_interval_steps = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = SchedulerOptions{};
  o.max_plan_iterations = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(SchedulerTest, NoTriggerBelowThreshold) {
  Fixture f = Fixture::Make();
  Scheduler sched(&f.pm, SchedulerOptions{});
  Placement p = MakePlacement();
  const SchedulerDecision d = sched.OnStep(0, Balanced(), &p);
  EXPECT_FALSE(d.triggered);
  EXPECT_TRUE(d.ops.empty());
  EXPECT_NEAR(d.metric_before, 1.0, 0.01);
}

TEST(SchedulerTest, TriggersAndImprovesOnSkew) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const Assignment a = Skewed();
  const double before = BalanceRatioOf(a, p);
  EXPECT_GT(before, opts.threshold);

  const SchedulerDecision d = sched.OnStep(0, a, &p);
  EXPECT_TRUE(d.triggered);
  EXPECT_GT(d.plan_rounds, 0);
  EXPECT_FALSE(d.ops.empty());
  EXPECT_LT(d.metric_after, d.metric_before);
  EXPECT_TRUE(p.Validate().ok());
  // The scheduler never worsens the balance.
  EXPECT_LE(BalanceRatioOf(a, p), before);
}

TEST(SchedulerTest, MetricOfMatchesBalanceHelpers) {
  Fixture f = Fixture::Make();
  Scheduler max_sched(&f.pm, SchedulerOptions{});
  SchedulerOptions vopts;
  vopts.metric = TriggerMetric::kVariance;
  Scheduler var_sched(&f.pm, vopts);
  const Placement p = MakePlacement();
  const Assignment a = Skewed();
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  EXPECT_NEAR(max_sched.MetricOf(a, p),
              BalanceRatio(r.PerGpuComputeLoads()), 1e-12);
  EXPECT_NEAR(var_sched.MetricOf(a, p),
              BalanceVariance(r.PerGpuComputeLoads()), 1e-12);
}

TEST(SchedulerTest, StaticIntervalIgnoresBalance) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.policy = TriggerPolicy::kStaticInterval;
  opts.static_interval_steps = 10;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  // Balanced workload, but step 0 hits the interval: triggered (may still
  // produce no ops).
  EXPECT_TRUE(sched.OnStep(0, Balanced(), &p).triggered);
  EXPECT_FALSE(sched.OnStep(1, Skewed(), &p).triggered);   // off-interval
  EXPECT_FALSE(sched.OnStep(9, Skewed(), &p).triggered);
  EXPECT_TRUE(sched.OnStep(10, Skewed(), &p).triggered);
}

TEST(SchedulerTest, PlanIterationBound) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 2;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const SchedulerDecision d = sched.OnStep(0, Skewed(), &p);
  EXPECT_LE(d.plan_rounds, 2);
}

TEST(SchedulerTest, OpsApplyCleanlyToFreshPlacement) {
  // The decision's op list must be replayable on a copy of the original
  // placement (the executor applies it to the live one).
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement target = MakePlacement();
  Placement live = target;
  const SchedulerDecision d = sched.OnStep(0, Skewed(), &target);
  for (const ModOp& op : d.ops) {
    ASSERT_TRUE(ApplyOp(op, &live).ok()) << op.ToString();
  }
  EXPECT_TRUE(live == target);
}

TEST(SchedulerTest, VarianceMetricAlsoBalances) {
  Fixture f = Fixture::Make();
  SchedulerOptions opts;
  opts.metric = TriggerMetric::kVariance;
  opts.variance_threshold = 0.05;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  Placement p = MakePlacement();
  const Assignment a = Skewed();
  const SchedulerDecision d = sched.OnStep(0, a, &p);
  EXPECT_TRUE(d.triggered);
  EXPECT_LT(d.metric_after, d.metric_before);
}

// A degraded device makes the trigger plan evacuation ops before the
// balance loop. They change the target after MetricOf routed it, so the
// plan state may not take over that routing: the decision must equal the
// Algorithm 1 body run on a state built by a fresh Reset of the evacuated
// placement.
TEST(SchedulerTest, EvacuationTriggerPlansFromFreshReset) {
  Fixture f = Fixture::Make();
  ClusterHealth health(8);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 0;  // sole host of the hot expert 0
  slow.compute_multiplier = 2.0;
  ASSERT_TRUE(health.Apply(slow).ok());
  f.pm.SetClusterHealth(&health);
  SchedulerOptions opts;
  opts.max_plan_iterations = 16;
  Scheduler sched(&f.pm, opts);
  sched.SetClusterHealth(&health);
  const Assignment a = Skewed();
  Placement target = MakePlacement();

  // Reference: evacuate, Reset a fresh state on the result, plan, migrate.
  Placement want = target;
  std::vector<ModOp> want_ops =
      f.pm.PlanEvacuation(want, opts.max_evacuations);
  ASSERT_FALSE(want_ops.empty());
  for (const ModOp& op : want_ops) ASSERT_TRUE(ApplyOp(op, &want).ok());
  LayerCostState state(&f.cost, /*include_sync=*/true);
  state.Reset(a, want);
  const double score_before = state.Score();
  double metric = sched.MetricOf(a, target);  // the pre-evacuation metric
  int rounds = 0;
  for (; rounds < opts.max_plan_iterations && metric > opts.threshold;
       ++rounds) {
    const std::vector<ModOp> plan = f.pm.PlanOnState(&state);
    if (plan.empty()) break;
    for (const ModOp& op : plan) {
      ASSERT_TRUE(ApplyOp(op, &want).ok());
      ASSERT_TRUE(state.Apply(op));
      want_ops.push_back(op);
    }
    std::vector<double> loads;
    for (const int64_t t : state.per_gpu_compute_tokens()) {
      loads.push_back(static_cast<double>(t));
    }
    metric = BalanceRatio(loads);
  }
  for (const ModOp& op : f.pm.PlanMigrations(want, opts.max_migrations)) {
    ASSERT_TRUE(ApplyOp(op, &want).ok());
    want_ops.push_back(op);
  }

  const SchedulerDecision d = sched.OnStep(0, a, &target);
  ASSERT_TRUE(d.triggered);
  EXPECT_GT(d.evacuations, 0);
  EXPECT_GT(d.plan_rounds, 0);
  EXPECT_EQ(d.plan_rounds, rounds);
  EXPECT_EQ(d.est_score_before, score_before);
  EXPECT_EQ(d.metric_after, metric);
  ASSERT_EQ(d.ops.size(), want_ops.size());
  for (size_t i = 0; i < want_ops.size(); ++i) {
    EXPECT_EQ(d.ops[i].ToString(), want_ops[i].ToString());
  }
  EXPECT_TRUE(target == want);
}

TEST(TriggerNamesTest, Strings) {
  EXPECT_STREQ(TriggerMetricName(TriggerMetric::kMaxRatio), "Max");
  EXPECT_STREQ(TriggerMetricName(TriggerMetric::kVariance), "Variance");
  EXPECT_STREQ(TriggerPolicyName(TriggerPolicy::kDynamic), "Dynamic");
  EXPECT_STREQ(TriggerPolicyName(TriggerPolicy::kStaticInterval),
               "StaticInterval");
}

}  // namespace
}  // namespace flexmoe
