// Integration tests of the experiment harness: every system runs end to
// end, reports are sane, and the paper's headline orderings hold on a
// shared workload.

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/reporters.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

ExperimentOptions SmallExperiment(const std::string& system) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.model.num_moe_layers = 2;     // keep test runtime modest
  o.model.tokens_per_gpu = 2048;
  o.num_gpus = 8;
  o.measure_steps = 40;
  o.warmup_steps = 10;
  o.seed = 5;
  return o;
}

TEST(ExperimentOptionsTest, Validation) {
  EXPECT_TRUE(SmallExperiment("flexmoe").Validate().ok());
  ExperimentOptions o = SmallExperiment("nosuch");
  EXPECT_FALSE(o.Validate().ok());
  o = SmallExperiment("flexmoe");
  o.num_gpus = 12;
  EXPECT_FALSE(o.Validate().ok());
  o = SmallExperiment("flexmoe");
  o.warmup_steps = o.measure_steps;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(ExperimentTest, AllSystemsRun) {
  for (const std::string system :
       {"flexmoe", "deepspeed", "fastermoe", "swipe"}) {
    const auto report = RunExperiment(SmallExperiment(system));
    ASSERT_TRUE(report.ok()) << system;
    EXPECT_GT(report->mean_step_seconds, 0.0) << system;
    EXPECT_GT(report->throughput_tokens_per_sec, 0.0) << system;
    EXPECT_GT(report->steps_to_target, 0.0) << system;
    EXPECT_GT(report->hours_to_target, 0.0) << system;
    EXPECT_GE(report->mean_balance_ratio, 1.0) << system;
    EXPECT_EQ(report->num_gpus, 8) << system;
    EXPECT_FALSE(ReportLine(*report).empty());
  }
}

TEST(ExperimentTest, LargeEPPresetRunsEndToEnd) {
  // Reduced-scale smoke of the large-EP preset (one expert per GPU,
  // slots = 2, hierarchical Eq. 8, topology-aware expansion): same
  // configuration the nightly runs at G = 512, sized for tier-1. The
  // preset's knobs must survive the full engine path, not just the
  // planner microbenchmarks.
  ExperimentOptions o = LargeEPOptions(16);
  o.measure_steps = 10;
  o.warmup_steps = 2;
  const auto report = RunExperiment(o);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->mean_step_seconds, 0.0);
  EXPECT_GT(report->throughput_tokens_per_sec, 0.0);
  EXPECT_GE(report->mean_balance_ratio, 1.0);
  EXPECT_EQ(report->num_gpus, 16);
}

/// Every simulated outcome of a report as hex floats (exact round trip).
std::string HexDigest(const ExperimentReport& r) {
  return StrFormat(
      "trace=%016llx step=%a total=%a thr=%a bal=%a expert=%a util=%a "
      "hours=%a ops=%lld",
      static_cast<unsigned long long>(r.trace_hash), r.mean_step_seconds,
      r.stats.TotalSeconds(), r.throughput_tokens_per_sec,
      r.mean_balance_ratio, r.mean_expert_efficiency, r.mean_gpu_utilization,
      r.hours_to_target, static_cast<long long>(r.stats.TotalOpsApplied()));
}

TEST(ExperimentTest, LargeEPPresetDigestPins) {
  // The large-EP preset at 16 nodes (G = 128), serial and at auto-K: the
  // executor's All-to-All over every routed pair is on this path, so any
  // change to a port's reservation order shows up in the step times.
  struct Pin {
    int chunks;
    const char* digest;
  };
  const Pin pins[] = {
      {1,
       "trace=62daf3c4ed7a5433 step=0x1.24ea300171c96p-5 "
       "total=0x1.f46a188481332p-3 thr=0x1.bf798ee242a6fp+21 "
       "bal=0x1.288199999999ap+3 expert=0x1.12a3cf18acd5p-2 "
       "util=0x1.3492b9aa7adfp-3 hours=0x0p+0 ops=226"},
      {0,
       "trace=62daf3c4ed7a5433 step=0x1.d63aeda8613b5p-6 "
       "total=0x1.7fb170fdf8b48p-3 thr=0x1.16bd75d177f99p+22 "
       "bal=0x1.288199999999ap+3 expert=0x1.4717803f8d25cp-2 "
       "util=0x1.7cfafb8e24ca2p-3 hours=0x0p+0 ops=226"},
  };
  for (const Pin& pin : pins) {
    ExperimentOptions o = LargeEPOptions(128);
    o.measure_steps = 6;
    o.warmup_steps = 1;
    o.pipeline_chunks = pin.chunks;
    const auto report = RunExperiment(o);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(HexDigest(*report), pin.digest) << "chunks " << pin.chunks;
  }
}

TEST(ExperimentTest, DeterministicReports) {
  const auto r1 = RunExperiment(SmallExperiment("flexmoe"));
  const auto r2 = RunExperiment(SmallExperiment("flexmoe"));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->mean_step_seconds, r2->mean_step_seconds);
  EXPECT_DOUBLE_EQ(r1->hours_to_target, r2->hours_to_target);
}

TEST(ExperimentTest, FlexMoEBalancesBetterThanUncappedBaselines) {
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  ExperimentOptions ep = SmallExperiment("deepspeed");
  ep.capacity_factor = 0.0;  // uncapped: raw imbalance visible
  const auto ds = RunExperiment(ep);
  ASSERT_TRUE(flex.ok() && ds.ok());
  EXPECT_LT(flex->mean_balance_ratio, ds->mean_balance_ratio);
}

TEST(ExperimentTest, HeadlineOrderingTimeToQuality) {
  // The paper's Figure 5 shape: FlexMoE < FasterMoE < DeepSpeed in hours
  // to the common quality target.
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  const auto faster = RunExperiment(SmallExperiment("fastermoe"));
  const auto ds = RunExperiment(SmallExperiment("deepspeed"));
  ASSERT_TRUE(flex.ok() && faster.ok() && ds.ok());
  EXPECT_LT(flex->hours_to_target, faster->hours_to_target);
  EXPECT_LT(flex->hours_to_target, ds->hours_to_target);
}

TEST(ExperimentTest, TokenEfficiencySemantics) {
  const auto flex = RunExperiment(SmallExperiment("flexmoe"));
  const auto ds = RunExperiment(SmallExperiment("deepspeed"));
  const auto swipe = RunExperiment(SmallExperiment("swipe"));
  ASSERT_TRUE(flex.ok() && ds.ok() && swipe.ok());
  EXPECT_DOUBLE_EQ(flex->mean_token_efficiency, 1.0);
  EXPECT_LT(ds->mean_token_efficiency, 1.0);
  EXPECT_LT(swipe->mean_token_efficiency, 1.0);
  // SWIPE's re-assigned tokens keep partial value.
  EXPECT_GT(swipe->mean_effective_token_rate,
            swipe->mean_token_efficiency);
}

TEST(ExperimentTest, BuildTraceGeneratorDerivesFromModel) {
  const ExperimentOptions o = SmallExperiment("flexmoe");
  const auto gen = BuildTraceGenerator(o);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->options().num_experts, o.model.num_experts);
  EXPECT_EQ(gen->options().num_gpus, o.num_gpus);
  EXPECT_EQ(gen->options().top_k, 2);
}

TEST(ReportersTest, SpeedupFormat) {
  EXPECT_EQ(FormatSpeedup(1.726), "1.73x");
}

TEST(ReportersTest, AsciiHelpersProduceOutput) {
  EXPECT_FALSE(AsciiSeries({1, 2, 3, 2, 1}, 20, 5).empty());
  EXPECT_FALSE(AsciiCdf({0.4, 0.7, 0.9, 1.0}, 30).empty());
  EXPECT_TRUE(AsciiSeries({}, 20, 5).empty());
}

}  // namespace
}  // namespace flexmoe
