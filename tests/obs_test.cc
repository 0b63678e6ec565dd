// Unit tests for the observability subsystem (src/obs/): tracer ring
// semantics and Chrome-trace export, metrics-registry determinism,
// decision-log JSONL roundtrip and the policy-adoption-lag metric.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/decision_log.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/trace.h"

namespace flexmoe {
namespace obs {
namespace {

TEST(TracerTest, RecordsSpansOldestFirst) {
  Tracer tr(16);
  tr.Span("a", "cat", 0, 1.0, 2.0);
  tr.Span("b", "cat", 1, 2.0, 3.0, "tokens", 42.0);
  tr.Instant("c", "cat", kControlLane, 3.5);
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_STREQ(tr.at(0).name, "a");
  EXPECT_EQ(tr.at(0).phase, 'X');
  EXPECT_DOUBLE_EQ(tr.at(0).ts_seconds, 1.0);
  EXPECT_DOUBLE_EQ(tr.at(0).dur_seconds, 1.0);
  EXPECT_STREQ(tr.at(1).arg_key0, "tokens");
  EXPECT_DOUBLE_EQ(tr.at(1).arg_val0, 42.0);
  EXPECT_EQ(tr.at(2).phase, 'i');
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TracerTest, NegativeDurationClampsToZero) {
  Tracer tr(4);
  tr.Span("empty", "cat", 0, 5.0, 4.0);
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_DOUBLE_EQ(tr.at(0).dur_seconds, 0.0);
}

TEST(TracerTest, RingDropsOldestAndCounts) {
  Tracer tr(4);
  for (int i = 0; i < 10; ++i) {
    tr.Instant("e", "cat", 0, static_cast<double>(i));
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  // Survivors are the most recent four, still oldest-first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(tr.at(i).ts_seconds, static_cast<double>(6 + i));
  }
}

TEST(TracerTest, ChromeJsonShapeAndDeterminism) {
  auto record = [](Tracer* tr) {
    tr->set_num_gpus(2);
    tr->Span("dispatch_a2a", "a2a", 0, 0.001, 0.002, "layer", 0.0);
    tr->Span("expert_compute", "compute", 1, 0.002, 0.004);
    tr->Instant("fault_event", "elastic", kControlLane, 0.003);
    tr->Counter("serve_backlog", kServingLane, 0.004, "requests", 17.0);
  };
  Tracer a, b;
  record(&a);
  record(&b);
  const std::string json = a.ToChromeJson();
  // Identical recording => byte-identical export (no wall clock).
  EXPECT_EQ(json, b.ToChromeJson());

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Lane metadata for both GPU lanes plus the named lanes seen.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Sim seconds scaled to trace microseconds: 0.001 s -> 1000 us.
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Wall clock is absent by default and present on request.
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
  EXPECT_NE(a.ToChromeJson(/*include_wall_clock=*/true).find("wall_us"),
            std::string::npos);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.Add("train.steps");
  m.Add("train.steps", 4);
  m.Set("serve.slo_attainment", 0.875);
  m.Observe("step.seconds", 0.004);
  m.Observe("step.seconds", 0.006);
  EXPECT_EQ(m.counter("train.steps"), 5);
  EXPECT_DOUBLE_EQ(m.gauge("serve.slo_attainment"), 0.875);
  const HistogramSnapshot* h = m.histogram("step.seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_DOUBLE_EQ(h->min, 0.004);
  EXPECT_DOUBLE_EQ(h->max, 0.006);
  EXPECT_DOUBLE_EQ(h->Mean(), 0.005);
  // Absent names read as zero / null, not as created entries.
  EXPECT_EQ(m.counter("nope"), 0);
  EXPECT_DOUBLE_EQ(m.gauge("nope"), 0.0);
  EXPECT_EQ(m.histogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotsSortedAndInsertionOrderIndependent) {
  MetricsRegistry a;
  a.Add("zebra", 1);
  a.Add("apple", 2);
  a.Set("mango", 3.0);
  a.Observe("kiwi", 1.5);
  MetricsRegistry b;  // same content, reversed insertion order
  b.Observe("kiwi", 1.5);
  b.Set("mango", 3.0);
  b.Add("apple", 2);
  b.Add("zebra", 1);
  EXPECT_EQ(a.SnapshotText(), b.SnapshotText());
  EXPECT_EQ(a.SnapshotJson(), b.SnapshotJson());
  const std::string text = a.SnapshotText();
  EXPECT_LT(text.find("apple"), text.find("zebra"));
  const std::string json = a.SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

PolicyDecisionRecord SampleRecord(int64_t step, bool adopted) {
  PolicyDecisionRecord r;
  r.step = step;
  r.layer = 1;
  r.trigger_metric = 1.9;
  r.threshold = 1.5;
  r.triggered = adopted;
  r.candidates_evaluated = 12;
  r.plan_rounds = adopted ? 2 : 0;
  r.migrations = adopted ? 1 : 0;
  r.ops_emitted = adopted ? 3 : 0;
  r.est_score_before = 0.0101;
  r.est_score_after = adopted ? 0.0074 : 0.0101;
  r.metric_after = 1.2;
  r.realized_balance = 1.8;
  if (adopted) r.ops = "Expand(e=3,src=0,dst=5);Shrink(e=7,gpu=2)";
  return r;
}

TEST(DecisionLogTest, JsonlRoundtrip) {
  DecisionLog log;
  log.Add(SampleRecord(4, false));
  log.Add(SampleRecord(7, true));
  const std::string jsonl = log.ToJsonl();
  const Result<std::vector<PolicyDecisionRecord>> parsed =
      ParseDecisionLog(jsonl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const PolicyDecisionRecord& r = (*parsed)[1];
  EXPECT_EQ(r.step, 7);
  EXPECT_EQ(r.layer, 1);
  EXPECT_TRUE(r.triggered);
  EXPECT_EQ(r.candidates_evaluated, 12);
  EXPECT_EQ(r.ops_emitted, 3);
  EXPECT_NEAR(r.trigger_metric, 1.9, 1e-9);
  EXPECT_NEAR(r.est_score_after, 0.0074, 1e-9);
  EXPECT_EQ(r.ops, "Expand(e=3,src=0,dst=5);Shrink(e=7,gpu=2)");
  // Formatting is deterministic: re-serializing parses back identically.
  DecisionLog round;
  for (const PolicyDecisionRecord& p : *parsed) round.Add(p);
  EXPECT_EQ(round.ToJsonl(), jsonl);
}

TEST(DecisionLogTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDecisionLog("{\"step\":}").ok());
  EXPECT_FALSE(ParseDecisionLog("not json at all").ok());
  // Blank lines are fine.
  EXPECT_TRUE(ParseDecisionLog("\n\n").ok());
}

TEST(DecisionLogTest, PolicyAdoptionLags) {
  std::vector<PolicyDecisionRecord> records;
  records.push_back(SampleRecord(2, true));    // before any switch
  records.push_back(SampleRecord(11, false));  // ran, adopted nothing
  records.push_back(SampleRecord(13, true));   // first adoption after s=10
  records.push_back(SampleRecord(24, true));   // after s=20
  // No adoption in [30, 40).
  const std::vector<int64_t> lags =
      PolicyAdoptionLags(records, {10, 20, 30, 40});
  ASSERT_EQ(lags.size(), 4u);
  EXPECT_EQ(lags[0], 3);   // 13 - 10
  EXPECT_EQ(lags[1], 4);   // 24 - 20
  EXPECT_EQ(lags[2], -1);  // nothing adopted before the next switch
  EXPECT_EQ(lags[3], -1);  // nothing after 40 at all
}

TEST(ObservabilityTest, DisabledHandleYieldsNullAccessors) {
  ObservabilityOptions opts;  // enabled = false
  Observability off(opts);
  EXPECT_EQ(TracerOf(&off), nullptr);
  EXPECT_EQ(MetricsOf(&off), nullptr);
  EXPECT_EQ(DecisionsOf(&off), nullptr);
  EXPECT_EQ(TracerOf(nullptr), nullptr);

  opts.enabled = true;
  Observability on(opts);
  EXPECT_EQ(TracerOf(&on), &on.tracer());
  EXPECT_EQ(MetricsOf(&on), &on.metrics());
  EXPECT_EQ(DecisionsOf(&on), &on.decisions());
}

TEST(ObservabilityTest, ValidateRejectsPathsWithoutEnable) {
  ObservabilityOptions opts;
  opts.trace_out = "/tmp/t.json";
  EXPECT_FALSE(opts.Validate().ok());
  opts.enabled = true;
  EXPECT_TRUE(opts.Validate().ok());
  opts.trace_capacity = 0;
  EXPECT_FALSE(opts.Validate().ok());
}

}  // namespace
}  // namespace obs
}  // namespace flexmoe
