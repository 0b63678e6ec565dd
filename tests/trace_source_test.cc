// The live trace source and its one-step-ahead worker: the stream it hands
// out must be the bare TraceGenerator's, bit for bit, in every scenario and
// sampling mode; teardown must never hang, whether the worker never
// started or has a step in flight; and the gate's per-row sampler must draw
// exactly what the whole-matrix sampler draws.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gate/gate.h"
#include "gate/logit_process.h"
#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "gate/trace_source.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

TraceGeneratorOptions SmallTrace(const std::string& scenario, bool exact) {
  TraceGeneratorOptions o;
  o.num_experts = 16;
  o.num_moe_layers = 2;
  o.num_gpus = 8;
  o.tokens_per_gpu = exact ? 128 : 1024;
  o.exact_sampling = exact;
  o.scenario.name = scenario;
  o.seed = 17;
  return o;
}

bool SameCounts(const Assignment& a, const Assignment& b) {
  if (a.num_experts() != b.num_experts() || a.num_gpus() != b.num_gpus()) {
    return false;
  }
  for (int e = 0; e < a.num_experts(); ++e) {
    for (int g = 0; g < a.num_gpus(); ++g) {
      if (a.at(e, g) != b.at(e, g)) return false;
    }
  }
  return true;
}

bool SameStep(const std::vector<Assignment>& a,
              const std::vector<Assignment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t l = 0; l < a.size(); ++l) {
    if (!SameCounts(a[l], b[l])) return false;
  }
  return true;
}

// Runs `fn` on a helper thread and fails the test if it has not returned
// within `limit`. A hung helper cannot be cancelled, so a timeout aborts
// the binary: the failure shows as a crash instead of a stalled suite.
void ExpectReturnsWithin(const std::function<void()>& fn,
                         std::chrono::seconds limit) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread helper([&fn, &done] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "did not return within " << limit.count() << " s";
    std::abort();
  }
  helper.join();
}

constexpr std::chrono::seconds kTeardownLimit{60};

TEST(GeneratorTraceSourceTest, MatchesBareGeneratorInEveryScenarioAndMode) {
  constexpr int kSteps = 8;
  for (const std::string& scenario : ScenarioCatalog()) {
    for (const bool exact : {false, true}) {
      SCOPED_TRACE(scenario + (exact ? " exact" : " multinomial"));
      const TraceGeneratorOptions o = SmallTrace(scenario, exact);
      TraceGenerator bare = *TraceGenerator::Create(o);
      GeneratorTraceSource source(*TraceGenerator::Create(o));
      EXPECT_EQ(source.StepsRemaining(), -1);
      uint64_t h_bare = kTraceHashSeed, h_src = kTraceHashSeed;
      for (int s = 0; s < kSteps; ++s) {
        const std::vector<Assignment> want = bare.Step();
        const std::vector<Assignment> got = source.NextStep();
        EXPECT_TRUE(SameStep(want, got)) << "step " << s;
        h_bare = HashStep(want, h_bare);
        h_src = HashStep(got, h_src);
      }
      EXPECT_EQ(h_bare, h_src);
    }
  }
}

TEST(GeneratorTraceSourceTest, DestroyedBeforeFirstReadReturns) {
  ExpectReturnsWithin(
      [] {
        GeneratorTraceSource source(
            *TraceGenerator::Create(SmallTrace("pretrain-steady", false)));
      },
      kTeardownLimit);
}

TEST(GeneratorTraceSourceTest, DestroyedWithStepInFlightReturns) {
  for (const int reads : {1, 2, 5}) {
    SCOPED_TRACE(reads);
    ExpectReturnsWithin(
        [reads] {
          GeneratorTraceSource source(
              *TraceGenerator::Create(SmallTrace("pretrain-steady", false)));
          // After each read the worker builds the next step at once, so
          // the source is destroyed with that step in flight or waiting.
          for (int s = 0; s < reads; ++s) source.NextStep();
        },
        kTeardownLimit);
  }
}

TEST(GeneratorTraceSourceTest, RecordingKeepsOnlyConsumedSteps) {
  const TraceGeneratorOptions o = SmallTrace("pretrain-steady", false);
  TraceGenerator bare = *TraceGenerator::Create(o);
  RoutingTrace sink;
  {
    RecordingTraceSource recorder(
        std::unique_ptr<TraceSource>(
            new GeneratorTraceSource(*TraceGenerator::Create(o))),
        &sink);
    for (int s = 0; s < 3; ++s) recorder.NextStep();
    // Give the worker time to finish the step after the last one read; it
    // must not reach the sink.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_EQ(sink.num_steps(), 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(SameStep(sink.step(s), bare.Step())) << "step " << s;
  }
}

TEST(TopKGateTest, SampleEqualsLoopOfSampleRow) {
  for (const bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "multinomial");
    TopKGateOptions go;
    go.num_experts = 12;
    go.num_gpus = 5;
    go.top_k = 2;
    go.tokens_per_gpu = 300;
    go.exact_sampling = exact;
    const TopKGate gate = *TopKGate::Create(go);

    Rng logit_rng(3);
    Matrix<double> logits(go.num_gpus, go.num_experts);
    for (int g = 0; g < go.num_gpus; ++g) {
      for (int e = 0; e < go.num_experts; ++e) {
        logits.row(g)[e] = logit_rng.Normal(0.0, 1.5);
      }
    }

    Rng rng_whole(11), rng_rows(11);
    const Assignment whole = gate.Sample(logits, &rng_whole);
    Assignment rows(go.num_experts, go.num_gpus);
    for (int g = 0; g < go.num_gpus; ++g) {
      gate.SampleRow(logits.row(g), g, &rng_rows, &rows);
    }
    EXPECT_TRUE(SameCounts(whole, rows));
    // Same number of draws: both streams continue from the same state.
    EXPECT_EQ(rng_whole.Next(), rng_rows.Next());
  }
}

}  // namespace
}  // namespace flexmoe
