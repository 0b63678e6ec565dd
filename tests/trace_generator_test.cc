// Tests for the synthetic routing-trace generator: the paper's Section 2.4
// observations (skewness, smooth fluctuation, balance-loss pressure) must
// hold on generated traces.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "util/stats.h"

namespace flexmoe {
namespace {

TraceGeneratorOptions SmallOptions() {
  TraceGeneratorOptions o;
  o.num_experts = 64;
  o.num_moe_layers = 2;
  o.num_gpus = 8;
  o.tokens_per_gpu = 4096;
  o.seed = 7;
  return o;
}

TEST(TraceGeneratorOptionsTest, Validation) {
  TraceGeneratorOptions o = SmallOptions();
  EXPECT_TRUE(o.Validate().ok());
  o.ou_theta = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = SmallOptions();
  o.skew_top_share = 1.5;
  EXPECT_FALSE(o.Validate().ok());
  o = SmallOptions();
  o.balance_coef = -0.1;
  EXPECT_FALSE(o.Validate().ok());
  // A top count above num_experts is rejected, not left to abort in the
  // sigma calibration.
  o = SmallOptions();
  o.skew_top_count = o.num_experts + 1;
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_EQ(TraceGenerator::Create(o).status().code(),
            StatusCode::kInvalidArgument);
  o.skew_top_count = o.num_experts;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(CalibrateLogitSigmaTest, HitsTargetShare) {
  const double sigma = CalibrateLogitSigma(64, 10, 0.75, 11);
  EXPECT_GT(sigma, 0.5);
  EXPECT_LT(sigma, 5.0);
  // Verify by Monte Carlo at the calibrated sigma.
  Rng rng(12);
  double acc = 0.0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> logits(64);
    for (double& z : logits) z = rng.Normal(0.0, sigma);
    acc += TopKShare(Softmax(logits), 10);
  }
  EXPECT_NEAR(acc / trials, 0.75, 0.03);
}

TEST(CalibrateLogitSigmaTest, UniformTargetGivesZero) {
  EXPECT_EQ(CalibrateLogitSigma(64, 32, 0.5, 1), 0.0);
}

struct SigmaPin {
  int num_experts;
  int top_count;
  double target_share;
  uint64_t seed;
  double sigma;
};

// Bitwise pins of the calibrated logit sigma, captured from the
// Monte-Carlo calibration that re-drew its normals at every bisection
// step. Each E uses the generator's default top count round(E * 10 / 64)
// and the default 75% share; E = 64 and E = 512 are the train-shift and
// large-EP model sizes, and seeds 1000 and 4242000 are the first cells of
// the perfbench default and held-out runs. A rewrite that claims an
// identical sigma must never need to edit these values.
TEST(CalibrateLogitSigmaTest, BitwisePins) {
  const SigmaPin pins[] = {
      {8, 1, 0.75, 42u, 0x1.c1205fa2ecaep+1},
      {8, 1, 0.75, 1000u, 0x1.076b763692b1p+2},
      {8, 1, 0.75, 4242000u, 0x1.fa9570c5d472p+1},
      {64, 10, 0.75, 42u, 0x1.d3b08f3125ccp+0},
      {64, 10, 0.75, 1000u, 0x1.d9e0420be8a4p+0},
      {64, 10, 0.75, 4242000u, 0x1.d0800104648cp+0},
      {512, 80, 0.75, 42u, 0x1.b6049523c79cp+0},
      {512, 80, 0.75, 1000u, 0x1.b31e8196684cp+0},
      {512, 80, 0.75, 4242000u, 0x1.b1bbebdd54c4p+0},
      {1024, 160, 0.75, 42u, 0x1.b2415e8a071cp+0},
      {1024, 160, 0.75, 1000u, 0x1.b28de205ee4cp+0},
      {1024, 160, 0.75, 4242000u, 0x1.b17fa9b7e204p+0},
  };
  for (const SigmaPin& pin : pins) {
    EXPECT_EQ(CalibrateLogitSigma(pin.num_experts, pin.top_count,
                                  pin.target_share, pin.seed),
              pin.sigma)
        << "E " << pin.num_experts << " seed " << pin.seed;
  }
}

// Four threads calibrate the same keys at once, each in a different
// order, so the memo's miss path and each call's own buffers run
// concurrently (the ThreadSanitizer job runs this test). The keys appear
// in no other test, so every one of them starts as a memo miss.
TEST(CalibrateLogitSigmaTest, ConcurrentCallsMatchPins) {
  const std::vector<SigmaPin> pins = {
      {16, 3, 0.75, 7u, 0x1.f229727474e4p+0},
      {16, 3, 0.75, 8u, 0x1.0201b94bac26p+1},
      {32, 5, 0.75, 7u, 0x1.ef67f1427374p+0},
      {32, 5, 0.75, 8u, 0x1.f138b51ea6fcp+0},
      {48, 8, 0.75, 7u, 0x1.c889d135217cp+0},
      {48, 8, 0.75, 8u, 0x1.cde930c8e52cp+0},
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(
      kThreads, std::vector<double>(pins.size(), 0.0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pins, &got, t] {
      for (size_t i = 0; i < pins.size(); ++i) {
        const size_t k = (i + static_cast<size_t>(t)) % pins.size();
        const SigmaPin& pin = pins[k];
        got[static_cast<size_t>(t)][k] = CalibrateLogitSigma(
            pin.num_experts, pin.top_count, pin.target_share, pin.seed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < pins.size(); ++k) {
      EXPECT_EQ(got[static_cast<size_t>(t)][k], pins[k].sigma)
          << "thread " << t << " E " << pins[k].num_experts << " seed "
          << pins[k].seed;
    }
  }
}

TEST(TraceGeneratorTest, DeterministicBySeed) {
  auto gen1 = *TraceGenerator::Create(SmallOptions());
  auto gen2 = *TraceGenerator::Create(SmallOptions());
  for (int s = 0; s < 3; ++s) {
    const auto a = gen1.Step();
    const auto b = gen2.Step();
    ASSERT_EQ(a.size(), b.size());
    for (size_t l = 0; l < a.size(); ++l) {
      for (int e = 0; e < a[l].num_experts(); ++e) {
        for (int g = 0; g < a[l].num_gpus(); ++g) {
          ASSERT_EQ(a[l].at(e, g), b[l].at(e, g));
        }
      }
    }
  }
}

TEST(TraceGeneratorTest, TokenConservationEveryStep) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  const auto& o = gen.options();
  for (int s = 0; s < 5; ++s) {
    for (const Assignment& a : gen.Step()) {
      EXPECT_EQ(a.Total(),
                o.tokens_per_gpu * o.num_gpus * o.top_k);
    }
  }
}

TEST(TraceGeneratorTest, SkewnessMatchesFigure3a) {
  // Paper: top-10 of 64 experts receive ~75% of tokens.
  auto gen = *TraceGenerator::Create(SmallOptions());
  RunningStat top10;
  for (int s = 0; s < 40; ++s) {
    for (const Assignment& a : gen.Step()) {
      top10.Add(TopKShare(a.ExpertLoads(), 10));
    }
  }
  EXPECT_NEAR(top10.mean(), 0.75, 0.10);
}

TEST(TraceGeneratorTest, SmoothFluctuation) {
  // Consecutive steps must be strongly correlated (Fig. 3b: loads change
  // "smoothly and continuously"), yet the process must drift over long
  // horizons (routing fluctuation).
  TraceGeneratorOptions o = SmallOptions();
  o.num_moe_layers = 1;
  auto gen = *TraceGenerator::Create(o);

  std::vector<std::vector<double>> shares;
  for (int s = 0; s < 400; ++s) {
    const Assignment a = gen.Step()[0];
    std::vector<double> loads = a.ExpertLoads();
    const double total = static_cast<double>(a.Total());
    for (double& v : loads) v /= total;
    shares.push_back(std::move(loads));
  }

  auto l1_distance = [&](int i, int j) {
    double d = 0.0;
    for (size_t e = 0; e < shares[static_cast<size_t>(i)].size(); ++e) {
      d += std::abs(shares[static_cast<size_t>(i)][e] -
                    shares[static_cast<size_t>(j)][e]);
    }
    return d;
  };

  RunningStat adjacent, distant;
  for (int s = 0; s + 1 < 400; ++s) adjacent.Add(l1_distance(s, s + 1));
  for (int s = 0; s + 300 < 400; ++s) distant.Add(l1_distance(s, s + 300));
  // Long-horizon drift must dominate step-to-step jitter.
  EXPECT_GT(distant.mean(), 3.0 * adjacent.mean());
  // And step-to-step change must be small in absolute terms (smooth).
  EXPECT_LT(adjacent.mean(), 0.2);
}

TEST(TraceGeneratorTest, BalanceCoefReducesSkewOverTime) {
  TraceGeneratorOptions balanced = SmallOptions();
  balanced.balance_coef = 0.05;
  balanced.num_moe_layers = 1;
  TraceGeneratorOptions unbalanced = SmallOptions();
  unbalanced.balance_coef = 0.0;
  unbalanced.num_moe_layers = 1;

  auto gen_b = *TraceGenerator::Create(balanced);
  auto gen_u = *TraceGenerator::Create(unbalanced);
  // Run past the balance ramp (tau = 400 steps).
  RunningStat share_b, share_u;
  for (int s = 0; s < 1200; ++s) {
    const Assignment ab = gen_b.Step()[0];
    const Assignment au = gen_u.Step()[0];
    if (s >= 800) {
      share_b.Add(TopKShare(ab.ExpertLoads(), 10));
      share_u.Add(TopKShare(au.ExpertLoads(), 10));
    }
  }
  EXPECT_LT(share_b.mean(), share_u.mean() - 0.15);
}

TEST(TraceGeneratorTest, TargetSigmaRampsDown) {
  TraceGeneratorOptions o = SmallOptions();
  o.balance_coef = 0.01;
  auto gen = *TraceGenerator::Create(o);
  EXPECT_NEAR(gen.TargetSigma(0), gen.sigma0(), 1e-9);
  EXPECT_LT(gen.TargetSigma(2000), gen.sigma0());
  // Monotone decreasing toward the equilibrium.
  EXPECT_GT(gen.TargetSigma(100), gen.TargetSigma(1000));
}

TEST(TraceGeneratorTest, ZeroCoefKeepsSigma) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  EXPECT_DOUBLE_EQ(gen.TargetSigma(0), gen.sigma0());
  EXPECT_DOUBLE_EQ(gen.TargetSigma(100000), gen.sigma0());
}

TEST(TraceGeneratorTest, PerGpuHeterogeneity) {
  // Different GPUs route differently for the same expert (Fig. 1b).
  auto gen = *TraceGenerator::Create(SmallOptions());
  const Assignment a = gen.Step()[0];
  bool any_diff = false;
  for (int e = 0; e < a.num_experts() && !any_diff; ++e) {
    for (int g = 1; g < a.num_gpus(); ++g) {
      if (a.at(e, g) != a.at(e, 0)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// --- RoutingTrace ---------------------------------------------------------

TEST(RoutingTraceTest, AppendValidatesShapes) {
  RoutingTrace trace;
  std::vector<Assignment> step1;
  step1.emplace_back(4, 2);
  EXPECT_TRUE(trace.Append(std::move(step1)).ok());

  std::vector<Assignment> bad_layers;
  bad_layers.emplace_back(4, 2);
  bad_layers.emplace_back(4, 2);
  EXPECT_FALSE(trace.Append(std::move(bad_layers)).ok());

  std::vector<Assignment> bad_shape;
  bad_shape.emplace_back(8, 2);
  EXPECT_FALSE(trace.Append(std::move(bad_shape)).ok());
  EXPECT_FALSE(trace.Append({}).ok());
}

TEST(RoutingTraceTest, CdfAndSeries) {
  RoutingTrace trace;
  std::vector<Assignment> step;
  Assignment a(3, 1);
  a.set(0, 0, 60);
  a.set(1, 0, 30);
  a.set(2, 0, 10);
  step.push_back(a);
  ASSERT_TRUE(trace.Append(std::move(step)).ok());

  const auto cdf = trace.ExpertLoadCdf(0, 0);
  EXPECT_NEAR(cdf[0], 0.6, 1e-12);
  EXPECT_NEAR(cdf[1], 0.9, 1e-12);

  const auto series = trace.ExpertShareSeries(0);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_NEAR(series[0][0], 0.6, 1e-12);
}

TEST(RoutingTraceTest, SaveLoadRoundtrip) {
  auto gen = *TraceGenerator::Create(SmallOptions());
  RoutingTrace trace;
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(trace.Append(gen.Step()).ok());
  }
  const std::string path = testing::TempDir() + "/trace.bin";
  ASSERT_TRUE(trace.Save(path).ok());
  const RoutingTrace loaded = *RoutingTrace::Load(path);
  ASSERT_EQ(loaded.num_steps(), trace.num_steps());
  ASSERT_EQ(loaded.num_layers(), trace.num_layers());
  for (int s = 0; s < trace.num_steps(); ++s) {
    for (int l = 0; l < trace.num_layers(); ++l) {
      const Assignment& x = trace.at(s, l);
      const Assignment& y = loaded.at(s, l);
      for (int e = 0; e < x.num_experts(); ++e) {
        for (int g = 0; g < x.num_gpus(); ++g) {
          ASSERT_EQ(x.at(e, g), y.at(e, g));
        }
      }
    }
  }
}

TEST(RoutingTraceTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a trace", f);
  fclose(f);
  EXPECT_FALSE(RoutingTrace::Load(path).ok());
  EXPECT_FALSE(RoutingTrace::Load("/nonexistent/path").ok());
}

}  // namespace
}  // namespace flexmoe
