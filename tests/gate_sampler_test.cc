// Tests of the gate's two samplers (count-level multinomial and exact
// per-token top-k):
//
//  * both streams are pinned by fingerprint (GateSamplerPinTest), so a
//    change in the draws or in how many the gate consumes shows;
//  * both match the closed-form top-2 marginal on skewed logits
//    (chi-squared), and the exact sampler conserves tokens, never picks an
//    expert twice for one token at any top_k, and is seeded-deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gate/gate.h"
#include "gate/trace_generator.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

std::vector<std::vector<double>> SkewedLogits(int gpus, int experts,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> logits(
      static_cast<size_t>(gpus),
      std::vector<double>(static_cast<size_t>(experts)));
  for (auto& row : logits) {
    for (double& z : row) z = rng.Normal(0.0, 1.2);
  }
  return logits;
}

TopKGateOptions BaseOptions(bool exact) {
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 4;
  o.top_k = 2;
  o.tokens_per_gpu = exact ? 2048 : 20000;
  o.exact_sampling = exact;
  return o;
}

bool Identical(const Assignment& a, const Assignment& b) {
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

TEST(GateSamplerEquivalenceTest, ExactConservesAndIsDeterministic) {
  const auto logits = SkewedLogits(4, 16, 12);
  const TopKGate fast = *TopKGate::Create(BaseOptions(true));
  Rng r1(7), r2(7);
  const Assignment a = fast.Sample(logits, &r1);
  const Assignment b = fast.Sample(logits, &r2);
  // Seeded determinism and exact token conservation (top_k per token).
  EXPECT_TRUE(Identical(a, b));
  EXPECT_EQ(a.Total(), 4 * 2048 * 2);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(a.GpuTotal(g), 2048 * 2);
}

TEST(GateSamplerEquivalenceTest, ExactTopKLargerThanTwoConserves) {
  TopKGateOptions o = BaseOptions(true);
  o.top_k = 4;
  o.tokens_per_gpu = 512;
  const auto logits = SkewedLogits(4, 16, 13);
  Rng r1(9);
  const Assignment a = (*TopKGate::Create(o)).Sample(logits, &r1);
  EXPECT_EQ(a.Total(), 4 * 512 * 4);
}

TEST(GateSamplerEquivalenceTest, ExactNeverPicksSameExpertTwicePerToken) {
  // With top_k == num_experts every token must pick every expert exactly
  // once — any duplicate pick in the sequential sampler would break this.
  // 12 experts exercises a chosen set larger than 8.
  for (const int experts : {6, 12}) {
    TopKGateOptions o;
    o.num_experts = experts;
    o.num_gpus = 2;
    o.top_k = experts;
    o.tokens_per_gpu = 300;
    o.exact_sampling = true;
    const TopKGate gate = *TopKGate::Create(o);
    const auto logits = SkewedLogits(2, experts, 17);
    Rng r(5);
    const Assignment a = gate.Sample(logits, &r);
    for (int e = 0; e < experts; ++e) {
      for (int g = 0; g < 2; ++g) {
        EXPECT_EQ(a.at(e, g), 300) << "experts " << experts << " e " << e;
      }
    }
  }
}

/// Expected top-2 expert totals for `tokens` tokens routed from one row of
/// logits: T * (p_e + sum_{f != e} p_f * p_e / (1 - p_f)), the first-choice
/// probability plus the without-replacement second-choice marginal.
/// Computed here from the definition, independently of the gate.
std::vector<double> TopTwoExpectedCounts(const std::vector<double>& logits,
                                         double tokens) {
  const size_t n = logits.size();
  double max_logit = logits[0];
  for (double z : logits) max_logit = std::max(max_logit, z);
  std::vector<double> p(n);
  double total = 0.0;
  for (size_t e = 0; e < n; ++e) {
    p[e] = std::exp(logits[e] - max_logit);
    total += p[e];
  }
  for (double& x : p) x /= total;
  std::vector<double> expected(n);
  for (size_t e = 0; e < n; ++e) {
    double second = 0.0;
    for (size_t f = 0; f < n; ++f) {
      if (f != e) second += p[f] * p[e] / (1.0 - p[f]);
    }
    expected[e] = tokens * (p[e] + second);
  }
  return expected;
}

/// Pearson chi-squared of a one-GPU sample's expert totals against the
/// closed-form top-2 expectation.
double TopTwoChiSquared(const TopKGateOptions& o,
                        const std::vector<double>& logits, uint64_t seed) {
  const TopKGate gate = *TopKGate::Create(o);
  Rng r(seed);
  const Assignment got = gate.Sample({logits}, &r);
  const std::vector<double> expected =
      TopTwoExpectedCounts(logits, static_cast<double>(o.tokens_per_gpu));
  double chi2 = 0.0;
  for (int e = 0; e < o.num_experts; ++e) {
    const double exp_count = expected[static_cast<size_t>(e)];
    if (exp_count < 1.0) continue;
    const double diff = static_cast<double>(got.ExpertTotal(e)) - exp_count;
    chi2 += diff * diff / exp_count;
  }
  return chi2;
}

// Chi-squared goodness-of-fit of each sampler's expert totals against the
// closed-form top-2 marginal. With 15 degrees of freedom, chi2 < 40 holds
// with overwhelming probability for a correct sampler (p ~ 4e-4 at 40).
TEST(GateSamplerEquivalenceTest, MultinomialChiSquaredVsClosedForm) {
  TopKGateOptions o = BaseOptions(false);
  o.num_gpus = 1;
  EXPECT_LT(TopTwoChiSquared(o, SkewedLogits(1, 16, 14)[0], 999), 40.0);
  // One expert holding over 40% of the mass: a second round drawn with
  // replacement from p would give it about p_e more second choices than
  // the without-replacement marginal, far past the bound.
  std::vector<double> dominant = SkewedLogits(1, 16, 14)[0];
  dominant[0] = *std::max_element(dominant.begin(), dominant.end()) + 2.0;
  ASSERT_GT(Softmax(dominant)[0], 0.4);
  EXPECT_LT(TopTwoChiSquared(o, dominant, 999), 40.0);
}

TEST(GateSamplerEquivalenceTest, ExactChiSquaredVsClosedForm) {
  TopKGateOptions o = BaseOptions(true);
  o.num_gpus = 1;
  o.tokens_per_gpu = 4096;
  EXPECT_LT(TopTwoChiSquared(o, SkewedLogits(1, 16, 15)[0], 888), 40.0);
}

// Fingerprints of the gate's sampled streams: the counts of every
// Assignment plus the RNG word that follows, so a change in either the
// draws or their number shows. The digests were captured from the gate
// that still carried the pre-optimization sampler and its per-token
// Gumbel fallback for top_k > 8; a change that claims identical gate
// output must never need to edit these case bodies.

/// FNV-1a over the raw bytes of each folded value.
class Fnv {
 public:
  template <typename T>
  void Add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void FoldAssignment(const Assignment& a, Fnv* h) {
  h->Add(a.num_experts());
  h->Add(a.num_gpus());
  for (int e = 0; e < a.num_experts(); ++e) {
    for (int g = 0; g < a.num_gpus(); ++g) h->Add(a.at(e, g));
  }
}

/// Digest of one Sample() per seed, each followed by the next raw draw.
uint64_t SampleDigest(const TopKGateOptions& o, uint64_t logit_seed,
                      uint64_t seed) {
  const auto logits = SkewedLogits(o.num_gpus, o.num_experts, logit_seed);
  const TopKGate gate = *TopKGate::Create(o);
  Rng r(seed);
  Fnv h;
  FoldAssignment(gate.Sample(logits, &r), &h);
  h.Add(r.Next());
  return h.hash();
}

TEST(GateSamplerPinTest, MultinomialSeedsOneToFive) {
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 4;
  o.top_k = 2;
  o.tokens_per_gpu = 20000;
  const uint64_t expected[5] = {0x550e8c205dd2689aull, 0x88a43be8f02edb9dull,
                                0x051c3969422679b6ull, 0x04f6e1ce8ee32f45ull,
                                0xc1d071bd85228e4aull};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_EQ(SampleDigest(o, 11, seed), expected[seed - 1])
        << "seed " << seed << " got 0x" << std::hex
        << SampleDigest(o, 11, seed);
  }
}

TEST(GateSamplerPinTest, ExactTopKTwoFourAndEight) {
  TopKGateOptions o;
  o.num_experts = 16;
  o.num_gpus = 4;
  o.tokens_per_gpu = 512;
  o.exact_sampling = true;
  const int top_ks[3] = {2, 4, 8};
  // Indexed [top_k][seed - 1].
  const uint64_t expected[3][3] = {
      {0x98809c15756fe4ccull, 0x858c154a772aff1aull, 0x006f9039089b1f3bull},
      {0x50d20074dafb8b1dull, 0x57af808ad1366e7full, 0x462c610076bf93bbull},
      {0xc7707073ad0a8a5aull, 0x019c59f2715d1443ull, 0x664cdc29f7c44065ull}};
  for (int i = 0; i < 3; ++i) {
    o.top_k = top_ks[i];
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      EXPECT_EQ(SampleDigest(o, 12, seed), expected[i][seed - 1])
          << "top_k " << o.top_k << " seed " << seed << " got 0x" << std::hex
          << SampleDigest(o, 12, seed);
    }
  }
}

TEST(GateSamplerPinTest, TraceGeneratorTenSteps) {
  TraceGeneratorOptions t;
  t.num_experts = 32;
  t.num_moe_layers = 2;
  t.num_gpus = 8;
  t.tokens_per_gpu = 2048;
  t.balance_coef = 0.001;
  t.seed = 21;
  TraceGenerator gen = *TraceGenerator::Create(t);
  Fnv h;
  for (int s = 0; s < 10; ++s) {
    for (const Assignment& a : gen.Step()) FoldAssignment(a, &h);
  }
  EXPECT_EQ(h.hash(), 0xc1dd1d74481737f5ull)
      << "got 0x" << std::hex << h.hash();
}

TEST(GateSamplerEquivalenceTest, SoftmaxIntoMatchesVectorSoftmax) {
  const std::vector<double> logits = {0.3, -1.2, 5.0, 0.0, 2.5};
  const std::vector<double> expect = Softmax(logits);
  std::vector<double> got(logits.size());
  SoftmaxInto(logits.data(), static_cast<int>(logits.size()), got.data());
  for (size_t i = 0; i < logits.size(); ++i) {
    EXPECT_EQ(expect[i], got[i]);  // bit-identical, not just near
  }
}

}  // namespace
}  // namespace flexmoe
