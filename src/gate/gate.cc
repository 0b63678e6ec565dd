#include "gate/gate.h"

#include <algorithm>
#include <cmath>

namespace flexmoe {

void SoftmaxInto(const double* logits, int n, double* out) {
  FLEXMOE_CHECK(n > 0);
  double m = logits[0];
  for (int i = 1; i < n; ++i) m = std::max(m, logits[i]);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    out[i] = std::exp(logits[i] - m);
    total += out[i];
  }
  // Division, not reciprocal-multiply: every pinned gate stream and golden
  // was produced with it, and the two round differently.
  for (int i = 0; i < n; ++i) out[i] /= total;
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  FLEXMOE_CHECK(!logits.empty());
  std::vector<double> probs(logits.size());
  SoftmaxInto(logits.data(), static_cast<int>(logits.size()), probs.data());
  return probs;
}

Status TopKGateOptions::Validate() const {
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (top_k <= 0 || top_k > num_experts) {
    return Status::InvalidArgument("top_k out of range");
  }
  if (tokens_per_gpu <= 0) {
    return Status::InvalidArgument("tokens_per_gpu <= 0");
  }
  return Status::OK();
}

TopKGate::TopKGate(const TopKGateOptions& options)
    : options_(options),
      probs_scratch_(static_cast<size_t>(options.num_experts)),
      round_scratch_(static_cast<size_t>(options.num_experts)),
      counts_scratch_(static_cast<size_t>(options.num_experts)),
      alias_prob_scratch_(static_cast<size_t>(options.num_experts)),
      alias_idx_scratch_(static_cast<size_t>(options.num_experts)),
      alias_work_scratch_(static_cast<size_t>(options.num_experts)),
      alias_work2_scratch_(static_cast<size_t>(options.num_experts)),
      chosen_scratch_(static_cast<size_t>(options.top_k)) {}

Result<TopKGate> TopKGate::Create(const TopKGateOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  return TopKGate(options);
}

Assignment TopKGate::Sample(const Matrix<double>& gpu_logits,
                            Rng* rng) const {
  FLEXMOE_CHECK(gpu_logits.rows() == options_.num_gpus);
  FLEXMOE_CHECK(gpu_logits.cols() == options_.num_experts);
  Assignment out(options_.num_experts, options_.num_gpus);
  for (int g = 0; g < options_.num_gpus; ++g) {
    SampleRow(gpu_logits.row(g), g, rng, &out);
  }
  return out;
}

void TopKGate::SampleRow(const double* logits, int gpu, Rng* rng,
                         Assignment* out) const {
  FLEXMOE_CHECK(gpu >= 0 && gpu < options_.num_gpus);
  FLEXMOE_CHECK(out->num_experts() == options_.num_experts &&
                out->num_gpus() == options_.num_gpus);
  if (options_.exact_sampling) {
    SampleExact(logits, gpu, rng, out);
  } else {
    SoftmaxInto(logits, options_.num_experts, probs_scratch_.data());
    SampleMultinomial(probs_scratch_.data(), gpu, rng, out);
  }
}

Assignment TopKGate::Sample(const std::vector<std::vector<double>>& gpu_logits,
                            Rng* rng) const {
  FLEXMOE_CHECK(static_cast<int>(gpu_logits.size()) == options_.num_gpus);
  Matrix<double> flat(options_.num_gpus, options_.num_experts);
  for (int g = 0; g < options_.num_gpus; ++g) {
    const auto& row = gpu_logits[static_cast<size_t>(g)];
    FLEXMOE_CHECK(static_cast<int>(row.size()) == options_.num_experts);
    std::copy(row.begin(), row.end(), flat.row(g));
  }
  return Sample(flat, rng);
}

namespace {

/// Exact marginal of the SECOND choice under without-replacement top-k:
/// P(e second) = sum_{f != e} p_f * p_e / (1 - p_f)
///             = p_e * (S - p_e / (1 - p_e)),  S = sum_f p_f / (1 - p_f).
/// Allocation-free: writes into `out` (size n; must not alias `probs`).
void SecondChoiceMarginalInto(const double* probs, int n, double* out) {
  constexpr double kEps = 1e-12;
  double s = 0.0;
  for (int e = 0; e < n; ++e) s += probs[e] / std::max(kEps, 1.0 - probs[e]);
  double total = 0.0;
  for (int e = 0; e < n; ++e) {
    const double q =
        probs[e] * std::max(0.0, s - probs[e] / std::max(kEps, 1.0 - probs[e]));
    out[e] = q;
    total += q;
  }
  if (total <= 0.0) {
    for (int e = 0; e < n; ++e) out[e] = probs[e];
    return;
  }
  for (int e = 0; e < n; ++e) out[e] /= total;
}

}  // namespace

void TopKGate::SampleMultinomial(const double* probs, int gpu, Rng* rng,
                                 Assignment* out) const {
  // Round 1 samples from the gate distribution itself; round 2 samples
  // from the exact second-choice marginal of without-replacement top-k.
  // Rounds beyond 2 (the paper uses Top-2 everywhere) reuse the round-2
  // marginal — a documented approximation.
  const int n = options_.num_experts;
  const double* current = probs;
  for (int round = 0; round < options_.top_k; ++round) {
    rng->MultinomialInto(options_.tokens_per_gpu, current, n,
                         counts_scratch_.data());
    for (int e = 0; e < n; ++e) {
      const int64_t c = counts_scratch_[static_cast<size_t>(e)];
      if (c > 0) out->add(e, gpu, c);
    }
    if (round == 0 && options_.top_k > 1) {
      SecondChoiceMarginalInto(probs, n, round_scratch_.data());
      current = round_scratch_.data();
    }
  }
}

void TopKGate::SampleExact(const double* logits, int gpu, Rng* rng,
                           Assignment* out) const {
  // Exact without-replacement top-k without the per-token O(E) Gumbel
  // sweep: Gumbel top-k is distributionally identical to Plackett-Luce
  // sequential sampling (draw from softmax(p), remove, repeat), so each
  // token costs k alias-table draws (plus rejection of already-chosen
  // experts) instead of E Gumbel perturbations + a partial sort. The
  // distribution is exact for every k — gate_sampler_test.cc chi-squares
  // it against the closed-form top-2 marginal.
  const int k = options_.top_k;
  const int n = options_.num_experts;
  double* probs = probs_scratch_.data();
  SoftmaxInto(logits, n, probs);

  // Vose alias-table construction: O(E) once per (GPU, step), amortized
  // over tokens_per_gpu draws.
  double* ap = alias_prob_scratch_.data();
  int* alias = alias_idx_scratch_.data();
  int* small_stack = alias_work_scratch_.data();
  int* large_stack = alias_work2_scratch_.data();
  int ns = 0, nl = 0;
  for (int e = 0; e < n; ++e) {
    ap[e] = probs[e] * static_cast<double>(n);
    alias[e] = e;
    if (ap[e] < 1.0) {
      small_stack[ns++] = e;
    } else {
      large_stack[nl++] = e;
    }
  }
  while (ns > 0 && nl > 0) {
    const int s = small_stack[--ns];
    const int l = large_stack[--nl];
    alias[s] = l;
    ap[l] = (ap[l] + ap[s]) - 1.0;
    if (ap[l] < 1.0) {
      small_stack[ns++] = l;
    } else {
      large_stack[nl++] = l;
    }
  }
  while (nl > 0) ap[large_stack[--nl]] = 1.0;
  while (ns > 0) ap[small_stack[--ns]] = 1.0;

  int64_t* counts = counts_scratch_.data();
  std::fill(counts, counts + n, 0);
  int* chosen = chosen_scratch_.data();
  for (int64_t t = 0; t < options_.tokens_per_gpu; ++t) {
    int picked = 0;
    while (picked < k) {
      int e = -1;
      // Rejection-sample an unchosen expert from the alias table; under
      // heavy skew (a chosen expert holding most of the mass) fall back
      // to an exact CDF walk over the remaining experts.
      for (int tries = 0; tries < 32; ++tries) {
        const int i = static_cast<int>(
            rng->UniformInt(static_cast<uint64_t>(n)));
        const int cand = rng->Uniform() < ap[i] ? i : alias[i];
        bool dup = false;
        for (int j = 0; j < picked; ++j) dup = dup || chosen[j] == cand;
        if (!dup) {
          e = cand;
          break;
        }
      }
      if (e < 0) {
        double remaining = 1.0;
        for (int j = 0; j < picked; ++j) remaining -= probs[chosen[j]];
        double u = rng->Uniform() * std::max(remaining, 1e-300);
        for (int cand = 0; cand < n; ++cand) {
          bool dup = false;
          for (int j = 0; j < picked; ++j) dup = dup || chosen[j] == cand;
          if (dup) continue;
          u -= probs[cand];
          e = cand;
          if (u < 0.0) break;
        }
      }
      chosen[picked] = e;
      ++picked;
      ++counts[e];
    }
  }
  // One Assignment update per expert instead of one per token-choice.
  for (int e = 0; e < n; ++e) {
    if (counts[e] > 0) out->add(e, gpu, counts[e]);
  }
}

}  // namespace flexmoe
