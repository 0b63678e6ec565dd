// Top-K gate simulation: converts per-GPU expert logits into the routing
// count matrix I[e][g]. Two sampling modes:
//  * count-level multinomial (fast; used for full training runs), and
//  * exact per-token without-replacement top-k (slower; used by tests to
//    validate the multinomial approximation).
//
// The MoE system never inspects token values — only routing counts — so a
// count-accurate gate exercises exactly the code paths the paper's system
// optimizes.
//
// Sampling is allocation-free per call: the gate owns scratch buffers that
// are reused across Sample() invocations. A TopKGate instance is therefore
// NOT safe for concurrent Sample() calls — give each thread (each grid
// cell) its own gate, as the experiment harness does. Each mode has one
// sampler; gate_sampler_test.cc pins both streams by fingerprint and
// chi-squares them against the closed-form top-2 marginal.

#ifndef FLEXMOE_GATE_GATE_H_
#define FLEXMOE_GATE_GATE_H_

#include <vector>

#include "moe/moe_layer.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Numerically stable softmax.
std::vector<double> Softmax(const std::vector<double>& logits);

/// \brief Allocation-free softmax into a caller-provided buffer (`out` may
/// alias `logits`). `n` > 0 elements.
void SoftmaxInto(const double* logits, int n, double* out);

/// \brief Gate configuration.
struct TopKGateOptions {
  int num_experts = 64;
  int num_gpus = 64;
  int top_k = 2;
  int64_t tokens_per_gpu = 8192;
  /// Exact per-token top-k sampling instead of multinomial counts.
  bool exact_sampling = false;

  Status Validate() const;
};

/// \brief Samples routing counts from per-GPU logits.
class TopKGate {
 public:
  static Result<TopKGate> Create(const TopKGateOptions& options);

  /// \param gpu_logits one row of logits (size num_experts) per GPU.
  /// Produces an Assignment whose total equals tokens_per_gpu x num_gpus x
  /// top_k (every token yields exactly top_k expert assignments).
  Assignment Sample(const Matrix<double>& gpu_logits, Rng* rng) const;

  /// Nested-vector convenience overload (tests, examples).
  Assignment Sample(const std::vector<std::vector<double>>& gpu_logits,
                    Rng* rng) const;

  /// Samples GPU `gpu`'s row: `logits` holds num_experts values and the
  /// routed counts are added to column `gpu` of `out` (num_experts x
  /// num_gpus). Sample() is this call for each GPU in order, so a caller
  /// that forms one row at a time draws the identical stream.
  void SampleRow(const double* logits, int gpu, Rng* rng,
                 Assignment* out) const;

  const TopKGateOptions& options() const { return options_; }

 private:
  explicit TopKGate(const TopKGateOptions& options);

  void SampleMultinomial(const double* probs, int gpu, Rng* rng,
                         Assignment* out) const;
  void SampleExact(const double* logits, int gpu, Rng* rng,
                   Assignment* out) const;

  TopKGateOptions options_;

  // Per-call scratch (see header comment: one gate per thread). Sized once
  // at construction (to num_experts, or top_k for the chosen set); mutable
  // because Sample() is logically const.
  mutable std::vector<double> probs_scratch_;
  mutable std::vector<double> round_scratch_;
  mutable std::vector<int64_t> counts_scratch_;
  // Alias-table scratch for the exact sampler (Vose construction).
  mutable std::vector<double> alias_prob_scratch_;
  mutable std::vector<int> alias_idx_scratch_;
  mutable std::vector<int> alias_work_scratch_;
  mutable std::vector<int> alias_work2_scratch_;
  // The experts one token has already picked (exact sampler).
  mutable std::vector<int> chosen_scratch_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_GATE_H_
