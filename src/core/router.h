// Flexible token routing (paper Algorithm 3).
//
// Given the gate's assignment I (tokens per expert per source GPU) and the
// current placement P, decide which replica processes each token:
//   1. capacity per vExpert of expert e is cap_e = ceil(I_e / n_e) — even
//      partitioning across the expert's vExperts (Section 3.2);
//   2. locality first: tokens stay on their source GPU up to the local
//      replica quota (cap_e x n_{e,g});
//   3. the remainder spills to other replicas proportionally to their
//      remaining available capacity.
// Routing never drops or invents tokens (token conservation is property-
// tested in router_test.cc).

#ifndef FLEXMOE_CORE_ROUTER_H_
#define FLEXMOE_CORE_ROUTER_H_

#include <cstdint>
#include <vector>

#include "moe/moe_layer.h"
#include "placement/placement.h"
#include "util/matrix.h"

namespace flexmoe {

/// \brief The routing outcome for one MoE layer at one step.
struct RoutedAssignment {
  int num_experts = 0;
  int num_gpus = 0;

  /// expert_gpu_tokens[e][g]: tokens of expert e computed on GPU g.
  Matrix<int64_t> expert_gpu_tokens;

  /// dispatch_to[dst][src]: tokens moved from source GPU src to compute
  /// GPU dst (src == dst entries are device-local). Stored destination-
  /// major because both hot loops walk a fixed destination across all
  /// sources: the router's spill writes (every spilling source sends to
  /// one of the expert's few hosts) and Eq. 8's inbound fold. Source-major
  /// storage made each of those a G-stride scatter — at G = 512 one fresh
  /// cacheline+TLB line per source, the dominant cost of a re-route.
  Matrix<int64_t> dispatch_to;

  /// Convenience accessors in (src, dst) order.
  int64_t dispatch(GpuId src, GpuId dst) const { return dispatch_to(dst, src); }
  int64_t& dispatch(GpuId src, GpuId dst) { return dispatch_to(dst, src); }

  /// Optional hierarchical aggregation (DESIGN.md Section 10): when
  /// `node_of` is non-empty (size num_gpus), routing additionally
  /// maintains node_dispatch_to[dst][n] == sum of dispatch(src, dst) over
  /// the sources on node n. Pure integer bookkeeping, so it commutes
  /// exactly with FlexibleRouter::AccumulateExpert — the aggregates always
  /// equal a from-scratch fold of the dispatch matrix.
  std::vector<int> node_of;
  int num_nodes = 0;
  Matrix<int64_t> node_dispatch_to;

  int64_t node_dispatch(NodeId node, GpuId dst) const {
    return node_dispatch_to(dst, node);
  }

  /// Turns per-node aggregation on for this routing. If a dispatch matrix
  /// is already populated, the aggregates are rebuilt from it; otherwise
  /// the next RouteInto sizes and fills them.
  void EnableNodeAggregation(const Topology& topo);
  void DisableNodeAggregation();

  /// Tokens of expert computation landing on each GPU.
  std::vector<int64_t> PerGpuComputeTokens() const;
  void PerGpuComputeTokensInto(std::vector<int64_t>* out) const;
  std::vector<double> PerGpuComputeLoads() const;

  /// Total routed tokens (== I.Total() for lossless routing).
  int64_t Total() const;

  /// Tokens that crossed GPUs (dispatch off-diagonal mass).
  int64_t CrossGpuTokens() const;
};

/// \brief One cell of an expert's routing: `tokens` tokens from source GPU
/// `src` computed on GPU `dst` (src == dst for the locality-first claim).
struct RoutedCell {
  GpuId dst = -1;
  GpuId src = -1;
  int64_t tokens = 0;
};

/// \brief Stateless implementation of Algorithm 3.
class FlexibleRouter {
 public:
  /// Routes `assignment` under `placement`. Requires matching shapes.
  static RoutedAssignment Route(const Assignment& assignment,
                                const Placement& placement);

  /// Routes into caller-owned scratch, reusing its matrix allocations —
  /// the allocation-free steady-state form of Route (scratch-ownership
  /// rules: DESIGN.md "Performance architecture"). Preserves `out`'s node
  /// aggregation setting.
  static void RouteInto(const Assignment& assignment,
                        const Placement& placement, RoutedAssignment* out);

  /// Adds (`sign` = +1) or removes (`sign` = -1) expert `e`'s routing
  /// contribution to/from `out`. Each expert routes independently of the
  /// others (its quota/avail/spill state is per-expert), so
  ///   Route(A, P')  ==  Route(A, P)
  ///                     - contributions of changed experts under P
  ///                     + contributions of changed experts under P'
  /// holds EXACTLY (integer arithmetic). The Policy Maker uses this to
  /// evaluate candidate placements that touch two experts without paying a
  /// full O(E x G^2) re-route per candidate.
  static void AccumulateExpert(const Assignment& assignment,
                               const Placement& placement, int expert,
                               int sign, RoutedAssignment* out);

  /// AccumulateExpert with sign -1 that also records the retracted cells
  /// into `*cells` (reusing its capacity) when the expert spills over
  /// three or more destinations — Alg. 3's general path, the one whose
  /// per-source proportional split and remainder sort make a re-route
  /// expensive. Returns whether it recorded; an expert routed by the one-
  /// or two-destination fast paths (or without spill), or whose record
  /// would exceed `max_cells` cells, records nothing.
  static bool RetractExpertRecording(const Assignment& assignment,
                                     const Placement& placement, int expert,
                                     RoutedAssignment* out,
                                     std::vector<RoutedCell>* cells,
                                     size_t max_cells);

  /// Subtracts a RetractExpertRecording record of `expert` from `out`: the
  /// exact (integer) retraction of the expert's routing, without running
  /// Alg. 3, valid while the expert's assignment and placement rows are
  /// those the record was taken under.
  static void RetractCells(int expert, const std::vector<RoutedCell>& cells,
                           RoutedAssignment* out);
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_ROUTER_H_
