// Incremental Eq. 5 cost maintenance (DESIGN.md Section 10).
//
// The Policy Maker's candidate search evaluates placements that differ from
// the incumbent by one ModOp — one or two experts move. A from-scratch
// Eq. 5 evaluation pays O(E*G + G^2) per candidate; LayerCostState caches
// the per-GPU compute / All-to-All / sync partial sums and the routed token
// matrix, and re-derives only the GPUs an op actually touches, so a
// candidate costs O(|affected GPUs| * G) integer work plus an O(log G)
// tournament update for the outer max. At the large-EP scale the ROADMAP
// targets (G = E = 512-1024, one expert per GPU) an op touches a handful of
// GPUs and candidate scoring drops from milliseconds to microseconds.
//
// Exactness argument (the PR 2 precedent, extended):
//  * Routing deltas are integer: FlexibleRouter::AccumulateExpert(+1/-1)
//    cancels exactly, so the cached token matrices equal a from-scratch
//    Route of the current placement bitwise at every depth.
//  * A retraction may replay recorded cells instead of re-routing: an
//    expert on the router's general multi-destination path records the
//    cells it retracts, and a later retraction under the same placement
//    stamp (Apply assigns a fresh stamp, Undo restores the old one, so
//    equal stamps mean an identical placement row) subtracts exactly those
//    integers — the same cancellation without running Alg. 3 again.
//    Records live in a few LRU slots of capped size (DESIGN.md §10.1).
//  * Per-GPU float sums are never delta-adjusted (FP addition is order-
//    dependent and not reversible). An affected GPU's compute/a2a/sync
//    terms are recomputed from scratch in the same canonical ascending-
//    expert / ascending-source order CostModel::EstimateLayer uses, from
//    bitwise-identical integer inputs — hence bitwise-identical sums.
//  * max is associative and commutative for non-NaN doubles, so the
//    tournament root equals std::max_element over the per-GPU totals.
//  * Undo restores the op's saved integer rows (expert token rows plus the
//    affected destinations' dispatch/node-dispatch rows) and re-applies the
//    inverse placement mutation, then recomputes the affected floats;
//    because every cached float is a pure function of the (restored)
//    integer state, undo restores the initial state bitwise — without
//    paying the two routing walks a re-derivation would cost.
//
// The invariants are pinned by tests/incremental_cost_test.cc (randomized
// Apply/Undo sequences vs from-scratch EstimateLayer, exact comparison).

#ifndef FLEXMOE_CORE_INCREMENTAL_COST_H_
#define FLEXMOE_CORE_INCREMENTAL_COST_H_

#include <optional>
#include <set>
#include <vector>

#include "core/cost_model.h"
#include "placement/primitives.h"

namespace flexmoe {

/// \brief Search score for a candidate placement: the 8-norm of per-GPU
/// layer times. It upper-bounds and closely tracks the Eq. 5 max, but
/// unlike the bare max it strictly rewards relieving ANY heavily loaded
/// GPU (see PolicyMaker). Always evaluated left-to-right over all GPUs —
/// the sum is order-dependent in FP, so it is deliberately not maintained
/// incrementally; at 4 flops per GPU it is never the bottleneck.
double Score8Norm(const std::vector<double>& per_gpu_seconds);

/// \brief Cached Eq. 5 state for one (assignment, placement) pair with
/// O(Δ)-cost ApplyOp / Undo.
///
/// The state owns a private Placement copy that it mutates in lock-step
/// with the op stack; the Assignment is borrowed and must outlive every
/// use between Reset calls. Not thread-safe; one instance per search loop
/// (the scratch-ownership rules of DESIGN.md "Performance architecture").
class LayerCostState {
 public:
  /// Cap on one recorded retraction, in routed cells. An expert whose
  /// retraction would record more re-routes instead of replaying.
  static constexpr size_t kMaxRetractCells = 1024;

  /// `include_sync` = false drops the Eq. 9 replica-sync term — the
  /// serving objective (PolicyMakerOptions::serve_objective).
  LayerCostState(const CostModel* cost_model, bool include_sync);

  /// Full canonical rebuild against a new workload/placement. O(E*G + G^2).
  void Reset(const Assignment& assignment, const Placement& placement);

  /// Reset that takes over `*routed` — FlexibleRouter's routing of exactly
  /// (assignment, placement), built without node aggregation — instead of
  /// routing again: the routed matrices are swapped in, then node
  /// aggregation is enabled or disabled as Reset does. `*routed` is left
  /// holding this state's previous buffers, fit only as RouteInto scratch.
  /// The Scheduler uses it to route once per trigger (DESIGN.md §10.1).
  void Reset(const Assignment& assignment, const Placement& placement,
             RoutedAssignment* routed);
  bool initialized() const { return assignment_ != nullptr; }
  bool include_sync() const { return include_sync_; }

  /// Applies `op` if it is feasible on the current placement (the same
  /// preconditions primitives::ApplyOp enforces); returns false and leaves
  /// the state untouched otherwise. O(|affected GPUs| * G).
  bool Apply(const ModOp& op);

  /// Reverts the most recent successful Apply by restoring the integer
  /// rows it saved (no routing walk). Bitwise restoration.
  void Undo();

  /// Open (not yet undone) Apply count since the last Reset.
  int depth() const { return depth_; }

  // --- Queries (all O(1) unless noted) -----------------------------------

  /// Eq. 5 outer max over per-GPU totals (tournament root).
  double TotalSeconds() const { return tourney_[1]; }

  /// Score8Norm over the cached per-GPU totals. O(G).
  double Score() const { return Score8Norm(per_gpu_total_); }

  /// Materializes the cached state as a LayerCostEstimate (copies; use the
  /// accessors below on hot paths). O(G).
  LayerCostEstimate ToEstimate() const;

  const Assignment& assignment() const { return *assignment_; }
  const Placement& placement() const { return *placement_; }
  const RoutedAssignment& routed() const { return routed_; }

  const std::vector<double>& per_gpu_seconds() const { return per_gpu_total_; }

  /// Tokens of expert computation landing on each GPU (integer loads; ==
  /// routed().PerGpuComputeTokens() without the allocation).
  const std::vector<int64_t>& per_gpu_compute_tokens() const {
    return gpu_tokens_;
  }

  /// Per-vExpert capacity of each expert: I_e / n_e (Alg. 2 lines 3-5).
  const std::vector<double>& vexpert_capacities() const { return caps_; }

  /// Best pipeline chunk depth for this layer under the overhead-honest
  /// combiner, evaluated on the cached per-GPU compute/A2A/sync partial
  /// sums (O(G) per candidate over CostModel::kChunkDepthCandidates, no
  /// routing work). Selection is CostModel::BestChunkDepth's
  /// shallow-to-deep deepening ladder, and a non-zero `incumbent` engages
  /// its retention hysteresis (kChunkDepthSwitchMargin). The Scheduler
  /// publishes this as SchedulerDecision::pipeline_chunks on auto-K plans
  /// (DESIGN.md §12.2).
  int BestChunkDepth(int incumbent = 0) const {
    FLEXMOE_CHECK(initialized());
    return cost_model_->BestChunkDepth(per_gpu_compute_, per_gpu_a2a_,
                                       per_gpu_sync_, incumbent);
  }

  /// Tokens entering `node` from other nodes (sum of cross-node dispatch
  /// into the node's GPUs) — the cross-link load the topology-aware
  /// expand tie-break minimizes (SNIPPETS.md Snippets 2-3).
  int64_t cross_node_inflow(NodeId node) const {
    return node_inflow_[static_cast<size_t>(node)];
  }

  /// The heaviest single cross-node link into `node`: max over source
  /// nodes src != node of the tokens flowing src -> node. The aggregate
  /// inflow above can hide one saturated link behind several idle ones;
  /// this is the objective PolicyMakerOptions::max_link_objective adds.
  /// O(nodes).
  int64_t max_cross_link_into(NodeId node) const {
    const int num_nodes = static_cast<int>(node_inflow_.size());
    int64_t worst = 0;
    for (NodeId src = 0; src < num_nodes; ++src) {
      if (src == node) continue;
      worst = std::max(
          worst,
          link_load_[static_cast<size_t>(src) * num_nodes + node]);
    }
    return worst;
  }

 private:
  /// One saved integer row of the pre-op state, keyed by its expert / GPU
  /// index. Snapshot slots are pooled (capacity survives Undo/Reset), so
  /// steady-state Apply/Undo cycles are allocation-free.
  struct RowSnapshot {
    int key = -1;
    std::vector<int64_t> data;
  };

  /// Everything Undo needs to revert one Apply: the op (for the inverse
  /// placement mutation) plus every integer row the op can touch — the
  /// changed experts' token rows and the affected destinations'
  /// dispatch / node-dispatch rows. Floats are not saved; they are pure
  /// functions of the integers and get recomputed on restore.
  struct UndoRecord {
    ModOp op;
    /// The touched experts' placement stamps before the op.
    int64_t stamp1 = 0;
    int64_t stamp2 = 0;
    int num_expert_rows = 0;
    int num_dispatch_rows = 0;
    int num_node_rows = 0;
    std::vector<RowSnapshot> expert_rows;
    std::vector<RowSnapshot> dispatch_rows;
    std::vector<RowSnapshot> node_rows;
  };

  /// Reset's shared entry: binds the workload, copies the placement and
  /// sets the routing's node aggregation to the profile's A2A mode.
  void BeginReset(const Assignment& assignment, const Placement& placement);

  /// Reset's shared tail: rebuilds every cache from the routed matrices.
  void FinishReset();

  /// The feasibility prechecks of primitives::ApplyOp, side-effect free.
  bool CheckFeasible(const ModOp& op) const;

  /// The placement half of an op (replica add/remove bookkeeping only).
  void MutatePlacement(const ModOp& op);

  /// The op that exactly reverts `op` on the post-op placement.
  static ModOp InverseOf(const ModOp& op);

  /// Placement mutators that keep the per-GPU hosted-expert sets in sync.
  void AddReplica(int expert, GpuId gpu);
  void RemoveReplica(int expert, GpuId gpu);

  /// Collects `expert`'s current host GPUs into the affected set.
  void MarkHosts(int expert);

  /// Adds one GPU to the affected set (no-op for out-of-range ids, so op
  /// endpoints can be marked unconditionally).
  void MarkGpu(GpuId gpu);

  /// Copies `len` elements of `src` into the next pooled snapshot slot of
  /// `rows`, bumping `*n`. Reuses slot capacity across Apply/Undo cycles.
  static void SaveRow(std::vector<RowSnapshot>* rows, int* n, int key,
                      const int64_t* src, int len);

  /// Removes `expert`'s routing under the current placement: replays the
  /// recorded cells when they were taken under the expert's current
  /// placement stamp, otherwise re-routes it with sign -1 (recording the
  /// cells when the router takes its general multi-destination path).
  void Retract(int expert);

  /// Refreshes caps_ / sync_of_expert_ for one touched expert.
  void RefreshExpert(int expert);

  /// Canonically recomputes one GPU's partial sums, token totals, and
  /// tournament leaf from the cached integer state. O(G).
  void RefreshGpu(GpuId g);

  const CostModel* cost_model_;
  bool include_sync_;

  const Assignment* assignment_ = nullptr;
  std::optional<Placement> placement_;
  RoutedAssignment routed_;

  // Per-GPU partial sums (Eq. 5 terms) and their integer sources.
  std::vector<double> per_gpu_compute_;
  std::vector<double> per_gpu_a2a_;
  std::vector<double> per_gpu_sync_;
  std::vector<double> per_gpu_total_;
  std::vector<int64_t> gpu_tokens_;

  // Per-expert caches refreshed only for touched experts.
  std::vector<double> sync_of_expert_;
  std::vector<double> caps_;

  /// Experts hosting >= 1 vExpert per GPU, ascending — the canonical
  /// iteration order of EstimateLayer restricted to terms that can be
  /// non-zero (tokens land only on hosts; sync accrues only on hosts).
  std::vector<std::set<int>> gpu_experts_;

  // Cross-node inbound token bookkeeping for the topology tie-break.
  std::vector<int64_t> cross_in_;     ///< per destination GPU
  std::vector<int64_t> node_inflow_;  ///< per destination node
  /// Inflow into each destination GPU split by source node (G x nodes,
  /// row-major) — the per-GPU terms behind link_load_, kept so RefreshGpu
  /// can delta-update link loads exactly (integer arithmetic cancels).
  std::vector<int64_t> gpu_link_in_;
  /// Tokens on each directed cross-node link (nodes x nodes, row-major:
  /// [src * nodes + dst_node]); diagonal unused.
  std::vector<int64_t> link_load_;
  /// Per-RefreshGpu scratch of per-source-node sums (non-aggregated path).
  std::vector<int64_t> link_scratch_;

  /// Flat binary tournament over per-GPU totals: leaves at
  /// [cap, cap + G) padded with -inf, root at index 1. A leaf update is
  /// O(log G); the root IS the Eq. 5 max (max is truly associative).
  std::vector<double> tourney_;
  int tourney_cap_ = 0;

  /// Per-expert placement stamps: Apply gives each touched expert a fresh
  /// value and Undo restores the previous one, so equal stamps mean an
  /// identical placement row (the assignment is fixed between Resets).
  std::vector<int64_t> stamp_;
  int64_t next_stamp_ = 1;
  /// One recorded retraction: `expert`'s routing cells under placement
  /// stamp `stamp` (-1: none), and its last use for LRU eviction.
  struct RetractRecord {
    int expert = -1;
    int64_t stamp = -1;
    int64_t last_use = 0;
    std::vector<RoutedCell> cells;
  };
  /// Record slots. A plan round retracts the same few hot and cold
  /// candidates over and over; on the perfbench workloads eight LRU slots
  /// replay as often as sixteen (DESIGN.md §10.1). Storage is bounded by
  /// kRetractSlots + 1 buffers of at most kMaxRetractCells cells —
  /// independent of E and G — and only experts on the router's general
  /// multi-destination path record at all (single-destination experts, the
  /// large-EP norm, keep the cheap O(G) re-route, as do experts whose
  /// record would exceed the cap).
  static constexpr int kRetractSlots = 8;
  std::vector<RetractRecord> retract_pool_;
  /// retract_slot_[e]: e's slot in retract_pool_, -1 if none.
  std::vector<int> retract_slot_;
  /// Buffer a fresh recording lands in before it is swapped into a slot.
  std::vector<RoutedCell> retract_scratch_;
  int64_t retract_clock_ = 0;

  /// Undo stack with pooled snapshot storage: `depth_` records are live;
  /// slots beyond keep their row capacities for reuse.
  std::vector<UndoRecord> undo_records_;
  int depth_ = 0;

  // Scratch for the affected-GPU set (dedup via per-GPU marks).
  std::vector<GpuId> affected_;
  std::vector<char> affected_mark_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_INCREMENTAL_COST_H_
