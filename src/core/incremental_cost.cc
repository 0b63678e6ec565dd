#include "core/incremental_cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace flexmoe {

double Score8Norm(const std::vector<double>& per_gpu_seconds) {
  double acc = 0.0;
  for (double v : per_gpu_seconds) {
    const double v2 = v * v;
    const double v4 = v2 * v2;
    acc += v4 * v4;
  }
  return std::pow(acc, 1.0 / 8.0);
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

int PowerOfTwoAtLeast(int n) {
  int cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

LayerCostState::LayerCostState(const CostModel* cost_model, bool include_sync)
    : cost_model_(cost_model), include_sync_(include_sync) {
  FLEXMOE_CHECK(cost_model != nullptr);
  // Full-size record buffers up front: they never reallocate afterwards
  // (the cap stops every record at kMaxRetractCells), so recording leaves
  // no trail of outgrown buffers in the heap.
  retract_pool_.resize(kRetractSlots);
  for (RetractRecord& r : retract_pool_) r.cells.reserve(kMaxRetractCells);
  retract_scratch_.reserve(kMaxRetractCells);
}

void LayerCostState::Reset(const Assignment& assignment,
                           const Placement& placement) {
  BeginReset(assignment, placement);
  FlexibleRouter::RouteInto(assignment, placement, &routed_);
  FinishReset();
}

void LayerCostState::Reset(const Assignment& assignment,
                           const Placement& placement,
                           RoutedAssignment* routed) {
  FLEXMOE_CHECK(routed != nullptr && routed->node_of.empty());
  FLEXMOE_CHECK(routed->num_experts == assignment.num_experts());
  FLEXMOE_CHECK(routed->num_gpus == assignment.num_gpus());
  routed_.num_experts = routed->num_experts;
  routed_.num_gpus = routed->num_gpus;
  std::swap(routed_.expert_gpu_tokens, routed->expert_gpu_tokens);
  std::swap(routed_.dispatch_to, routed->dispatch_to);
  // Enabling aggregation after routing rebuilds the per-node sums from the
  // dispatch matrix — integer folds, equal to what routing with
  // aggregation on would have accumulated.
  BeginReset(assignment, placement);
  FinishReset();
}

void LayerCostState::BeginReset(const Assignment& assignment,
                                const Placement& placement) {
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  assignment_ = &assignment;
  if (placement_.has_value()) {
    *placement_ = placement;  // reuses the count matrix allocation
  } else {
    placement_.emplace(placement);
  }
  // With per-node A2A aggregation active, routing maintains the per-node
  // dispatch sums the hierarchical Eq. 8 path consumes, so RefreshGpu's
  // A2A recompute is O(nodes) float terms instead of O(G).
  if (cost_model_->profile().hierarchical_a2a()) {
    routed_.EnableNodeAggregation(cost_model_->profile().topology());
  } else {
    routed_.DisableNodeAggregation();
  }
}

void LayerCostState::FinishReset() {
  const int num_experts = assignment_->num_experts();
  const int num_gpus = assignment_->num_gpus();
  const Topology& topo = cost_model_->profile().topology();

  sync_of_expert_.assign(static_cast<size_t>(num_experts), 0.0);
  caps_.assign(static_cast<size_t>(num_experts), 0.0);
  gpu_experts_.clear();
  gpu_experts_.resize(static_cast<size_t>(num_gpus));
  for (int e = 0; e < num_experts; ++e) {
    RefreshExpert(e);
    for (const auto& [gpu, count] : placement_->Replicas(e)) {
      gpu_experts_[static_cast<size_t>(gpu)].insert(e);
    }
  }

  per_gpu_compute_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_a2a_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_sync_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_total_.assign(static_cast<size_t>(num_gpus), 0.0);
  gpu_tokens_.assign(static_cast<size_t>(num_gpus), 0);
  cross_in_.assign(static_cast<size_t>(num_gpus), 0);
  node_inflow_.assign(static_cast<size_t>(topo.num_nodes()), 0);
  gpu_link_in_.assign(
      static_cast<size_t>(num_gpus) * static_cast<size_t>(topo.num_nodes()),
      0);
  link_load_.assign(static_cast<size_t>(topo.num_nodes()) *
                        static_cast<size_t>(topo.num_nodes()),
                    0);
  link_scratch_.assign(static_cast<size_t>(topo.num_nodes()), 0);

  tourney_cap_ = PowerOfTwoAtLeast(num_gpus);
  tourney_.assign(static_cast<size_t>(2 * tourney_cap_), kNegInf);
  for (GpuId g = 0; g < num_gpus; ++g) RefreshGpu(g);

  depth_ = 0;  // pooled undo_records_ keep their snapshot capacities
  stamp_.assign(static_cast<size_t>(num_experts), 0);
  next_stamp_ = 1;
  for (RetractRecord& r : retract_pool_) {
    r.expert = -1;
    r.stamp = -1;
    r.last_use = 0;
  }
  retract_slot_.assign(static_cast<size_t>(num_experts), -1);
  retract_clock_ = 0;
  affected_.clear();
  affected_mark_.assign(static_cast<size_t>(num_gpus), 0);
}

void LayerCostState::Retract(int expert) {
  const size_t i = static_cast<size_t>(expert);
  int slot = retract_slot_[i];
  if (slot >= 0) {
    RetractRecord& r = retract_pool_[static_cast<size_t>(slot)];
    if (r.stamp == stamp_[i]) {
      r.last_use = ++retract_clock_;
      FlexibleRouter::RetractCells(expert, r.cells, &routed_);
      return;
    }
  }
  if (!FlexibleRouter::RetractExpertRecording(*assignment_, *placement_,
                                              expert, &routed_,
                                              &retract_scratch_,
                                              kMaxRetractCells)) {
    return;
  }
  if (slot < 0) {
    // Evict the least recently used record.
    slot = 0;
    for (int k = 1; k < kRetractSlots; ++k) {
      if (retract_pool_[static_cast<size_t>(k)].last_use <
          retract_pool_[static_cast<size_t>(slot)].last_use) {
        slot = k;
      }
    }
    RetractRecord& victim = retract_pool_[static_cast<size_t>(slot)];
    if (victim.expert >= 0) {
      retract_slot_[static_cast<size_t>(victim.expert)] = -1;
    }
    victim.expert = expert;
    retract_slot_[i] = slot;
  }
  RetractRecord& r = retract_pool_[static_cast<size_t>(slot)];
  std::swap(r.cells, retract_scratch_);
  r.stamp = stamp_[i];
  r.last_use = ++retract_clock_;
}

void LayerCostState::RefreshExpert(int expert) {
  caps_[static_cast<size_t>(expert)] =
      static_cast<double>(assignment_->ExpertTotal(expert)) /
      static_cast<double>(placement_->VExperts(expert));
  if (include_sync_) {
    sync_of_expert_[static_cast<size_t>(expert)] =
        cost_model_->SyncSeconds(*placement_, expert);
  }
}

void LayerCostState::RefreshGpu(GpuId g) {
  // Canonical recompute: the exact term sequence EstimateLayer produces
  // for this GPU, restricted to hosted experts (the only experts that can
  // contribute compute or sync here).
  double compute = 0.0;
  double sync = 0.0;
  int64_t tokens_total = 0;
  for (const int e : gpu_experts_[static_cast<size_t>(g)]) {
    const int64_t tokens = routed_.expert_gpu_tokens(e, g);
    if (tokens > 0) compute += cost_model_->ComputeSeconds(tokens);
    tokens_total += tokens;
    if (include_sync_) sync += sync_of_expert_[static_cast<size_t>(e)];
  }
  const double a2a = cost_model_->A2ASeconds(routed_, g);

  const Topology& topo = cost_model_->profile().topology();
  const NodeId node = topo.NodeOf(g);
  const int num_nodes = static_cast<int>(node_inflow_.size());
  // Per-source-node inflow: sums and deltas are pure integers, so the
  // link_load_ matrix tracks a from-scratch recount exactly (and Undo's
  // RefreshGpu over restored rows cancels the deltas bitwise).
  if (!routed_.node_of.empty()) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      link_scratch_[static_cast<size_t>(n)] = routed_.node_dispatch(n, g);
    }
  } else {
    std::fill(link_scratch_.begin(), link_scratch_.end(), int64_t{0});
    for (GpuId src = 0; src < routed_.num_gpus; ++src) {
      link_scratch_[static_cast<size_t>(topo.NodeOf(src))] +=
          routed_.dispatch(src, g);
    }
  }
  int64_t cross = 0;
  const size_t row = static_cast<size_t>(g) * static_cast<size_t>(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (n == node) continue;
    const int64_t v = link_scratch_[static_cast<size_t>(n)];
    cross += v;
    link_load_[static_cast<size_t>(n) * num_nodes + node] +=
        v - gpu_link_in_[row + static_cast<size_t>(n)];
    gpu_link_in_[row + static_cast<size_t>(n)] = v;
  }
  node_inflow_[static_cast<size_t>(node)] +=
      cross - cross_in_[static_cast<size_t>(g)];
  cross_in_[static_cast<size_t>(g)] = cross;

  gpu_tokens_[static_cast<size_t>(g)] = tokens_total;
  per_gpu_compute_[static_cast<size_t>(g)] = compute;
  per_gpu_a2a_[static_cast<size_t>(g)] = a2a;
  per_gpu_sync_[static_cast<size_t>(g)] = sync;
  const double total = cost_model_->CombineGpuSeconds(compute, a2a, sync);
  per_gpu_total_[static_cast<size_t>(g)] = total;

  size_t i = static_cast<size_t>(tourney_cap_ + g);
  tourney_[i] = total;
  for (i >>= 1; i >= 1; i >>= 1) {
    tourney_[i] = std::max(tourney_[2 * i], tourney_[2 * i + 1]);
  }
}

void LayerCostState::AddReplica(int expert, GpuId gpu) {
  if (placement_->VExpertsOn(expert, gpu) == 0) {
    gpu_experts_[static_cast<size_t>(gpu)].insert(expert);
  }
  FLEXMOE_CHECK_OK(placement_->AddVExpert(expert, gpu));
}

void LayerCostState::RemoveReplica(int expert, GpuId gpu) {
  FLEXMOE_CHECK_OK(placement_->RemoveVExpert(expert, gpu));
  if (placement_->VExpertsOn(expert, gpu) == 0) {
    gpu_experts_[static_cast<size_t>(gpu)].erase(expert);
  }
}

void LayerCostState::MarkHosts(int expert) {
  for (const auto& [gpu, count] : placement_->Replicas(expert)) {
    if (!affected_mark_[static_cast<size_t>(gpu)]) {
      affected_mark_[static_cast<size_t>(gpu)] = 1;
      affected_.push_back(gpu);
    }
  }
}

void LayerCostState::MarkGpu(GpuId gpu) {
  if (gpu < 0 || gpu >= placement_->num_gpus()) return;
  if (!affected_mark_[static_cast<size_t>(gpu)]) {
    affected_mark_[static_cast<size_t>(gpu)] = 1;
    affected_.push_back(gpu);
  }
}

ModOp LayerCostState::InverseOf(const ModOp& op) {
  switch (op.type) {
    case ModOpType::kShrink:
      // copy_from = -1: the undo re-adds capacity, provenance is moot.
      return MakeExpand(op.expert, /*copy_from=*/-1, /*dst=*/op.src);
    case ModOpType::kExpand:
      return MakeShrink(op.expert, op.dst);
    case ModOpType::kMigrate:
      return MakeMigrate(op.expert, op.dst, op.partner_expert, op.src);
  }
  FLEXMOE_CHECK(false);
  return op;
}

bool LayerCostState::CheckFeasible(const ModOp& op) const {
  const Placement& p = *placement_;
  const int num_experts = p.num_experts();
  const int num_gpus = p.num_gpus();
  if (op.expert < 0 || op.expert >= num_experts) return false;

  // Feasibility prechecks mirror primitives::ApplyOp (including the
  // ordered Remove/Remove/Add/Add semantics of Migrate), so Apply
  // succeeds exactly when ApplyOp on the same placement would.
  switch (op.type) {
    case ModOpType::kShrink:
      if (op.src < 0 || op.src >= num_gpus) return false;
      if (p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.VExperts(op.expert) < 2) return false;
      break;
    case ModOpType::kExpand:
      if (op.dst < 0 || op.dst >= num_gpus) return false;
      if (op.src >= num_gpus) return false;
      if (op.src >= 0 && p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.FreeSlots(op.dst) <= 0) return false;
      break;
    case ModOpType::kMigrate: {
      if (op.partner_expert < 0 || op.partner_expert >= num_experts) {
        return false;
      }
      if (op.src < 0 || op.src >= num_gpus) return false;
      if (op.dst < 0 || op.dst >= num_gpus) return false;
      if (op.src == op.dst) return false;
      if (p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.VExpertsOn(op.partner_expert, op.dst) == 0) return false;
      if (p.VExperts(op.expert) < 2) return false;
      const int partner_after =
          p.VExperts(op.partner_expert) -
          (op.partner_expert == op.expert ? 1 : 0);
      if (partner_after < 2) return false;
      break;
    }
  }
  return true;
}

void LayerCostState::MutatePlacement(const ModOp& op) {
  switch (op.type) {
    case ModOpType::kShrink:
      RemoveReplica(op.expert, op.src);
      break;
    case ModOpType::kExpand:
      AddReplica(op.expert, op.dst);
      break;
    case ModOpType::kMigrate:
      RemoveReplica(op.expert, op.src);
      RemoveReplica(op.partner_expert, op.dst);
      AddReplica(op.expert, op.dst);
      AddReplica(op.partner_expert, op.src);
      break;
  }
}

void LayerCostState::SaveRow(std::vector<RowSnapshot>* rows, int* n, int key,
                             const int64_t* src, int len) {
  if (static_cast<int>(rows->size()) <= *n) {
    rows->resize(static_cast<size_t>(*n) + 1);
  }
  RowSnapshot& slot = (*rows)[static_cast<size_t>(*n)];
  slot.key = key;
  slot.data.assign(src, src + len);  // reuses the slot's capacity
  ++*n;
}

bool LayerCostState::Apply(const ModOp& op) {
  FLEXMOE_CHECK(initialized());
  if (!CheckFeasible(op)) return false;
  Placement& p = *placement_;

  const int e1 = op.expert;
  const int e2 =
      op.type == ModOpType::kMigrate && op.partner_expert != op.expert
          ? op.partner_expert
          : -1;

  // Affected GPUs: hosts of every touched expert before the op, plus the
  // op's endpoints — together exactly the hosts before AND after
  // (dispatch rows — and hence A2A terms — change only for those
  // destinations; tokens land only on hosts). Expand's dst is the only
  // possible new host; every other endpoint is already a host.
  affected_.clear();
  MarkHosts(e1);
  if (e2 >= 0) MarkHosts(e2);
  MarkGpu(op.src);
  MarkGpu(op.dst);

  // Snapshot the pre-op integer rows so Undo is a restore, not a second
  // pair of routing walks.
  const int num_gpus = p.num_gpus();
  if (static_cast<int>(undo_records_.size()) <= depth_) {
    undo_records_.resize(static_cast<size_t>(depth_) + 1);
  }
  UndoRecord& rec = undo_records_[static_cast<size_t>(depth_)];
  rec.op = op;
  rec.num_expert_rows = 0;
  rec.num_dispatch_rows = 0;
  rec.num_node_rows = 0;
  SaveRow(&rec.expert_rows, &rec.num_expert_rows, e1,
          routed_.expert_gpu_tokens.row(e1), num_gpus);
  if (e2 >= 0) {
    SaveRow(&rec.expert_rows, &rec.num_expert_rows, e2,
            routed_.expert_gpu_tokens.row(e2), num_gpus);
  }
  const bool aggregated = !routed_.node_of.empty();
  for (const GpuId g : affected_) {
    SaveRow(&rec.dispatch_rows, &rec.num_dispatch_rows, g,
            routed_.dispatch_to.row(g), num_gpus);
    if (aggregated) {
      SaveRow(&rec.node_rows, &rec.num_node_rows, g,
              routed_.node_dispatch_to.row(g), routed_.num_nodes);
    }
  }

  // Retract the touched experts' routing under the current placement
  // (exact integer cancellation), mutate, re-add under the new placement.
  Retract(e1);
  if (e2 >= 0) Retract(e2);

  MutatePlacement(op);
  rec.stamp1 = stamp_[static_cast<size_t>(e1)];
  stamp_[static_cast<size_t>(e1)] = next_stamp_++;
  if (e2 >= 0) {
    rec.stamp2 = stamp_[static_cast<size_t>(e2)];
    stamp_[static_cast<size_t>(e2)] = next_stamp_++;
  }

  FlexibleRouter::AccumulateExpert(*assignment_, p, e1, +1, &routed_);
  if (e2 >= 0) {
    FlexibleRouter::AccumulateExpert(*assignment_, p, e2, +1, &routed_);
  }

  RefreshExpert(e1);
  if (e2 >= 0) RefreshExpert(e2);

  for (const GpuId g : affected_) {
    affected_mark_[static_cast<size_t>(g)] = 0;
    RefreshGpu(g);
  }
  affected_.clear();
  ++depth_;
  return true;
}

void LayerCostState::Undo() {
  FLEXMOE_CHECK(depth_ > 0);
  const UndoRecord& rec = undo_records_[static_cast<size_t>(--depth_)];

  // Restore the saved integer rows; every other integer is untouched by
  // the op. Floats are recomputed below — they are pure functions of the
  // integers, so this restores the pre-Apply state bitwise.
  for (int i = 0; i < rec.num_expert_rows; ++i) {
    const RowSnapshot& s = rec.expert_rows[static_cast<size_t>(i)];
    std::copy(s.data.begin(), s.data.end(),
              routed_.expert_gpu_tokens.row(s.key));
  }
  for (int i = 0; i < rec.num_dispatch_rows; ++i) {
    const RowSnapshot& s = rec.dispatch_rows[static_cast<size_t>(i)];
    std::copy(s.data.begin(), s.data.end(), routed_.dispatch_to.row(s.key));
  }
  for (int i = 0; i < rec.num_node_rows; ++i) {
    const RowSnapshot& s = rec.node_rows[static_cast<size_t>(i)];
    std::copy(s.data.begin(), s.data.end(),
              routed_.node_dispatch_to.row(s.key));
  }

  MutatePlacement(InverseOf(rec.op));

  const int e1 = rec.op.expert;
  const int e2 = rec.op.type == ModOpType::kMigrate &&
                         rec.op.partner_expert != rec.op.expert
                     ? rec.op.partner_expert
                     : -1;
  stamp_[static_cast<size_t>(e1)] = rec.stamp1;
  if (e2 >= 0) stamp_[static_cast<size_t>(e2)] = rec.stamp2;
  RefreshExpert(e1);
  if (e2 >= 0) RefreshExpert(e2);
  for (int i = 0; i < rec.num_dispatch_rows; ++i) {
    RefreshGpu(rec.dispatch_rows[static_cast<size_t>(i)].key);
  }
}

LayerCostEstimate LayerCostState::ToEstimate() const {
  FLEXMOE_CHECK(initialized());
  LayerCostEstimate est;
  est.per_gpu_seconds = per_gpu_total_;
  est.per_gpu_compute = per_gpu_compute_;
  est.per_gpu_a2a = per_gpu_a2a_;
  est.per_gpu_sync = per_gpu_sync_;
  est.total_seconds = TotalSeconds();
  return est;
}

}  // namespace flexmoe
