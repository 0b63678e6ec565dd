#include "core/policy_maker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "core/balance.h"

namespace flexmoe {

Status PolicyMakerOptions::Validate() const {
  if (min_improvement_frac < 0.0 || min_improvement_frac >= 1.0) {
    return Status::InvalidArgument("min_improvement_frac out of range");
  }
  if (min_migration_gain_sec < 0.0) {
    return Status::InvalidArgument("min_migration_gain_sec < 0");
  }
  if (max_hot_candidates < 1) {
    return Status::InvalidArgument("max_hot_candidates must be >= 1");
  }
  return Status::OK();
}

PolicyMaker::PolicyMaker(const CostModel* cost_model,
                         const PolicyMakerOptions& options)
    : cost_model_(cost_model),
      options_(options),
      scratch_state_(cost_model, /*include_sync=*/!options.serve_objective) {
  FLEXMOE_CHECK(cost_model != nullptr);
  FLEXMOE_CHECK_OK(options.Validate());
}

bool PolicyMaker::Expandable(GpuId g) const {
  return health_ == nullptr ||
         health_->state(g) == DeviceState::kHealthy;
}

std::vector<ModOp> PolicyMaker::MakeSchedulingPlan(
    const Assignment& assignment, const Placement& placement,
    PlanSearchStats* stats) const {
  scratch_state_.Reset(assignment, placement);
  return PlanOnState(&scratch_state_, stats);
}

std::vector<ModOp> PolicyMaker::PlanOnState(LayerCostState* state,
                                            PlanSearchStats* stats) const {
  PlanSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = PlanSearchStats();
  FLEXMOE_CHECK(state != nullptr && state->initialized());
  FLEXMOE_CHECK(state->include_sync() == !options_.serve_objective);
  const Assignment& assignment = state->assignment();
  // Mutated (and restored) by every Apply/Undo below — reads that must
  // see the incumbent placement happen only at entry depth.
  const Placement& placement = state->placement();
  const double score0 = state->Score();
  stats->score_before = score0;
  stats->best_score = score0;
  // Snapshots: Apply rewrites the state's caches in place, while the
  // candidate orderings below are defined against the incumbent.
  const std::vector<double> caps = state->vexpert_capacities();
  const std::vector<int64_t> gpu_loads = state->per_gpu_compute_tokens();

  // Hot candidates: the top-k experts by per-vExpert capacity (Alg. 2
  // line 6 takes only the argmax; evaluating a few near-ties avoids
  // stalls when two hot experts bottleneck different GPUs).
  std::vector<int> order(static_cast<size_t>(assignment.num_experts()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return caps[static_cast<size_t>(a)] > caps[static_cast<size_t>(b)];
  });
  const int hot_count =
      std::min(options_.max_hot_candidates,
               static_cast<int>(order.size()));

  double best_score = std::numeric_limits<double>::infinity();
  int best_hot = -1, best_cold = -1;
  GpuId best_shrink = -1, best_dst = -1;

  // Cold candidates: the coldest shrinkable experts (bottom-k by capacity).
  // The paper takes only the argmin; a few candidates diversify the freed
  // slots across GPUs, which matters once all slots are occupied.
  std::vector<int> cold_candidates;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (placement.VExperts(*it) >= 2) cold_candidates.push_back(*it);
    if (static_cast<int>(cold_candidates.size()) >=
        options_.max_hot_candidates) {
      break;
    }
  }
  if (cold_candidates.empty()) return {};

  // Candidate placements differ from the incumbent only in experts `hot`
  // and `cold`, and every expert routes independently (Alg. 3 state is
  // per-expert) — so the state's Apply/Undo evaluates a candidate in
  // O(|affected GPUs| * G) with no placement or routing copies at all,
  // integer-exact, hence bit-identical to a from-scratch route + Eq. 5.
  const Topology& topo = cost_model_->profile().topology();
  for (int hi = 0; hi < hot_count; ++hi) {
    const int hot = order[static_cast<size_t>(hi)];
    if (assignment.ExpertTotal(hot) == 0) break;

    // Nodes already hosting the hot expert: expanding there keeps the
    // replica group node-local, whose AllReduce is an order of magnitude
    // cheaper than a cross-node group (NVLink vs IB ring bottleneck).
    // Depends only on `hot` (the state is back at entry depth here, and
    // every candidate op below is undone), so it hoists out of the
    // cold/shrink loops.
    std::set<NodeId> hot_nodes;
    for (GpuId h : placement.HostGpus(hot)) {
      hot_nodes.insert(topo.NodeOf(h));
    }

    for (int cold : cold_candidates) {
      if (cold == hot) continue;

      // Shrink-host candidates: hosts of the cold expert, least-loaded
      // first (the freed slot usually becomes the hot expert's new home).
      std::vector<GpuId> shrink_candidates;
      for (const auto& [gpu, count] : placement.Replicas(cold)) {
        shrink_candidates.push_back(gpu);
      }
      std::sort(shrink_candidates.begin(), shrink_candidates.end(),
                [&](GpuId a, GpuId b) {
                  // Replicas on degraded devices go first — shrinking them
                  // is the cheap half of migrate-away.
                  const bool da = !Expandable(a);
                  const bool db = !Expandable(b);
                  if (da != db) return da;
                  return gpu_loads[static_cast<size_t>(a)] <
                         gpu_loads[static_cast<size_t>(b)];
                });
      constexpr size_t kMaxShrinkCandidates = 2;
      if (shrink_candidates.size() > kMaxShrinkCandidates) {
        shrink_candidates.resize(kMaxShrinkCandidates);
      }

      for (GpuId shrink_gpu : shrink_candidates) {
        if (!state->Apply(MakeShrink(cold, shrink_gpu))) continue;

        // Expand destinations: GPUs with a free slot; node-local to the
        // hot expert's replicas first, then cheapest loads. `placement`
        // reflects the shrink here — exactly the after_shrink view.
        std::vector<GpuId> candidates;
        for (GpuId g = 0; g < placement.num_gpus(); ++g) {
          if (placement.FreeSlots(g) > 0 && Expandable(g)) {
            candidates.push_back(g);
          }
        }
        if (options_.topology_aware_expansion) {
          std::sort(candidates.begin(), candidates.end(),
                    [&](GpuId a, GpuId b) {
                      const bool la = hot_nodes.count(topo.NodeOf(a)) > 0;
                      const bool lb = hot_nodes.count(topo.NodeOf(b)) > 0;
                      if (la != lb) return la;
                      // With the max-link objective, the heaviest single
                      // inbound link ranks first: one saturated link
                      // bounds the A2A phase even when the node's
                      // aggregate inflow is moderate.
                      if (options_.max_link_objective) {
                        const int64_t ma =
                            state->max_cross_link_into(topo.NodeOf(a));
                        const int64_t mb =
                            state->max_cross_link_into(topo.NodeOf(b));
                        if (ma != mb) return ma < mb;
                      }
                      // Prefer the node with the lightest cross-link
                      // inbound load: the new replica will pull remote
                      // tokens onto its node, so land it where the
                      // inter-node links have headroom.
                      const int64_t ia =
                          state->cross_node_inflow(topo.NodeOf(a));
                      const int64_t ib =
                          state->cross_node_inflow(topo.NodeOf(b));
                      if (ia != ib) return ia < ib;
                      if (gpu_loads[static_cast<size_t>(a)] !=
                          gpu_loads[static_cast<size_t>(b)]) {
                        return gpu_loads[static_cast<size_t>(a)] <
                               gpu_loads[static_cast<size_t>(b)];
                      }
                      return a < b;
                    });
        } else {
          std::sort(candidates.begin(), candidates.end(),
                    [&](GpuId a, GpuId b) {
                      const bool la = hot_nodes.count(topo.NodeOf(a)) > 0;
                      const bool lb = hot_nodes.count(topo.NodeOf(b)) > 0;
                      if (la != lb) return la;
                      return gpu_loads[static_cast<size_t>(a)] <
                             gpu_loads[static_cast<size_t>(b)];
                    });
        }
        if (options_.max_expand_candidates > 0 &&
            static_cast<int>(candidates.size()) >
                options_.max_expand_candidates) {
          candidates.resize(
              static_cast<size_t>(options_.max_expand_candidates));
        }
        for (GpuId dst : candidates) {
          // Mutate-undo on the incremental state: O(Δ) per candidate.
          if (!state->Apply(MakeExpand(hot, /*copy_from=*/-1, dst))) continue;
          const double score = state->Score();
          ++stats->candidates_evaluated;
          state->Undo();
          if (score < best_score) {
            best_score = score;
            best_hot = hot;
            best_cold = cold;
            best_shrink = shrink_gpu;
            best_dst = dst;
          }
        }
        state->Undo();  // the shrink — back to entry depth
      }
    }
  }
  if (best_dst >= 0) stats->best_score = best_score;
  if (best_dst < 0) return {};
  if (best_score >= score0 * (1.0 - options_.min_improvement_frac)) return {};

  // Expand copy source: free when dst already hosts the expert; otherwise
  // the closest existing replica (same node preferred). Dead devices can
  // never be the source — their state is lost (an orphaned expert's only
  // replica on a dead device means no expand can be planned at all).
  // Queried on the incumbent placement: the winning shrink touches only
  // best_cold, and best_cold != best_hot, so best_hot's replicas are
  // identical before and after the shrink.
  GpuId copy_src = -1;
  if (placement.VExpertsOn(best_hot, best_dst) == 0) {
    std::vector<GpuId> hosts = placement.HostGpus(best_hot);
    if (health_ != nullptr) {
      hosts.erase(std::remove_if(hosts.begin(), hosts.end(),
                                 [this](GpuId h) { return !health_->alive(h); }),
                  hosts.end());
    }
    if (hosts.empty()) return {};
    copy_src = hosts.front();
    for (GpuId h : hosts) {
      if (topo.SameNode(h, best_dst)) {
        copy_src = h;
        break;
      }
    }
  }

  // Dependency order: the Shrink may free the very slot the Expand uses.
  stats->accepted = true;
  return {MakeShrink(best_cold, best_shrink),
          MakeExpand(best_hot, copy_src, best_dst)};
}

std::vector<ModOp> PolicyMaker::PlanEvacuation(const Placement& placement,
                                               int max_moves) const {
  std::vector<ModOp> plan;
  if (health_ == nullptr || max_moves <= 0) return plan;
  Placement current = placement;
  const Topology& topo = cost_model_->profile().topology();

  for (GpuId g = 0; g < current.num_gpus(); ++g) {
    if (health_->state(g) != DeviceState::kDegraded) continue;
    for (const int e : current.ExpertsOn(g)) {
      if (static_cast<int>(plan.size()) >= max_moves) return plan;
      const int here = current.VExpertsOn(e, g);
      if (current.VExperts(e) > here) {
        // Capacity exists elsewhere: release the straggler's replicas.
        for (int i = 0; i < here && current.VExperts(e) > 1; ++i) {
          const ModOp op = MakeShrink(e, g);
          if (!ApplyOp(op, &current).ok()) break;
          plan.push_back(op);
          if (static_cast<int>(plan.size()) >= max_moves) return plan;
        }
      } else {
        // Sole host is the straggler: copy the expert to a healthy device
        // (same node preferred); the straggler-side shrink follows on a
        // later trigger, once the copy is live.
        GpuId dst = -1;
        auto usable = [&](GpuId cand) {
          return cand != g && Expandable(cand) && current.FreeSlots(cand) > 0;
        };
        for (GpuId cand : topo.GpusOnNode(topo.NodeOf(g))) {
          if (usable(cand)) {
            dst = cand;
            break;
          }
        }
        for (GpuId cand = 0; dst < 0 && cand < current.num_gpus(); ++cand) {
          if (usable(cand)) dst = cand;
        }
        if (dst < 0) {
          // Fully packed cluster: free a slot by un-packing a healthy
          // device's multi-vExpert resident (weight-shared copies, so the
          // shrink costs nothing and loses no expert). The unpack only
          // makes sense together with the Expand that uses the freed slot,
          // so require room for the pair.
          if (static_cast<int>(plan.size()) + 2 > max_moves) return plan;
          for (GpuId cand = 0; dst < 0 && cand < current.num_gpus(); ++cand) {
            if (cand == g || !Expandable(cand)) continue;
            for (const int x : current.ExpertsOn(cand)) {
              if (x != e && current.VExpertsOn(x, cand) >= 2) {
                const ModOp unpack = MakeShrink(x, cand);
                if (!ApplyOp(unpack, &current).ok()) continue;
                plan.push_back(unpack);
                dst = cand;
                break;
              }
            }
          }
        }
        if (dst < 0) continue;
        const ModOp op = MakeExpand(e, g, dst);
        if (!ApplyOp(op, &current).ok()) continue;
        plan.push_back(op);
      }
    }
  }
  return plan;
}

std::vector<ModOp> PolicyMaker::PlanMigrations(const Placement& placement,
                                               int max_moves) const {
  std::vector<ModOp> plan;
  const HardwareProfile& profile = cost_model_->profile();
  const Topology& topo = profile.topology();
  const int num_experts = placement.num_experts();
  // Copy-on-first-move: most triggers find nothing worth consolidating,
  // and those never pay the O(E x G) placement copy.
  std::optional<Placement> owned;
  const Placement* current = &placement;

  // Per-expert Eq. 9 cache: a candidate Migrate touches exactly two
  // experts, so its total substitutes two recomputed entries instead of
  // re-deriving all E AllReduce groups per candidate. The total is always
  // re-summed left-to-right over the full expert range, so every value
  // equals a from-scratch sum of CostModel::SyncSeconds over the same
  // placement bitwise.
  std::vector<double> sync(static_cast<size_t>(num_experts), 0.0);
  for (int e = 0; e < num_experts; ++e) {
    sync[static_cast<size_t>(e)] = cost_model_->SyncSeconds(*current, e);
  }
  const auto total_substituting = [&](int e1, double s1, int e2, double s2) {
    double total = 0.0;
    for (int e = 0; e < num_experts; ++e) {
      if (e == e1) {
        total += s1;
      } else if (e == e2) {
        total += s2;
      } else {
        total += sync[static_cast<size_t>(e)];
      }
    }
    return total;
  };
  // Per-node vExpert counts of the expert under inspection (zeroed again
  // after each use).
  std::vector<int> per_node(static_cast<size_t>(topo.num_nodes()), 0);

  for (int move = 0; move < max_moves; ++move) {
    const double base = total_substituting(-1, 0.0, -1, 0.0);
    double best_gain = options_.min_migration_gain_sec;
    ModOp best_op;
    bool found = false;

    for (int e = 0; e < num_experts; ++e) {
      const std::map<GpuId, int>& replicas = current->Replicas(e);
      if (replicas.size() < 2) continue;

      // Majority node: the node carrying most of e's vExperts, the first
      // maximum in ascending node order (hosts ascend, NodeOf is monotone).
      int spanned = 0;
      for (const auto& [gpu, count] : replicas) {
        int& c = per_node[static_cast<size_t>(topo.NodeOf(gpu))];
        if (c == 0) ++spanned;
        c += count;
      }
      NodeId major = -1;
      int major_count = 0;
      for (const auto& [gpu, count] : replicas) {
        const NodeId node = topo.NodeOf(gpu);
        if (per_node[static_cast<size_t>(node)] > major_count) {
          major = node;
          major_count = per_node[static_cast<size_t>(node)];
        }
      }
      for (const auto& [gpu, count] : replicas) {
        per_node[static_cast<size_t>(topo.NodeOf(gpu))] = 0;
      }
      if (spanned < 2) continue;

      const GpuId first_on_major = major * topo.gpus_per_node();
      for (const auto& [lonely, lonely_count] : replicas) {
        if (topo.NodeOf(lonely) == major) continue;
        // Try to pull e's off-node replica onto the majority node by
        // swapping with a vExpert already there.
        for (GpuId target = first_on_major;
             target < first_on_major + topo.gpus_per_node(); ++target) {
          if (!Expandable(target)) continue;
          // Swapping onto a GPU that already hosts e just packs — still
          // useful, because it dissolves `lonely` from the replica group.
          // e's post-swap group does not depend on the partner.
          const double e_after = cost_model_->SyncSeconds(
              profile.SignatureOfReplicas(replicas, lonely, target));
          for (int partner = 0; partner < num_experts; ++partner) {
            if (partner == e || current->VExpertsOn(partner, target) == 0) {
              continue;
            }
            // The one Migrate precondition a candidate here can miss: the
            // partner must keep >= 1 vExpert after giving one up.
            if (current->VExperts(partner) < 2) continue;
            const double partner_after = cost_model_->SyncSeconds(
                profile.SignatureOfReplicas(current->Replicas(partner),
                                            target, lonely));
            // Unchanged terms re-sum to exactly `base`: a zero gain, which
            // never beats min_migration_gain_sec >= 0.
            if (e_after == sync[static_cast<size_t>(e)] &&
                partner_after == sync[static_cast<size_t>(partner)]) {
              continue;
            }
            const double gain =
                base - total_substituting(e, e_after, partner, partner_after);
            if (gain > best_gain) {
              best_gain = gain;
              best_op = MakeMigrate(e, lonely, partner, target);
              found = true;
            }
          }
        }
      }
    }
    if (!found) break;
    if (!owned.has_value()) {
      owned.emplace(placement);
      current = &*owned;
    }
    FLEXMOE_CHECK_OK(ApplyOp(best_op, &*owned));
    sync[static_cast<size_t>(best_op.expert)] =
        cost_model_->SyncSeconds(*current, best_op.expert);
    sync[static_cast<size_t>(best_op.partner_expert)] =
        cost_model_->SyncSeconds(*current, best_op.partner_expert);
    plan.push_back(best_op);
  }
  return plan;
}

}  // namespace flexmoe
