#include "core/router.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace flexmoe {

void RoutedAssignment::EnableNodeAggregation(const Topology& topo) {
  FLEXMOE_CHECK(num_gpus == 0 || num_gpus == topo.num_gpus());
  node_of.resize(static_cast<size_t>(topo.num_gpus()));
  for (GpuId g = 0; g < topo.num_gpus(); ++g) {
    node_of[static_cast<size_t>(g)] = topo.NodeOf(g);
  }
  num_nodes = topo.num_nodes();
  node_dispatch_to.assign(topo.num_gpus(), num_nodes, 0);
  // Rebuild from an already-populated dispatch matrix so enabling after
  // routing is equivalent to enabling before.
  for (GpuId dst = 0; dst < num_gpus; ++dst) {
    const int64_t* row = dispatch_to.row(dst);
    int64_t* agg = node_dispatch_to.row(dst);
    for (GpuId src = 0; src < num_gpus; ++src) {
      agg[node_of[static_cast<size_t>(src)]] += row[src];
    }
  }
}

void RoutedAssignment::DisableNodeAggregation() {
  node_of.clear();
  num_nodes = 0;
  node_dispatch_to.assign(0, 0, 0);
}

std::vector<int64_t> RoutedAssignment::PerGpuComputeTokens() const {
  std::vector<int64_t> loads;
  PerGpuComputeTokensInto(&loads);
  return loads;
}

void RoutedAssignment::PerGpuComputeTokensInto(
    std::vector<int64_t>* out) const {
  out->assign(static_cast<size_t>(num_gpus), 0);
  for (int e = 0; e < num_experts; ++e) {
    const int64_t* row = expert_gpu_tokens.row(e);
    for (int g = 0; g < num_gpus; ++g) {
      (*out)[static_cast<size_t>(g)] += row[g];
    }
  }
}

std::vector<double> RoutedAssignment::PerGpuComputeLoads() const {
  const std::vector<int64_t> tokens = PerGpuComputeTokens();
  std::vector<double> loads(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    loads[i] = static_cast<double>(tokens[i]);
  }
  return loads;
}

int64_t RoutedAssignment::Total() const {
  int64_t total = 0;
  const int64_t* flat = expert_gpu_tokens.data();
  for (size_t i = 0; i < expert_gpu_tokens.element_count(); ++i) {
    total += flat[i];
  }
  return total;
}

int64_t RoutedAssignment::CrossGpuTokens() const {
  int64_t total = 0;
  for (int d = 0; d < num_gpus; ++d) {
    const int64_t* row = dispatch_to.row(d);
    for (int s = 0; s < num_gpus; ++s) {
      if (s != d) total += row[s];
    }
  }
  return total;
}

namespace {

/// Reusable per-call scratch for the per-expert routing core. thread_local
/// so concurrent grid cells never share it (see DESIGN.md "Performance
/// architecture" for the scratch ownership rules).
struct RouteScratch {
  std::vector<int64_t> quota;
  std::vector<int64_t> avail;
  std::vector<int64_t> spill;
  std::vector<int64_t> take;
  std::vector<GpuId> dsts;
  std::vector<std::pair<double, GpuId>> remainders;

  void Resize(int num_gpus) {
    quota.resize(static_cast<size_t>(num_gpus));
    avail.resize(static_cast<size_t>(num_gpus));
    spill.resize(static_cast<size_t>(num_gpus));
    take.resize(static_cast<size_t>(num_gpus));
    dsts.clear();
    dsts.reserve(static_cast<size_t>(num_gpus));
    remainders.reserve(static_cast<size_t>(num_gpus));
  }
};

RouteScratch& Scratch() {
  static thread_local RouteScratch scratch;
  return scratch;
}

/// Routes one expert (Alg. 3 applied to expert `e` alone) and accumulates
/// its contribution into `out` with the given sign. The token placement
/// (`take` values) is a pure function of the expert's assignment row and
/// placement row, so +1 followed by -1 cancels exactly. With `record` set,
/// an expert routed by the general (three-or-more-destination) path also
/// leaves every unsigned cell it wrote there, and the call returns true —
/// unless the record would outgrow `max_cells` (then it is left empty).
bool RouteExpert(const Assignment& assignment, const Placement& placement,
                 int e, int sign, RoutedAssignment* out,
                 std::vector<RoutedCell>* record = nullptr,
                 size_t max_cells = 0) {
  const int num_gpus = assignment.num_gpus();
  const int64_t total = assignment.ExpertTotal(e);
  if (total == 0) return false;
  const int n_e = placement.VExperts(e);
  FLEXMOE_CHECK_MSG(n_e >= 1, "expert with zero vExperts");
  // cap_e = ceil(I_e / n_e): even partitioning across vExperts.
  const int64_t cap = (total + n_e - 1) / n_e;

  RouteScratch& s = Scratch();
  s.Resize(num_gpus);

  // Per-node aggregation rides along when enabled (integer adds only, so
  // it cancels under +1/-1 exactly like the dispatch matrix itself).
  const bool aggregate = !out->node_of.empty();

  // Locality-first claim (Alg. 3 line 5).
  int64_t* expert_row = out->expert_gpu_tokens.row(e);
  const int64_t* assigned = assignment.row(e);
  const int* replicas = placement.CountsRow(e);
  int64_t spill_total = 0;
  s.dsts.clear();
  for (GpuId g = 0; g < num_gpus; ++g) {
    s.quota[static_cast<size_t>(g)] =
        cap * static_cast<int64_t>(replicas[g]);
    const int64_t local =
        std::min(s.quota[static_cast<size_t>(g)], assigned[g]);
    // Guarded: only hosts can claim locally (quota is 0 elsewhere), and the
    // unguarded += 0 would touch one fresh cacheline per GPU (the dispatch
    // diagonal) — measurably the whole routing cost at G = 512.
    if (local != 0) {
      expert_row[g] += sign * local;
      out->dispatch_to(g, g) += sign * local;
      if (aggregate) {
        out->node_dispatch_to(g, out->node_of[static_cast<size_t>(g)]) +=
            sign * local;
      }
    }
    s.avail[static_cast<size_t>(g)] = s.quota[static_cast<size_t>(g)] - local;
    s.spill[static_cast<size_t>(g)] = assigned[g] - local;
    spill_total += assigned[g] - local;
    // Spill can only land where capacity remains; only host GPUs have any
    // (quota > 0 requires a replica). Collecting them here (ascending, the
    // canonical order) lets every per-source loop below run over the
    // expert's hosts instead of all G — the difference between O(G^2) and
    // O(G + spill_sources * hosts) per expert at large EP.
    if (s.avail[static_cast<size_t>(g)] > 0) s.dsts.push_back(g);
  }
  if (spill_total == 0) return false;

  // Proportional spill (Alg. 3 lines 8-10) with largest-remainder
  // rounding, then a greedy pass for residual integer slack. The total
  // available capacity is maintained incrementally (every spilled token
  // lands somewhere, so it shrinks by exactly `sp` per source).
  int64_t total_avail = 0;
  for (GpuId g = 0; g < num_gpus; ++g) {
    total_avail += s.avail[static_cast<size_t>(g)];
  }
  // Single-destination fast path: the common large-EP shape (an expert's
  // vExperts all on its home GPU) leaves exactly one GPU with spare
  // capacity, so the proportional/remainder/residue machinery below acts
  // on one element. This inlines that one-element execution — the same
  // arithmetic in the same order, so the resulting takes are bit-identical
  // to the general path — at a few scalar ops per spilling source.
  if (s.dsts.size() == 1) {
    const GpuId dst = s.dsts.front();
    // Local avail copy (written back after the loop): the matrix writes
    // below could alias any int64_t in the compiler's view, which would
    // force a reload/spill of the counter every iteration.
    int64_t avail_dst = s.avail[static_cast<size_t>(dst)];
    // Destination-major rows: the whole loop writes two contiguous rows.
    int64_t* dispatch_row = out->dispatch_to.row(dst);
    int64_t* agg_row =
        aggregate ? out->node_dispatch_to.row(dst) : nullptr;
    for (GpuId src = 0; src < num_gpus; ++src) {
      const int64_t sp = s.spill[static_cast<size_t>(src)];
      if (sp <= 0) continue;
      FLEXMOE_CHECK_MSG(total_avail >= sp,
                        "router capacity accounting broken");
      const int64_t a = avail_dst;
      int64_t take;
      if (sp < (int64_t{1} << 50)) {
        // a == total_avail >= sp, so the general path computes
        // floor(fl(fl(sp*a)/a)) with two roundings of combined relative
        // error < 2^-51; for sp < 2^50 the absolute error is < 1/2, so the
        // floor lands on sp or sp-1, and the largest-remainder step (take
        // < a holds because a >= sp > sp-1) bumps sp-1 back to sp. The
        // result is provably take == sp — the divide can be skipped.
        take = sp;
      } else {
        // Out-of-range token counts: run the general path's arithmetic in
        // its exact form so the results stay bit-identical regardless.
        const double exact = static_cast<double>(sp) *
                             static_cast<double>(a) /
                             static_cast<double>(total_avail);
        take = std::min(a, static_cast<int64_t>(std::floor(exact)));
        int64_t leftover = sp - take;
        if (leftover > 0 && take < a) {  // largest-remainder step
          ++take;
          --leftover;
        }
        const int64_t extra = std::min(a - take, leftover);  // greedy residue
        take += extra;
        leftover -= extra;
        FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
      }
      if (take > 0) {
        expert_row[dst] += sign * take;
        dispatch_row[src] += sign * take;
        if (agg_row != nullptr) {
          agg_row[out->node_of[static_cast<size_t>(src)]] += sign * take;
        }
        avail_dst -= take;
      }
      total_avail -= sp;
    }
    s.avail[static_cast<size_t>(dst)] = avail_dst;
    return false;
  }

  // Two-destination fast path: the Policy Maker's expand candidates give
  // the hot expert exactly one extra host, so every candidate evaluation
  // routes it over two destinations. This transcribes the general loop's
  // per-source execution for |dsts| == 2 into scalars — the same FP ops in
  // the same order (proportional floors, largest-remainder in (frac desc,
  // id asc) order, greedy residue ascending) — so the takes are
  // bit-identical, without the remainder-vector and take-array traffic.
  if (s.dsts.size() == 2) {
    const GpuId d1 = s.dsts[0], d2 = s.dsts[1];  // ascending
    // Local avail copies (written back after the loop) — see above.
    int64_t av1 = s.avail[static_cast<size_t>(d1)];
    int64_t av2 = s.avail[static_cast<size_t>(d2)];
    int64_t* row1 = out->dispatch_to.row(d1);
    int64_t* row2 = out->dispatch_to.row(d2);
    int64_t* agg1 = aggregate ? out->node_dispatch_to.row(d1) : nullptr;
    int64_t* agg2 = aggregate ? out->node_dispatch_to.row(d2) : nullptr;
    for (GpuId src = 0; src < num_gpus; ++src) {
      const int64_t sp = s.spill[static_cast<size_t>(src)];
      if (sp <= 0) continue;
      FLEXMOE_CHECK_MSG(total_avail >= sp,
                        "router capacity accounting broken");
      const int64_t a1 = av1, a2 = av2;
      if (a1 <= 0 || a2 <= 0) {
        // One destination saturated: identical to the single-destination
        // path (the live avail == total_avail), including its no-divide
        // shortcut for in-range token counts.
        const bool live1 = a1 > 0;
        const int64_t a = live1 ? a1 : a2;
        int64_t take;
        if (sp < (int64_t{1} << 50)) {
          take = sp;  // provably equal to the general arithmetic (see above)
        } else {
          const double exact = static_cast<double>(sp) *
                               static_cast<double>(a) /
                               static_cast<double>(total_avail);
          take = std::min(a, static_cast<int64_t>(std::floor(exact)));
          int64_t leftover = sp - take;
          if (leftover > 0 && take < a) {
            ++take;
            --leftover;
          }
          const int64_t extra = std::min(a - take, leftover);
          take += extra;
          leftover -= extra;
          FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
        }
        if (take > 0) {
          const GpuId dst = live1 ? d1 : d2;
          expert_row[dst] += sign * take;
          (live1 ? row1 : row2)[src] += sign * take;
          if (aggregate) {
            (live1 ? agg1 : agg2)[out->node_of[static_cast<size_t>(src)]] +=
                sign * take;
          }
          (live1 ? av1 : av2) -= take;
        }
        total_avail -= sp;
        continue;
      }
      // Proportional floors for both destinations (the general loop's
      // push order is d1 then d2; ids ascending breaks frac ties, so the
      // remainder order is d1-first iff f1 >= f2).
      const double exact1 = static_cast<double>(sp) *
                            static_cast<double>(a1) /
                            static_cast<double>(total_avail);
      const double fl1 = std::floor(exact1);
      int64_t t1 = std::min(a1, static_cast<int64_t>(fl1));
      const double f1 = exact1 - fl1;
      const double exact2 = static_cast<double>(sp) *
                            static_cast<double>(a2) /
                            static_cast<double>(total_avail);
      const double fl2 = std::floor(exact2);
      int64_t t2 = std::min(a2, static_cast<int64_t>(fl2));
      const double f2 = exact2 - fl2;
      int64_t leftover = sp - t1 - t2;
      if (leftover > 0) {
        if (f1 >= f2) {  // largest-remainder order: d1, d2
          if (t1 < a1) { ++t1; --leftover; }
          if (leftover > 0 && t2 < a2) { ++t2; --leftover; }
        } else {  // d2, d1
          if (t2 < a2) { ++t2; --leftover; }
          if (leftover > 0 && t1 < a1) { ++t1; --leftover; }
        }
        if (leftover > 0) {  // greedy residue, ascending dst order
          const int64_t e1 = std::min(a1 - t1, leftover);
          t1 += e1;
          leftover -= e1;
          const int64_t e2 = std::min(a2 - t2, leftover);
          t2 += e2;
          leftover -= e2;
        }
        FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
      }
      if (t1 > 0) {
        expert_row[d1] += sign * t1;
        row1[src] += sign * t1;
        if (agg1 != nullptr) {
          agg1[out->node_of[static_cast<size_t>(src)]] += sign * t1;
        }
        av1 -= t1;
      }
      if (t2 > 0) {
        expert_row[d2] += sign * t2;
        row2[src] += sign * t2;
        if (agg2 != nullptr) {
          agg2[out->node_of[static_cast<size_t>(src)]] += sign * t2;
        }
        av2 -= t2;
      }
      total_avail -= sp;
    }
    s.avail[static_cast<size_t>(d1)] = av1;
    s.avail[static_cast<size_t>(d2)] = av2;
    return false;
  }

  // Appends one cell to the record, abandoning it (for good) once it would
  // exceed max_cells.
  const auto record_cell = [&](GpuId dst, GpuId src, int64_t tokens) {
    if (record == nullptr) return;
    if (record->size() < max_cells) {
      record->push_back({dst, src, tokens});
    } else {
      record->clear();
      record = nullptr;
    }
  };
  if (record != nullptr) {
    // The locality-first claims written above (quota - avail per host).
    record->clear();
    for (GpuId g = 0; g < num_gpus; ++g) {
      const int64_t local =
          s.quota[static_cast<size_t>(g)] - s.avail[static_cast<size_t>(g)];
      if (local != 0) record_cell(g, g, local);
    }
  }

  for (GpuId src = 0; src < num_gpus; ++src) {
    const int64_t sp = s.spill[static_cast<size_t>(src)];
    if (sp <= 0) continue;
    FLEXMOE_CHECK_MSG(total_avail >= sp, "router capacity accounting broken");

    // Proportional allocation over the expert's hosts (`s.dsts` is exactly
    // the ascending-id set the full-G scan would visit: every other GPU has
    // zero capacity, which the old scan skipped).
    s.remainders.clear();
    int64_t allocated = 0;
    for (const GpuId dst : s.dsts) {
      s.take[static_cast<size_t>(dst)] = 0;
      const int64_t a = s.avail[static_cast<size_t>(dst)];
      if (a <= 0) continue;
      const double exact = static_cast<double>(sp) *
                           static_cast<double>(a) /
                           static_cast<double>(total_avail);
      const int64_t base =
          std::min(a, static_cast<int64_t>(std::floor(exact)));
      s.take[static_cast<size_t>(dst)] = base;
      allocated += base;
      s.remainders.push_back({exact - std::floor(exact), dst});
    }
    // The comparator is a strict total order (destinations are unique), so
    // the sorted permutation is unique and any sorting algorithm produces
    // it; insertion sort skips std::sort's dispatch overhead at the tiny
    // sizes (|hosts|) seen here.
    const auto remainder_less = [](const std::pair<double, GpuId>& a,
                                   const std::pair<double, GpuId>& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    };
    for (size_t i = 1; i < s.remainders.size(); ++i) {
      const std::pair<double, GpuId> key = s.remainders[i];
      size_t j = i;
      for (; j > 0 && remainder_less(key, s.remainders[j - 1]); --j) {
        s.remainders[j] = s.remainders[j - 1];
      }
      s.remainders[j] = key;
    }
    int64_t leftover = sp - allocated;
    for (const auto& [frac, dst] : s.remainders) {
      if (leftover <= 0) break;
      if (s.take[static_cast<size_t>(dst)] <
          s.avail[static_cast<size_t>(dst)]) {
        ++s.take[static_cast<size_t>(dst)];
        --leftover;
      }
    }
    // Greedy residue (rounding can leave slack when many dsts saturate).
    for (const GpuId dst : s.dsts) {
      if (leftover <= 0) break;
      const int64_t room =
          s.avail[static_cast<size_t>(dst)] - s.take[static_cast<size_t>(dst)];
      const int64_t extra = std::min(room, leftover);
      s.take[static_cast<size_t>(dst)] += extra;
      leftover -= extra;
    }
    FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");

    // Destination-major writes: each dst's cell for this src sits at
    // column `src` of the dst row, so consecutive sources touch
    // consecutive bytes of the same few (|hosts|) rows.
    const int src_node =
        aggregate ? out->node_of[static_cast<size_t>(src)] : 0;
    for (const GpuId dst : s.dsts) {
      const int64_t t = s.take[static_cast<size_t>(dst)];
      if (t <= 0) continue;
      expert_row[dst] += sign * t;
      out->dispatch_to(dst, src) += sign * t;
      if (aggregate) out->node_dispatch_to(dst, src_node) += sign * t;
      record_cell(dst, src, t);
      s.avail[static_cast<size_t>(dst)] -= t;
    }
    total_avail -= sp;
  }
  return record != nullptr;
}

}  // namespace

RoutedAssignment FlexibleRouter::Route(const Assignment& assignment,
                                       const Placement& placement) {
  RoutedAssignment out;
  RouteInto(assignment, placement, &out);
  return out;
}

void FlexibleRouter::RouteInto(const Assignment& assignment,
                               const Placement& placement,
                               RoutedAssignment* out) {
  FLEXMOE_CHECK(out != nullptr);
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();

  out->num_experts = num_experts;
  out->num_gpus = num_gpus;
  out->expert_gpu_tokens.assign(num_experts, num_gpus, 0);
  out->dispatch_to.assign(num_gpus, num_gpus, 0);
  if (!out->node_of.empty()) {
    FLEXMOE_CHECK(static_cast<int>(out->node_of.size()) == num_gpus);
    out->node_dispatch_to.assign(num_gpus, out->num_nodes, 0);
  }

  for (int e = 0; e < num_experts; ++e) {
    RouteExpert(assignment, placement, e, +1, out);
  }
}

void FlexibleRouter::AccumulateExpert(const Assignment& assignment,
                                      const Placement& placement, int expert,
                                      int sign, RoutedAssignment* out) {
  FLEXMOE_CHECK(out != nullptr);
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  FLEXMOE_CHECK(expert >= 0 && expert < assignment.num_experts());
  FLEXMOE_CHECK(sign == 1 || sign == -1);
  RouteExpert(assignment, placement, expert, sign, out);
}

bool FlexibleRouter::RetractExpertRecording(const Assignment& assignment,
                                            const Placement& placement,
                                            int expert, RoutedAssignment* out,
                                            std::vector<RoutedCell>* cells,
                                            size_t max_cells) {
  FLEXMOE_CHECK(out != nullptr && cells != nullptr);
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  FLEXMOE_CHECK(expert >= 0 && expert < assignment.num_experts());
  return RouteExpert(assignment, placement, expert, -1, out, cells,
                     max_cells);
}

void FlexibleRouter::RetractCells(int expert,
                                  const std::vector<RoutedCell>& cells,
                                  RoutedAssignment* out) {
  FLEXMOE_CHECK(out != nullptr);
  FLEXMOE_CHECK(expert >= 0 && expert < out->num_experts);
  int64_t* expert_row = out->expert_gpu_tokens.row(expert);
  const bool aggregate = !out->node_of.empty();
  for (const RoutedCell& c : cells) {
    expert_row[c.dst] -= c.tokens;
    out->dispatch_to(c.dst, c.src) -= c.tokens;
    if (aggregate) {
      out->node_dispatch_to(c.dst, out->node_of[static_cast<size_t>(c.src)]) -=
          c.tokens;
    }
  }
}

}  // namespace flexmoe
