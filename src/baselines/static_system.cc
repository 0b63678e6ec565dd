#include "baselines/static_system.h"

#include <algorithm>
#include <utility>

#include "core/balance.h"
#include "core/step_accounting.h"
#include "gate/capacity.h"

namespace flexmoe {

namespace {

/// Safety bound on FasterMoE's shadowed experts per layer per step (the
/// original limits shadows by available memory).
constexpr int kMaxShadowsPerLayer = 8;

/// Routes `assignment` on the one-vExpert-per-expert `placement`, except
/// that each expert in `shadows` processes its tokens at their source GPU
/// (no All-to-All for those tokens).
RoutedAssignment RouteShadowed(const Assignment& assignment,
                               const Placement& placement,
                               const std::vector<int>& shadows) {
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  RoutedAssignment r;
  r.num_experts = num_experts;
  r.num_gpus = num_gpus;
  r.expert_gpu_tokens.assign(num_experts, num_gpus, 0);
  r.dispatch_to.assign(num_gpus, num_gpus, 0);
  std::vector<bool> is_shadowed(static_cast<size_t>(num_experts), false);
  for (int e : shadows) is_shadowed[static_cast<size_t>(e)] = true;
  for (int e = 0; e < num_experts; ++e) {
    const int64_t* counts = assignment.row(e);
    int64_t* expert_row = r.expert_gpu_tokens.row(e);
    const bool local = is_shadowed[static_cast<size_t>(e)];
    const GpuId home = local ? -1 : placement.HostGpus(e).front();
    for (int g = 0; g < num_gpus; ++g) {
      const int64_t tokens = counts[g];
      if (tokens <= 0) continue;
      const GpuId dest = local ? g : home;
      expert_row[dest] += tokens;
      r.dispatch(g, dest) += tokens;
    }
  }
  return r;
}

}  // namespace

Result<Placement> FixedExpertParallelPlacement(int num_experts,
                                               int num_gpus) {
  PlacementOptions popt;
  popt.num_experts = num_experts;
  popt.num_gpus = num_gpus;
  popt.slots_per_gpu = std::max(1, (num_experts + num_gpus - 1) / num_gpus);
  FLEXMOE_RETURN_IF_ERROR(popt.Validate());
  // Build directly instead of Placement::ExpertParallel: baselines hold
  // exactly ONE vExpert per expert (no packing, no replicas).
  Placement p = *Placement::ExpertParallel(popt);
  for (int e = 0; e < num_experts; ++e) {
    const std::vector<GpuId> hosts = p.HostGpus(e);
    FLEXMOE_CHECK(hosts.size() == 1);
    while (p.VExpertsOn(e, hosts[0]) > 1) {
      FLEXMOE_RETURN_IF_ERROR(p.RemoveVExpert(e, hosts[0]));
    }
  }
  FLEXMOE_RETURN_IF_ERROR(p.Validate());
  return p;
}

SwipeRebalance RebalanceStrict(const Assignment& assignment) {
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  const int64_t total = assignment.Total();
  const int64_t cap = (total + num_experts - 1) / num_experts;

  SwipeRebalance result;
  result.balanced = Assignment(num_experts, num_gpus);

  // Per-expert room below the uniform cap.
  std::vector<int64_t> room(static_cast<size_t>(num_experts), 0);
  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    room[static_cast<size_t>(e)] = std::max<int64_t>(0, cap - load);
  }

  // Keep up to cap per expert (proportionally by source GPU), collect the
  // per-GPU overflow to redistribute.
  std::vector<int64_t> overflow_per_gpu(static_cast<size_t>(num_gpus), 0);
  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    if (load <= cap) {
      for (int g = 0; g < num_gpus; ++g) {
        result.balanced.add(e, g, assignment.at(e, g));
      }
      continue;
    }
    int64_t to_keep = cap;
    for (int g = 0; g < num_gpus; ++g) {
      const int64_t here = assignment.at(e, g);
      const int64_t keep = std::min(
          here, static_cast<int64_t>(static_cast<double>(here) *
                                     static_cast<double>(cap) /
                                     static_cast<double>(load)));
      result.balanced.add(e, g, keep);
      to_keep -= keep;
      overflow_per_gpu[static_cast<size_t>(g)] += here - keep;
    }
    // Rounding slack: keep a few more tokens (they are not re-assigned).
    for (int g = 0; g < num_gpus && to_keep > 0; ++g) {
      const int64_t extra =
          std::min(to_keep, overflow_per_gpu[static_cast<size_t>(g)]);
      if (extra > 0) {
        result.balanced.add(e, g, extra);
        overflow_per_gpu[static_cast<size_t>(g)] -= extra;
        to_keep -= extra;
      }
    }
  }

  // Re-assign each GPU's overflow to experts with room (round-robin over
  // experts, deterministic).
  int e_cursor = 0;
  for (int g = 0; g < num_gpus; ++g) {
    int64_t pending = overflow_per_gpu[static_cast<size_t>(g)];
    result.reassigned += pending;
    int scanned = 0;
    while (pending > 0 && scanned <= num_experts) {
      const int e = e_cursor;
      e_cursor = (e_cursor + 1) % num_experts;
      ++scanned;
      int64_t& r = room[static_cast<size_t>(e)];
      if (r <= 0) continue;
      const int64_t take = std::min(pending, r);
      result.balanced.add(e, g, take);
      r -= take;
      pending -= take;
      scanned = 0;
    }
    // Anything truly unplaceable (cap rounding) returns to its own expert:
    // arbitrarily give it to expert 0 on this GPU; negligible counts.
    if (pending > 0) {
      result.balanced.add(0, g, pending);
    }
  }
  return result;
}

Status StaticSystemOptions::Validate() const {
  FLEXMOE_RETURN_IF_ERROR(model.Validate());
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  FLEXMOE_RETURN_IF_ERROR(elastic.Validate());
  FLEXMOE_RETURN_IF_ERROR(pipeline.Validate());
  return Status::OK();
}

Result<std::unique_ptr<StaticSystem>> StaticSystem::Create(
    const StaticSystemOptions& options, const Topology* topo,
    const HardwareProfile* profile) {
  FLEXMOE_CHECK(topo != nullptr && profile != nullptr);
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  if (topo->num_gpus() != options.num_gpus) {
    return Status::InvalidArgument("topology GPU count mismatch");
  }
  FLEXMOE_ASSIGN_OR_RETURN(
      Placement placement,
      FixedExpertParallelPlacement(options.model.num_experts,
                                   options.num_gpus));
  return std::unique_ptr<StaticSystem>(
      new StaticSystem(options, topo, profile, std::move(placement)));
}

StaticSystem::StaticSystem(const StaticSystemOptions& options,
                           const Topology* topo,
                           const HardwareProfile* profile, Placement placement)
    : options_(options),
      profile_(profile),
      cluster_(topo),
      elastic_(options.num_gpus, topo,
               [&options] {
                 ElasticControllerOptions o = options.elastic;
                 o.elastic = false;  // static layout: restart + failover
                 return o;
               }()),
      placement_(std::move(placement)),
      step_executor_(&cluster_, profile, options.model),
      all_gpus_(static_cast<size_t>(options.num_gpus)) {
  step_executor_.set_cluster_health(&elastic_.health());
  step_executor_.set_pipeline(options.pipeline);
  for (int g = 0; g < options.num_gpus; ++g) {
    all_gpus_[static_cast<size_t>(g)] = g;
  }
  // Broadcast of fp16 parameters (+ the global AllReduce of gradients in
  // training): both inputs are fixed, so the price is too.
  const int num_gpus = options.num_gpus;
  const double param_bytes =
      static_cast<double>(options.model.expert_params()) *
      options.model.param_bytes;
  serve_shadow_price_ =
      param_bytes / profile->BandwidthBytesPerSec(0, num_gpus > 8 ? 8 : 1) +
      profile->LatencySeconds(0, num_gpus > 8 ? 8 : 1) *
          static_cast<double>(num_gpus);
  train_shadow_price_ =
      serve_shadow_price_ +
      profile->AllReduceSeconds(options.model.expert_grad_bytes(), all_gpus_);
}

std::string StaticSystem::name() const {
  switch (options_.policy) {
    case TokenPolicy::kCapacityDrop:
      return "DeepSpeed";
    case TokenPolicy::kStrictRebalance:
      return "SWIPE";
    case TokenPolicy::kShadow:
      return "FasterMoE";
  }
  return "";
}

Status StaticSystem::InstallFaultPlan(const FaultPlan& plan) {
  return elastic_.InstallPlan(plan);
}

void StaticSystem::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  step_executor_.set_observability(obs);
  elastic_.SetObservability(obs);
  if (obs::Tracer* tr = obs::TracerOf(obs); tr != nullptr) {
    tr->set_num_gpus(options_.num_gpus);
  }
}

std::vector<int> StaticSystem::SelectShadows(const Assignment& assignment,
                                             bool serving) const {
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  const double flops = serving
                           ? options_.model.expert_fwd_flops_per_token()
                           : options_.model.expert_fwdbwd_flops_per_token();
  const double shadow_price =
      serving ? serve_shadow_price_ : train_shadow_price_;

  // Shadowing relieves the bottleneck only down to the mean per-GPU load
  // (below that, other experts keep the GPUs busy anyway) — this is the
  // essence of FasterMoE's performance-model-driven policy.
  const double mean_gpu_load =
      static_cast<double>(assignment.Total()) / num_gpus;
  std::vector<std::pair<double, int>> gains;
  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    if (load <= 0 || static_cast<double>(load) <= mean_gpu_load) continue;
    const double saved =
        profile_->ComputeSeconds(static_cast<double>(load), flops) -
        profile_->ComputeSeconds(mean_gpu_load, flops);
    const double gain = saved - shadow_price;
    if (gain > 0.0) gains.push_back({gain, e});
  }
  std::sort(gains.begin(), gains.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (static_cast<int>(gains.size()) > kMaxShadowsPerLayer) {
    gains.resize(static_cast<size_t>(kMaxShadowsPerLayer));
  }
  std::vector<int> shadows;
  shadows.reserve(gains.size());
  for (const auto& [gain, e] : gains) shadows.push_back(e);
  std::sort(shadows.begin(), shadows.end());
  return shadows;
}

StepMetrics StaticSystem::RunStep(
    const std::vector<Assignment>& layer_assignments) {
  return RunStepImpl(layer_assignments, /*serving=*/false);
}

StepMetrics StaticSystem::ServeMicrobatch(
    const std::vector<Assignment>& layer_assignments) {
  return RunStepImpl(layer_assignments, /*serving=*/true);
}

StepMetrics StaticSystem::RunStepImpl(
    const std::vector<Assignment>& layer_assignments, bool serving) {
  FLEXMOE_CHECK(static_cast<int>(layer_assignments.size()) ==
                options_.model.num_moe_layers);
  const int num_layers = static_cast<int>(layer_assignments.size());

  // 1. Fault boundary: a static system restarts from checkpoint on
  //    membership change, its dead devices' experts fail over to one peer
  //    each, and every stream blocks for the recovery time.
  ElasticController::StepReport fault_report;
  if (elastic_.active()) {
    fault_report = elastic_.OnStepBoundary(
        step_, {&placement_}, nullptr, options_.model.expert_state_bytes());
    const double boundary = step_executor_.Frontier();
    TraceFaultBoundary(obs_, fault_report, boundary,
                       fault_report.recovery_seconds);
    if (fault_report.recovery_seconds > 0.0) {
      cluster_.BlockAll(boundary, fault_report.recovery_seconds);
    }
  }

  // 2.-4. Per layer: adjust the assignment to the membership, apply the
  //    token policy, and (serving) collect the overflow to recirculate.
  //    A served response cannot skip tokens through the residual
  //    connection, nor use a wrong expert's output, so the overflow
  //    re-executes on its true experts in a second forward pass.
  const bool adjust = elastic_.NeedsAssignmentAdjustment();
  int64_t total = 0, dropped = 0, reassigned = 0, recirculated = 0;
  double balance_sum = 0.0;
  std::vector<RoutedAssignment> routed;
  routed.reserve(static_cast<size_t>(serving ? 2 * num_layers : num_layers));
  std::vector<Assignment> overflow;
  last_shadows_.assign(static_cast<size_t>(num_layers), {});
  for (int l = 0; l < num_layers; ++l) {
    const Assignment& original = layer_assignments[static_cast<size_t>(l)];
    total += original.Total();
    const Assignment adjusted =
        adjust ? elastic_.AdjustAssignment(original, &dropped) : Assignment();
    const Assignment& assignment = adjust ? adjusted : original;
    switch (options_.policy) {
      case TokenPolicy::kShadow: {
        std::vector<int>& shadows = last_shadows_[static_cast<size_t>(l)];
        shadows = SelectShadows(assignment, serving);
        routed.push_back(RouteShadowed(assignment, placement_, shadows));
        break;
      }
      case TokenPolicy::kStrictRebalance:
        if (!serving) {
          const SwipeRebalance rb = RebalanceStrict(assignment);
          reassigned += rb.reassigned;
          routed.push_back(FlexibleRouter::Route(rb.balanced, placement_));
          break;
        }
        // Serving caps every expert at RebalanceStrict's uniform average.
        [[fallthrough]];
      case TokenPolicy::kCapacityDrop: {
        const double capacity_factor =
            options_.policy == TokenPolicy::kStrictRebalance
                ? 1.0
                : options_.capacity_factor;
        if (capacity_factor <= 0.0) {
          routed.push_back(FlexibleRouter::Route(assignment, placement_));
          break;
        }
        const CapacityResult capped =
            ApplyCapacity(assignment, capacity_factor);
        if (serving && capped.dropped > 0) {
          recirculated += capped.dropped;
          overflow.push_back(CapacityOverflow(assignment, capped.kept));
        } else {
          dropped += capped.dropped;
        }
        routed.push_back(FlexibleRouter::Route(capped.kept, placement_));
        break;
      }
    }
    balance_sum += BalanceRatio(routed.back().PerGpuComputeLoads());
  }
  for (const Assignment& extra : overflow) {
    routed.push_back(FlexibleRouter::Route(extra, placement_));
  }

  // 5. LayerWork: the fixed placement contributes no replica sync; each
  //    shadow adds a parameter broadcast from its home GPU and, in
  //    training, a global shadow-gradient AllReduce.
  std::vector<LayerWork> work(routed.size());
  for (size_t l = 0; l < routed.size(); ++l) {
    work[l].routed = &routed[l];
    work[l].placement = &placement_;
  }
  const double param_bytes =
      static_cast<double>(options_.model.expert_params()) *
      options_.model.param_bytes;
  for (int l = 0; l < num_layers; ++l) {
    LayerWork& w = work[static_cast<size_t>(l)];
    for (int e : last_shadows_[static_cast<size_t>(l)]) {
      w.broadcasts.push_back({placement_.HostGpus(e).front(), param_bytes});
      if (!serving) w.extra_sync_groups.push_back(all_gpus_);
    }
  }

  // 6. Execute.
  const StepTiming timing = serving ? step_executor_.ExecuteForward(work)
                                    : step_executor_.ExecuteStep(work, nullptr);

  // 7. Metrics. SWIPE's re-assigned tokens ARE processed (expert
  //    efficiency stays high) but by the wrong experts, so they cost token
  //    efficiency — Figure 7(a)'s trade-off.
  StepMetrics metrics;
  metrics.step = step_;
  metrics.balance_ratio = balance_sum / num_layers;
  metrics.tokens_total = total;
  metrics.tokens_dropped = dropped;
  metrics.tokens_recirculated = recirculated;
  MetricsFromTiming(timing, fault_report.recovery_seconds, reassigned,
                    elastic_.active() ? elastic_.health().num_alive() : 0,
                    &metrics);
  FillFaultMetrics(elastic_, fault_report, {&placement_}, &metrics);
  RecordStepObservability(obs_, serving, metrics);
  ++step_;
  stats_.Add(metrics);
  return metrics;
}

}  // namespace flexmoe
