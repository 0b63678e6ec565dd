// Driving the placement machinery by hand: this example uses the low-level
// public API — Placement, the Expand/Shrink/Migrate primitives, the cost
// model (Eqs. 5, 7-9), and the Policy Maker — to balance a skewed workload
// step by step, printing each accepted modification. It is the inner loop
// of the paper's Algorithm 1, unrolled for inspection, and ends with the
// background Migrate pass consolidating replica groups within nodes.
//
//   ./build/examples/custom_policy

#include <cstdio>

#include "collective/profiler.h"
#include "core/balance.h"
#include "core/policy_maker.h"
#include "gate/trace_generator.h"

using namespace flexmoe;

// Total Eq. 9 replica-sync seconds across all experts — the objective the
// Migrate pass lowers.
double TotalSyncSeconds(const CostModel& cost, const Placement& placement) {
  double total = 0.0;
  for (int e = 0; e < placement.num_experts(); ++e) {
    total += cost.SyncSeconds(placement, e);
  }
  return total;
}

int main() {
  // A 2-node cluster of 16 GPUs and a 16-expert MoE layer.
  TopologyOptions topt = AzureA100Options(16);
  const Topology topo = *Topology::Create(topt);
  ModelConfig model = GptMoES();
  model.num_experts = 16;
  Profiler profiler(&topo, GpuSpec{}, ProfilerOptions{});
  const HardwareProfile profile =
      *profiler.Calibrate(model.expert_fwdbwd_flops_per_token());
  const CostModel cost(&profile, ShapeFromModel(model));
  const PolicyMaker policy(&cost, PolicyMakerOptions{});

  // A skewed token assignment: expert 0 receives 20x the average load.
  Assignment workload(16, 16);
  for (GpuId g = 0; g < 16; ++g) {
    workload.set(0, g, 4000);
    for (int e = 1; e < 16; ++e) workload.set(e, g, 200);
  }

  // Start from classic expert parallelism.
  PlacementOptions popt;
  popt.num_experts = 16;
  popt.num_gpus = 16;
  Placement placement = *Placement::ExpertParallel(popt);

  std::printf("initial: balance=%.2f estimated layer time=%.2f ms\n",
              BalanceRatioOf(workload, placement),
              cost.EstimateLayerSeconds(workload, placement) * 1e3);

  // Algorithm 1's inner loop, by hand.
  for (int round = 0; round < 32; ++round) {
    const std::vector<ModOp> plan =
        policy.MakeSchedulingPlan(workload, placement);
    if (plan.empty()) {
      std::printf("round %2d: no beneficial modification -> stop\n", round);
      break;
    }
    for (const ModOp& op : plan) {
      FLEXMOE_CHECK_OK(ApplyOp(op, &placement));
      std::printf("round %2d: %-28s balance=%.2f  est=%.2f ms\n", round,
                  op.ToString().c_str(),
                  BalanceRatioOf(workload, placement),
                  cost.EstimateLayerSeconds(workload, placement) * 1e3);
    }
  }

  // The background Migrate pass (Algorithm 1 line 9): consolidate replica
  // groups onto fewer nodes to cut AllReduce cost.
  std::printf("\nsync cost before migrations: %.3f ms\n",
              TotalSyncSeconds(cost, placement) * 1e3);
  for (const ModOp& op : policy.PlanMigrations(placement, 8)) {
    FLEXMOE_CHECK_OK(ApplyOp(op, &placement));
    std::printf("  %s\n", op.ToString().c_str());
  }
  std::printf("sync cost after migrations:  %.3f ms\n",
              TotalSyncSeconds(cost, placement) * 1e3);

  std::printf("\nfinal placement (expert -> GPU x vExperts):\n%s",
              placement.ToString().c_str());
  FLEXMOE_CHECK_OK(placement.Validate());
  return 0;
}
