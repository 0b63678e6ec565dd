// Property tests for LayerCostState (DESIGN.md Section 10): randomized
// Apply/Undo walks must agree with a from-scratch EstimateLayer evaluation
// EXACTLY (== on doubles, not near) at every depth, for both objectives
// (include_sync on/off) and both Eq. 8 estimation modes (flat pairwise and
// hierarchical per-node). Exact agreement is the contract the planner's
// byte-identity guarantee rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/incremental_cost.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

Placement MakePlacement(int experts, int gpus, int slots) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

Assignment RandomAssignment(Rng& rng, int experts, int gpus) {
  Assignment a(experts, gpus);
  for (int e = 0; e < experts; ++e) {
    // A few experts receive no tokens at all (their compute terms must
    // vanish exactly); the rest are skewed so the hot/cold machinery has
    // something to chew on.
    if (rng.UniformInt(8) == 0) continue;
    const int64_t scale = 1 + rng.UniformInt(4000);
    for (int g = 0; g < gpus; ++g) {
      a.set(e, g, static_cast<int64_t>(rng.UniformInt(scale)));
    }
  }
  return a;
}

/// A random op with in-bounds ids; roughly half are infeasible on any
/// given placement, exercising the rejection path.
ModOp RandomOp(Rng& rng, const Placement& p) {
  const int experts = p.num_experts();
  const int gpus = p.num_gpus();
  const int e = static_cast<int>(rng.UniformInt(experts));
  switch (rng.UniformInt(3)) {
    case 0:
      return MakeShrink(e, static_cast<GpuId>(rng.UniformInt(gpus)));
    case 1: {
      const GpuId dst = static_cast<GpuId>(rng.UniformInt(gpus));
      const GpuId src = rng.UniformInt(2) == 0
                            ? -1
                            : static_cast<GpuId>(rng.UniformInt(gpus));
      return MakeExpand(e, src, dst);
    }
    default:
      return MakeMigrate(e, static_cast<GpuId>(rng.UniformInt(gpus)),
                         static_cast<int>(rng.UniformInt(experts)),
                         static_cast<GpuId>(rng.UniformInt(gpus)));
  }
}

/// The exact-agreement oracle: every cached quantity equals a from-scratch
/// route + estimate of the same (assignment, placement) pair.
void ExpectMatchesScratch(const CostModel& cost, const Assignment& a,
                          const Placement& p, bool include_sync,
                          const LayerCostState& state) {
  const RoutedAssignment routed = FlexibleRouter::Route(a, p);
  const LayerCostEstimate ref = cost.EstimateLayer(routed, p, include_sync);
  ASSERT_EQ(state.per_gpu_seconds().size(), ref.per_gpu_seconds.size());
  for (size_t g = 0; g < ref.per_gpu_seconds.size(); ++g) {
    ASSERT_EQ(state.per_gpu_seconds()[g], ref.per_gpu_seconds[g])
        << "per-GPU total diverged at g" << g;
  }
  ASSERT_EQ(state.TotalSeconds(), ref.total_seconds);
  ASSERT_EQ(state.Score(), Score8Norm(ref.per_gpu_seconds));
  ASSERT_EQ(state.per_gpu_compute_tokens(), routed.PerGpuComputeTokens());
  for (int e = 0; e < a.num_experts(); ++e) {
    ASSERT_EQ(state.vexpert_capacities()[static_cast<size_t>(e)],
              static_cast<double>(a.ExpertTotal(e)) /
                  static_cast<double>(p.VExperts(e)))
        << "capacity diverged at e" << e;
  }
  const LayerCostEstimate mat = state.ToEstimate();
  ASSERT_EQ(mat.total_seconds, ref.total_seconds);
  ASSERT_EQ(mat.per_gpu_seconds, ref.per_gpu_seconds);
  ASSERT_EQ(mat.per_gpu_a2a, ref.per_gpu_a2a);
  ASSERT_EQ(mat.per_gpu_sync, ref.per_gpu_sync);
}

/// Shape of one random walk. The default is a 2 x 4 cluster; the wide
/// shape spreads experts over many hosts, so retractions keep taking the
/// router's general multi-destination path — the one LayerCostState
/// replays from recorded cells instead of re-routing.
struct WalkShape {
  int nodes = 2;
  int gpus_per_node = 4;
  int slots = 3;
  int warmup_ops = 16;
  /// After warm-up, the hottest expert is expanded onto every second GPU
  /// until it has this many hosts (0: no spreading).
  int spread_hosts = 0;
  /// Reset by taking over a caller-computed routing (the Scheduler's
  /// one-route-per-trigger path) instead of routing inside Reset.
  bool takeover = false;
  /// When set, counts the applied ops' touched experts whose retraction
  /// takes the general path with more cells than a record may hold.
  int* over_cap_retractions = nullptr;
};

/// Cells the router's general path writes when it retracts `expert` under
/// `p`, or 0 if a one- or two-destination fast path (or no spill) routes
/// the expert. Works on a scratch routing, so it leaves nothing behind.
size_t GeneralPathCells(const Assignment& a, const Placement& p,
                        int expert) {
  RoutedAssignment scratch = FlexibleRouter::Route(a, p);
  std::vector<RoutedCell> cells;
  const bool recorded = FlexibleRouter::RetractExpertRecording(
      a, p, expert, &scratch, &cells, std::numeric_limits<size_t>::max());
  return recorded ? cells.size() : 0;
}

/// One randomized walk: Apply random ops (feasible and not), Undo at
/// random, compare against the oracle at every step, then unwind to depth
/// zero and require bitwise restoration of the reset point.
void RunRandomWalk(bool include_sync, bool hierarchical, uint64_t seed,
                   const WalkShape& shape = WalkShape{}) {
  SCOPED_TRACE(testing::Message()
               << "include_sync=" << include_sync
               << " hierarchical=" << hierarchical << " seed=" << seed
               << " gpus=" << shape.nodes * shape.gpus_per_node
               << " takeover=" << shape.takeover);
  TestEnv env = TestEnv::MakeGrid(shape.nodes, shape.gpus_per_node);
  env.profile.set_hierarchical_a2a(hierarchical);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  const int gpus = shape.nodes * shape.gpus_per_node;

  Rng rng(seed);
  const Assignment a = RandomAssignment(rng, model.num_experts, gpus);
  Placement start = MakePlacement(model.num_experts, gpus, shape.slots);
  for (int i = 0; i < shape.warmup_ops; ++i) {
    const Status ignored = ApplyOp(RandomOp(rng, start), &start);
    (void)ignored;
  }
  if (shape.spread_hosts > 0) {
    int hot = 0;
    for (int e = 1; e < model.num_experts; ++e) {
      if (a.ExpertTotal(e) > a.ExpertTotal(hot)) hot = e;
    }
    // Every slot is taken: free one on each new host by shrinking an
    // expert that keeps other vExperts.
    for (GpuId g = 0; g < gpus; g += 2) {
      if (static_cast<int>(start.HostGpus(hot).size()) >= shape.spread_hosts) {
        break;
      }
      if (start.VExpertsOn(hot, g) > 0) continue;
      for (int x = 0; x < model.num_experts; ++x) {
        if (x == hot || start.VExpertsOn(x, g) == 0 || start.VExperts(x) < 2) {
          continue;
        }
        ASSERT_TRUE(ApplyOp(MakeShrink(x, g), &start).ok());
        ASSERT_TRUE(
            ApplyOp(MakeExpand(hot, start.HostGpus(hot).front(), g), &start)
                .ok());
        break;
      }
    }
    ASSERT_EQ(static_cast<int>(start.HostGpus(hot).size()), shape.spread_hosts);
  }

  LayerCostState state(&cost, include_sync);
  if (shape.takeover) {
    RoutedAssignment routed = FlexibleRouter::Route(a, start);
    state.Reset(a, start, &routed);
  } else {
    state.Reset(a, start);
  }
  ExpectMatchesScratch(cost, a, start, include_sync, state);

  // `mirror[d]` is the placement the state must equal at depth d.
  std::vector<Placement> mirror{start};
  int applies = 0;
  int rejects = 0;
  for (int it = 0; it < 1500; ++it) {
    if (state.depth() > 0 && rng.UniformInt(4) == 0) {
      state.Undo();
      mirror.pop_back();
      ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
      continue;
    }
    const ModOp op = RandomOp(rng, mirror.back());
    Placement trial = mirror.back();
    const bool feasible = ApplyOp(op, &trial).ok();
    const double before = state.TotalSeconds();
    const int depth_before = state.depth();
    ASSERT_EQ(state.Apply(op), feasible) << op.ToString();
    if (!feasible) {
      // Rejection must leave the state untouched.
      ASSERT_EQ(state.TotalSeconds(), before);
      ASSERT_EQ(state.depth(), depth_before);
      ++rejects;
      continue;
    }
    if (shape.over_cap_retractions != nullptr) {
      const int partner =
          op.partner_expert != op.expert ? op.partner_expert : -1;
      for (const int e : {op.expert, partner}) {
        if (e >= 0 && GeneralPathCells(a, mirror.back(), e) >
                          LayerCostState::kMaxRetractCells) {
          ++*shape.over_cap_retractions;
        }
      }
    }
    mirror.push_back(std::move(trial));
    ++applies;
    ExpectMatchesScratch(cost, a, mirror.back(), include_sync, state);
  }
  // The walk must have exercised both paths.
  EXPECT_GT(applies, 25);
  EXPECT_GT(rejects, 100);

  while (state.depth() > 0) {
    state.Undo();
    mirror.pop_back();
  }
  ExpectMatchesScratch(cost, a, mirror.front(), include_sync, state);
}

TEST(LayerCostStateTest, RandomWalkTrainingObjectiveFlat) {
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/false, 1);
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/false, 2);
}

TEST(LayerCostStateTest, RandomWalkServeObjectiveFlat) {
  RunRandomWalk(/*include_sync=*/false, /*hierarchical=*/false, 3);
}

TEST(LayerCostStateTest, RandomWalkTrainingObjectiveHierarchical) {
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/true, 4);
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/true, 5);
}

TEST(LayerCostStateTest, RandomWalkServeObjectiveHierarchical) {
  RunRandomWalk(/*include_sync=*/false, /*hierarchical=*/true, 6);
}

TEST(LayerCostStateTest, RandomWalkWideClusterMultiDestinationRetracts) {
  WalkShape wide;
  wide.nodes = 4;
  wide.gpus_per_node = 4;
  wide.slots = 4;
  wide.warmup_ops = 96;
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/false, 7, wide);
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/true, 8, wide);
  RunRandomWalk(/*include_sync=*/false, /*hierarchical=*/true, 9, wide);
}

TEST(LayerCostStateTest, RandomWalkOverCapRetractionsReRoute) {
  // 128 GPUs with the hottest expert spread over 48 hosts: some
  // retractions write more cells than one record may hold, so Apply drops
  // the recording and the next retraction of that expert re-routes. The
  // oracle after every Apply/Undo catches a partial or stale replay.
  WalkShape wide;
  wide.nodes = 16;
  wide.gpus_per_node = 8;
  wide.slots = 4;
  wide.warmup_ops = 64;
  wide.spread_hosts = 48;
  int over_cap = 0;
  wide.over_cap_retractions = &over_cap;
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/true, 12, wide);
  EXPECT_GT(over_cap, 0);
}

TEST(LayerCostStateTest, ResetTakingOverRoutingMatchesFreshReset) {
  WalkShape takeover;
  takeover.takeover = true;
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/false, 10, takeover);
  RunRandomWalk(/*include_sync=*/true, /*hierarchical=*/true, 11, takeover);
}

TEST(LayerCostStateTest, CrossNodeInflowCountsOnlyCrossNodeTraffic) {
  TestEnv env = TestEnv::MakeGrid(2, 2);
  ModelConfig model = GptMoES();
  model.num_experts = 4;
  const CostModel cost(&env.profile, ShapeFromModel(model));

  // One expert per GPU; every GPU emits 100 tokens to each expert, so each
  // destination receives 400 tokens of which 200 originate off-node.
  Assignment a(4, 4);
  for (int e = 0; e < 4; ++e) {
    for (int g = 0; g < 4; ++g) a.set(e, g, 100);
  }
  const Placement p = MakePlacement(4, 4, /*slots=*/2);
  LayerCostState state(&cost, /*include_sync=*/true);
  state.Reset(a, p);
  EXPECT_EQ(state.cross_node_inflow(0), 400);
  EXPECT_EQ(state.cross_node_inflow(1), 400);
}

// Hierarchical Eq. 8 semantics: with one GPU per node the per-node folding
// degenerates to the pairwise sum — same terms, possibly reordered, so the
// two modes agree to rounding.
TEST(CostModelHierarchicalTest, SingleGpuNodesMatchFlat) {
  TestEnv env = TestEnv::MakeGrid(8, 1);
  ModelConfig model = GptMoES();
  model.num_experts = 8;
  const CostModel cost(&env.profile, ShapeFromModel(model));

  Rng rng(7);
  const Assignment a = RandomAssignment(rng, 8, 8);
  const Placement p = MakePlacement(8, 8, /*slots=*/2);
  const RoutedAssignment routed = FlexibleRouter::Route(a, p);
  for (GpuId g = 0; g < 8; ++g) {
    env.profile.set_hierarchical_a2a(false);
    const double flat = cost.A2ASeconds(routed, g);
    env.profile.set_hierarchical_a2a(true);
    const double hier = cost.A2ASeconds(routed, g);
    EXPECT_NEAR(hier, flat, 1e-12 * std::max(1.0, flat)) << "g" << g;
  }
}

// The router's optional per-node aggregates are integer bookkeeping, so
// hierarchical estimates are bitwise identical with and without them.
TEST(CostModelHierarchicalTest, AggregatedRoutingMatchesUnaggregated) {
  TestEnv env = TestEnv::MakeGrid(2, 4);
  env.profile.set_hierarchical_a2a(true);
  ModelConfig model = GptMoES();
  model.num_experts = 12;
  const CostModel cost(&env.profile, ShapeFromModel(model));

  Rng rng(11);
  const Assignment a = RandomAssignment(rng, 12, 8);
  const Placement p = MakePlacement(12, 8, /*slots=*/3);
  const RoutedAssignment plain = FlexibleRouter::Route(a, p);
  RoutedAssignment aggregated;
  aggregated.EnableNodeAggregation(env.profile.topology());
  FlexibleRouter::RouteInto(a, p, &aggregated);
  for (GpuId g = 0; g < 8; ++g) {
    EXPECT_EQ(cost.A2ASeconds(aggregated, g), cost.A2ASeconds(plain, g));
  }
}

// The memoized serving floor must be a pure cache: bitwise-identical
// values to the direct call, hit or miss, including collision eviction.
TEST(ForwardFloorEstimatorTest, BitwiseIdenticalToDirectCall) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = GptMoES();
  const ForwardFloorEstimator floor(&env.profile, model, 8);
  Rng rng(13);
  for (int i = 0; i < 4096; ++i) {
    const int64_t tokens = static_cast<int64_t>(rng.UniformInt(1 << 20));
    ASSERT_EQ(floor.Seconds(tokens),
              EstimateForwardMicrobatchSeconds(env.profile, model, 8, tokens))
        << "tokens=" << tokens;
  }
  // Repeated probes (cache hits) must return the same value.
  ASSERT_EQ(floor.Seconds(777),
            EstimateForwardMicrobatchSeconds(env.profile, model, 8, 777));
  ASSERT_EQ(floor.Seconds(777),
            EstimateForwardMicrobatchSeconds(env.profile, model, 8, 777));
}

}  // namespace
}  // namespace flexmoe
