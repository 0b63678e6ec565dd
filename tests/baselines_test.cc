// Tests for the baseline systems: DeepSpeed-style expert parallelism,
// FasterMoE shadowing, and SWIPE strict rebalancing.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/static_system.h"
#include "gate/trace_generator.h"
#include "harness/experiment.h"
#include "test_env.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

ModelConfig SmallModel() {
  ModelConfig m = GptMoES();
  m.num_experts = 16;
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 2048;
  return m;
}

std::vector<Assignment> SkewedStep(const ModelConfig& m, int num_gpus) {
  std::vector<Assignment> step;
  for (int l = 0; l < m.num_moe_layers; ++l) {
    Assignment a(m.num_experts, num_gpus);
    for (int g = 0; g < num_gpus; ++g) {
      a.set(0, g, 3000);  // hot expert
      for (int e = 1; e < m.num_experts; ++e) a.set(e, g, 70);
    }
    step.push_back(std::move(a));
  }
  return step;
}

TEST(FixedPlacementTest, OneVExpertPerExpert) {
  const Placement p = *FixedExpertParallelPlacement(16, 8);
  EXPECT_TRUE(p.Validate().ok());
  for (int e = 0; e < 16; ++e) {
    EXPECT_EQ(p.VExperts(e), 1) << e;
    EXPECT_EQ(p.HostGpus(e).size(), 1u);
  }
  // Block distribution: experts 0,1 on GPU 0; 2,3 on GPU 1; ...
  EXPECT_EQ(p.HostGpus(0)[0], 0);
  EXPECT_EQ(p.HostGpus(2)[0], 1);
  EXPECT_EQ(p.HostGpus(15)[0], 7);
}

TEST(ExpertParallelTest, DropsTokensBeyondCapacity) {
  TestEnv f = TestEnv::Make();
  StaticSystemOptions o;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 1.0;
  auto sys = *StaticSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  EXPECT_GT(m.tokens_dropped, 0);
  EXPECT_LT(m.token_efficiency, 1.0);
  EXPECT_GT(m.token_efficiency, 0.0);
  EXPECT_EQ(sys->name(), "DeepSpeed");
}

TEST(ExpertParallelTest, NoCapacityNoDrops) {
  TestEnv f = TestEnv::Make();
  StaticSystemOptions o;
  o.model = SmallModel();
  o.num_gpus = 8;
  o.capacity_factor = 0.0;  // disabled
  auto sys = *StaticSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  EXPECT_EQ(m.tokens_dropped, 0);
  EXPECT_DOUBLE_EQ(m.token_efficiency, 1.0);
}

TEST(ExpertParallelTest, CapacityCapsStepTime) {
  // With capacity 1.0 the hot expert computes at most cap tokens: the
  // capped step must be faster than the uncapped one.
  TestEnv f1 = TestEnv::Make();
  TestEnv f2 = TestEnv::Make();
  StaticSystemOptions capped;
  capped.model = SmallModel();
  capped.num_gpus = 8;
  capped.capacity_factor = 1.0;
  StaticSystemOptions uncapped = capped;
  uncapped.capacity_factor = 0.0;
  auto sys_c = *StaticSystem::Create(capped, f1.topo.get(), &f1.profile);
  auto sys_u = *StaticSystem::Create(uncapped, f2.topo.get(), &f2.profile);
  const StepMetrics mc = sys_c->RunStep(SkewedStep(capped.model, 8));
  const StepMetrics mu = sys_u->RunStep(SkewedStep(capped.model, 8));
  EXPECT_LT(mc.step_seconds, mu.step_seconds);
}

TEST(FasterMoETest, ShadowsHotExperts) {
  TestEnv f = TestEnv::Make();
  StaticSystemOptions o;
  o.policy = TokenPolicy::kShadow;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticSystem::Create(o, f.topo.get(), &f.profile);
  sys->RunStep(SkewedStep(o.model, 8));
  ASSERT_EQ(sys->last_shadows().size(), 2u);
  // The hot expert 0 must be shadowed in every layer.
  for (const auto& shadows : sys->last_shadows()) {
    ASSERT_FALSE(shadows.empty());
    EXPECT_EQ(shadows.front(), 0);
  }
  EXPECT_EQ(sys->name(), "FasterMoE");
}

TEST(FasterMoETest, NoShadowsWhenBalanced) {
  TestEnv f = TestEnv::Make();
  StaticSystemOptions o;
  o.policy = TokenPolicy::kShadow;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticSystem::Create(o, f.topo.get(), &f.profile);
  std::vector<Assignment> balanced;
  for (int l = 0; l < o.model.num_moe_layers; ++l) {
    Assignment a(o.model.num_experts, 8);
    for (int e = 0; e < o.model.num_experts; ++e) {
      for (int g = 0; g < 8; ++g) a.set(e, g, 256);
    }
    balanced.push_back(std::move(a));
  }
  sys->RunStep(balanced);
  for (const auto& shadows : sys->last_shadows()) {
    EXPECT_TRUE(shadows.empty());
  }
}

TEST(FasterMoETest, NeverDropsAndBeatsUncappedEpOnSkew) {
  TestEnv f1 = TestEnv::Make();
  TestEnv f2 = TestEnv::Make();
  const ModelConfig model = SmallModel();
  StaticSystemOptions fo;
  fo.policy = TokenPolicy::kShadow;
  fo.model = model;
  fo.num_gpus = 8;
  StaticSystemOptions eo;
  eo.model = model;
  eo.num_gpus = 8;
  eo.capacity_factor = 0.0;  // uncapped EP: no drops, full imbalance
  auto faster = *StaticSystem::Create(fo, f1.topo.get(), &f1.profile);
  auto ep = *StaticSystem::Create(eo, f2.topo.get(), &f2.profile);
  const StepMetrics mf = faster->RunStep(SkewedStep(model, 8));
  const StepMetrics me = ep->RunStep(SkewedStep(model, 8));
  EXPECT_EQ(mf.tokens_dropped, 0);
  EXPECT_DOUBLE_EQ(mf.token_efficiency, 1.0);
  // Shadowing the hot expert must beat centralizing it.
  EXPECT_LT(mf.step_seconds, me.step_seconds);
}

TEST(SwipeRebalanceTest, StrictBalanceAndConservation) {
  Assignment a(4, 2);
  a.set(0, 0, 700);
  a.set(0, 1, 100);
  a.set(1, 0, 100);
  a.set(2, 1, 60);
  a.set(3, 0, 40);
  const SwipeRebalance rb = RebalanceStrict(a);
  EXPECT_EQ(rb.balanced.Total(), a.Total());
  const int64_t cap = (a.Total() + 3) / 4;
  for (int e = 0; e < 4; ++e) {
    EXPECT_LE(rb.balanced.ExpertTotal(e), cap + 1) << e;
  }
  EXPECT_GT(rb.reassigned, 0);
}

TEST(SwipeRebalanceTest, NoReassignmentWhenBalanced) {
  Assignment a(4, 2);
  for (int e = 0; e < 4; ++e) {
    a.set(e, 0, 100);
    a.set(e, 1, 100);
  }
  const SwipeRebalance rb = RebalanceStrict(a);
  EXPECT_EQ(rb.reassigned, 0);
  EXPECT_EQ(rb.balanced.Total(), a.Total());
}

TEST(SwipeSystemTest, HighExpertEfficiencyLowTokenEfficiency) {
  TestEnv f = TestEnv::Make();
  StaticSystemOptions o;
  o.policy = TokenPolicy::kStrictRebalance;
  o.model = SmallModel();
  o.num_gpus = 8;
  auto sys = *StaticSystem::Create(o, f.topo.get(), &f.profile);
  const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
  // Strict balance: near-perfect expert efficiency...
  EXPECT_GT(m.expert_efficiency, 0.9);
  EXPECT_LT(m.balance_ratio, 1.1);
  // ...at the price of re-routed tokens.
  EXPECT_LT(m.token_efficiency, 0.9);
  EXPECT_EQ(m.tokens_dropped, 0);  // processed, just by the wrong expert
  EXPECT_EQ(sys->name(), "SWIPE");
}

TEST(BaselineComparisonTest, EfficiencyQuadrantsOfFigure7a) {
  // On a realistic skewed trace: DeepSpeed loses tokens AND expert
  // efficiency; SWIPE keeps expert efficiency but loses token efficiency;
  // FasterMoE keeps token efficiency with middling expert efficiency.
  TestEnv fd = TestEnv::Make();
  TestEnv fs = TestEnv::Make();
  TestEnv ff = TestEnv::Make();
  const ModelConfig model = SmallModel();

  TraceGeneratorOptions t;
  t.num_experts = model.num_experts;
  t.num_moe_layers = model.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = model.tokens_per_gpu;
  t.seed = 11;
  TraceGenerator gen = *TraceGenerator::Create(t);

  StaticSystemOptions eo;
  eo.model = model;
  eo.num_gpus = 8;
  StaticSystemOptions so;
  so.policy = TokenPolicy::kStrictRebalance;
  so.model = model;
  so.num_gpus = 8;
  StaticSystemOptions fo;
  fo.policy = TokenPolicy::kShadow;
  fo.model = model;
  fo.num_gpus = 8;
  auto ds = *StaticSystem::Create(eo, fd.topo.get(), &fd.profile);
  auto sw = *StaticSystem::Create(so, fs.topo.get(), &fs.profile);
  auto fm = *StaticSystem::Create(fo, ff.topo.get(), &ff.profile);

  for (int s = 0; s < 10; ++s) {
    const auto step = gen.Step();
    ds->RunStep(step);
    sw->RunStep(step);
    fm->RunStep(step);
  }
  const double ds_tok = ds->stats().MeanTokenEfficiency();
  const double sw_tok = sw->stats().MeanTokenEfficiency();
  const double fm_tok = fm->stats().MeanTokenEfficiency();
  const double sw_exp = sw->stats().MeanExpertEfficiency();
  const double ds_exp = ds->stats().MeanExpertEfficiency();

  EXPECT_LT(ds_tok, 0.9);          // DeepSpeed drops
  EXPECT_DOUBLE_EQ(fm_tok, 1.0);   // FasterMoE never drops
  EXPECT_LT(sw_tok, 1.0);          // SWIPE re-routes
  EXPECT_GT(sw_exp, ds_exp);       // SWIPE balances better than DeepSpeed
}

// gpu_utilization is the share of the step the average GPU spends
// computing (expert + non-MoE compute): on a system's first step that is
// exactly its compute streams' busy share, ClusterState::ComputeUtilization.
// Communication — including the data-parallel AllReduce every system pays
// — is not useful work, for FlexMoE and the baselines alike.
TEST(GpuUtilizationTest, IsTheComputeStreamShareForAllFourSystems) {
  for (const char* system : {"flexmoe", "deepspeed", "swipe", "fastermoe"}) {
    const TestEnv env = TestEnv::Make();
    ExperimentOptions o;
    o.system = system;
    o.model = SmallModel();
    o.num_gpus = 8;
    auto sys = *BuildSystem(o, env.topo.get(), &env.profile);
    const StepMetrics m = sys->RunStep(SkewedStep(o.model, 8));
    ASSERT_GT(m.step_seconds, 0.0) << system;
    EXPECT_NEAR(m.gpu_utilization,
                sys->cluster().ComputeUtilization(m.step_seconds), 1e-12)
        << system;
  }
}

// ---- Per-step pin of the static systems -----------------------------------
//
// Every StepMetrics field except gpu_utilization (plus FasterMoE's shadow
// choice) of every step, over {DeepSpeed cf 1.0, DeepSpeed cf 0, SWIPE,
// FasterMoE} x {train, serve} x {healthy, fail-stop + straggler} x
// K in {1, 4}. The digests were captured from the pre-refactor baselines
// and must never need editing for a change that claims identical output.

/// FNV-1a over the raw bytes of each folded value.
class Fnv {
 public:
  template <typename T>
  void Add(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void FoldStepMetrics(const StepMetrics& m, Fnv* h) {
  h->Add(m.step);
  h->Add(m.step_seconds);
  h->Add(m.a2a_seconds);
  h->Add(m.compute_seconds);
  h->Add(m.sync_seconds);
  h->Add(m.non_moe_seconds);
  h->Add(m.adjust_block_seconds);
  h->Add(m.balance_ratio);
  h->Add(m.token_efficiency);
  h->Add(m.expert_efficiency);
  h->Add(m.tokens_total);
  h->Add(m.tokens_dropped);
  h->Add(m.tokens_recirculated);
  h->Add(m.ops_applied);
  h->Add(m.ops_launched);
  h->Add(m.recovery_seconds);
  h->Add(m.faults_applied);
  h->Add(m.degraded);
}

/// The static system named `system` ("deepspeed" | "swipe" |
/// "fastermoe"), built through the experiment harness.
std::unique_ptr<MoESystem> MakeStaticSystem(const TestEnv& env,
                                            const std::string& system,
                                            double capacity_factor,
                                            int chunks) {
  ExperimentOptions o;
  o.system = system;
  o.model = SmallModel();
  o.num_gpus = env.topo->num_gpus();
  o.capacity_factor = capacity_factor;
  o.pipeline_chunks = chunks;
  return *BuildSystem(o, env.topo.get(), &env.profile);
}

/// FasterMoE's per-layer shadow choice of the last step; nullptr for the
/// systems that never shadow.
const std::vector<std::vector<int>>* ShadowsOf(const MoESystem& sys) {
  const auto* s = dynamic_cast<const StaticSystem*>(&sys);
  return s != nullptr && s->name() == "FasterMoE" ? &s->last_shadows()
                                                  : nullptr;
}

/// GPU 3 fail-stops before step 2; GPU 5 straggles from step 4.
FaultPlan FailStopAndStraggler() {
  FaultEvent fail;
  fail.step = 2;
  fail.type = FaultType::kFailStop;
  fail.gpu = 3;
  FaultEvent slow;
  slow.step = 4;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 5;
  slow.compute_multiplier = 2.5;
  slow.bandwidth_multiplier = 2.0;
  return FaultPlan::FromEvents({fail, slow});
}

/// Runs `steps` steps of a fixed skewed trace and digests them.
uint64_t RunAndDigest(MoESystem* sys, bool serving, bool faults, int steps) {
  if (faults) {
    EXPECT_TRUE(sys->InstallFaultPlan(FailStopAndStraggler()).ok());
  }
  const ModelConfig model = SmallModel();
  TraceGeneratorOptions t;
  t.num_experts = model.num_experts;
  t.num_moe_layers = model.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = model.tokens_per_gpu;
  t.seed = 23;
  TraceGenerator gen = *TraceGenerator::Create(t);
  Fnv h;
  for (int s = 0; s < steps; ++s) {
    const std::vector<Assignment> step = gen.Step();
    FoldStepMetrics(serving ? sys->ServeMicrobatch(step) : sys->RunStep(step),
                    &h);
    if (const auto* shadows = ShadowsOf(*sys); shadows != nullptr) {
      h.Add(shadows->size());
      for (const std::vector<int>& layer : *shadows) {
        h.Add(layer.size());
        for (int e : layer) h.Add(e);
      }
    }
  }
  return h.hash();
}

TEST(BaselinePinTest, PerStepMetricsFingerprints) {
  struct System {
    const char* name;
    double capacity_factor;
  };
  const System systems[] = {{"deepspeed", 1.0},
                            {"deepspeed", 0.0},
                            {"swipe", 1.0},
                            {"fastermoe", 1.0}};
  // Indexed [system][serving][faults][chunks == 4].
  const uint64_t expected[4][2][2][2] = {
      {
          {{0xb6a5097c7ce1b54cull, 0x763ee1442c0e90f2ull},
           {0x260b5980d7a0369ull, 0x5d943d57c06f2beull}},
          {{0xbcb42eea81570b1dull, 0xc05674f8ee54c192ull},
           {0x4501136ef9771c19ull, 0xf14cd7c9a3348140ull}},
      },
      {
          {{0x3c0bd6529ccd5386ull, 0xf02c3d8bf3d369f4ull},
           {0x68a1be3e366b243aull, 0xfa69e0cabf68a2cull}},
          {{0x326559c8380ffc1cull, 0xbefebb5b5b2c9c25ull},
           {0xbeb23be64a8e8be6ull, 0x3273bdc68e172bfbull}},
      },
      {
          {{0xeeae088e29af8051ull, 0xc5cbdde1eccd7c9bull},
           {0x61215cb5209ff354ull, 0x7107c229cd1b1721ull}},
          {{0xbcb42eea81570b1dull, 0xc05674f8ee54c192ull},
           {0x4501136ef9771c19ull, 0xf14cd7c9a3348140ull}},
      },
      {
          {{0x117c469bd2a46be7ull, 0x4becab82834521ffull},
           {0xd39229f919726252ull, 0xa7b532b010866108ull}},
          {{0x13c765a9d1666330ull, 0x9f80569079cdcf7eull},
           {0x2c1f67448a31af86ull, 0x4d7ac8730c7f5a98ull}},
      },
  };
  for (int s = 0; s < 4; ++s) {
    for (int serving = 0; serving < 2; ++serving) {
      for (int faults = 0; faults < 2; ++faults) {
        for (int k4 = 0; k4 < 2; ++k4) {
          const TestEnv env = TestEnv::Make();
          auto sys = MakeStaticSystem(env, systems[s].name,
                                      systems[s].capacity_factor,
                                      k4 != 0 ? 4 : 1);
          const uint64_t got =
              RunAndDigest(sys.get(), serving != 0, faults != 0, 8);
          EXPECT_EQ(got, expected[s][serving][faults][k4])
              << systems[s].name << " cf=" << systems[s].capacity_factor
              << " serving=" << serving << " faults=" << faults
              << " K=" << (k4 != 0 ? 4 : 1)
              << StrFormat(" got=0x%" PRIx64, got);
        }
      }
    }
  }
}

TEST(BaselinePinTest, SwipeServingIsDeepSpeedServingAtCapacityOne) {
  for (const bool faults : {false, true}) {
    const TestEnv ed = TestEnv::Make();
    const TestEnv es = TestEnv::Make();
    auto ds = MakeStaticSystem(ed, "deepspeed", 1.0, 1);
    auto sw = MakeStaticSystem(es, "swipe", 1.0, 1);
    EXPECT_EQ(RunAndDigest(ds.get(), /*serving=*/true, faults, 8),
              RunAndDigest(sw.get(), /*serving=*/true, faults, 8));
    ASSERT_EQ(ds->stats().num_steps(), sw->stats().num_steps());
    for (int64_t i = 0; i < ds->stats().num_steps(); ++i) {
      EXPECT_EQ(ds->stats().steps()[static_cast<size_t>(i)].gpu_utilization,
                sw->stats().steps()[static_cast<size_t>(i)].gpu_utilization)
          << "step " << i;
    }
  }
}

}  // namespace
}  // namespace flexmoe
