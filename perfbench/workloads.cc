// Benchmark workloads (RATIONALE.md explains why each was chosen).
//
// Scenario clocks are scaled to the cell length, as WorkloadGoldenCell
// does, so every regime happens inside the measured window: the
// fine-tuning shift lands mid-cell, and the multi-tenant slices rotate
// several times.

#include <algorithm>
#include <stdexcept>

#include "harness/golden.h"
#include "moe/model_config.h"
#include "perfbench.h"

namespace perfbench {

namespace {

struct Length {
  int steps;
  int warmup;
};

Length CellLength(const std::string& workload, const std::string& length) {
  const bool tiny = length == "tiny";
  if (length != "tiny" && length != "full") {
    throw std::invalid_argument("length must be 'full' or 'tiny'");
  }
  if (workload == "train-shift") return tiny ? Length{6, 1} : Length{14, 4};
  if (workload == "large-ep") return tiny ? Length{3, 1} : Length{12, 3};
  return tiny ? Length{12, 3} : Length{150, 15};  // serve-multitenant
}

// Figure 5(b) cell: GPT-MoE-L on 64 GPUs, fine-tuning distribution shift,
// FlexMoE against DeepSpeed on the identical trace.
std::vector<ExperimentOptions> TrainShift(uint64_t seed, Length len) {
  std::vector<ExperimentOptions> out;
  for (const char* system : {"flexmoe", "deepspeed"}) {
    ExperimentOptions o;
    o.system = system;
    o.model = flexmoe::GptMoEL();
    o.num_gpus = 64;
    o.balance_coef = 0.001;
    o.capacity_factor = 1.0;
    o.measure_steps = len.steps;
    o.warmup_steps = len.warmup;
    o.seed = seed;
    o.workload.scenario.name = "finetune-shift";
    o.workload.scenario.shift_step = len.steps / 2;
    out.push_back(o);
  }
  return out;
}

// The G = 512 large-EP regime (one expert per GPU), FlexMoE only.
std::vector<ExperimentOptions> LargeEP(uint64_t seed, Length len) {
  ExperimentOptions o = flexmoe::LargeEPOptions(512);
  o.system = "flexmoe";
  o.measure_steps = len.steps;
  o.warmup_steps = len.warmup;
  o.seed = seed;
  o.workload.scenario.name = "pretrain-steady";
  return {o};
}

// Multi-tenant serving under the heavy size mix, deadline shedding, EDF
// admission and auto-K; all four systems see the identical open-loop
// arrival stream (ServingSizeMixCell's preset rate).
std::vector<ExperimentOptions> ServeMultitenant(uint64_t seed, Length len) {
  std::vector<ExperimentOptions> out;
  for (const char* system : {"flexmoe", "deepspeed", "fastermoe", "swipe"}) {
    ExperimentOptions o =
        flexmoe::ServingSizeMixCell("multi-tenant", system, "edf");
    o.pipeline_chunks = 0;
    o.measure_steps = len.steps;
    o.warmup_steps = len.warmup;
    o.seed = seed;
    // The golden cell's ten-batch tenant slices: the tenant rotation
    // recurs throughout the cell (two slices in a tiny pass).
    o.workload.scenario.tenant_block_steps = std::min(10, len.steps / 2);
    out.push_back(o);
  }
  return out;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& length) {
  Workload w;
  w.name = name;
  const Length len = CellLength(name, length);
  if (name == "train-shift") {
    w.systems = TrainShift(seed, len);
  } else if (name == "large-ep") {
    w.systems = LargeEP(seed, len);
  } else if (name == "serve-multitenant") {
    w.serving = true;
    w.systems = ServeMultitenant(seed, len);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
