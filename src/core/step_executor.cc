#include "core/step_executor.h"

#include <algorithm>

#include "collective/ordered_sync.h"
#include "moe/transformer.h"

namespace flexmoe {

namespace {

/// Emits one span per GPU the collective kept busy past `start` (untouched
/// GPUs keep their start time in per_gpu_finish and emit nothing).
void TracePerGpuSpans(obs::Tracer* tr, const char* name, const char* category,
                      double start, const CollectiveResult& result,
                      int layer) {
  if (tr == nullptr) return;
  for (size_t g = 0; g < result.per_gpu_finish.size(); ++g) {
    if (result.per_gpu_finish[g] > start) {
      tr->Span(name, category, static_cast<int>(g), start,
               result.per_gpu_finish[g], "layer", static_cast<double>(layer));
    }
  }
}

}  // namespace

Status PipelineOptions::Validate() const {
  if (chunks < 0) {
    return Status::InvalidArgument(
        "pipeline chunks must be >= 0 (0 = auto-K)");
  }
  return Status::OK();
}

StepExecutor::StepExecutor(ClusterState* cluster,
                           const HardwareProfile* profile,
                           const ModelConfig& model)
    : cluster_(cluster), profile_(profile), model_(model) {
  FLEXMOE_CHECK(cluster != nullptr);
  FLEXMOE_CHECK(profile != nullptr);
  FLEXMOE_CHECK_OK(model.Validate());
}

double StepExecutor::Frontier() const {
  double t = 0.0;
  for (int g = 0; g < cluster_->num_gpus(); ++g) {
    t = std::max(t, cluster_->GpuFreeAt(g));
  }
  return t;
}

const std::vector<double>* StepExecutor::BandwidthScales() const {
  if (health_ == nullptr) return nullptr;
  // Refilled per phase (cheap O(G)); the engine stretches each port by its
  // own GPU's factor, so a straggler pays its slowdown exactly once, on
  // its own ports, and never leaks it onto healthy peers' ports (the old
  // group-max scaling stretched every member of a ring and both endpoints
  // of a message — the double-stretch this replaces).
  port_scale_scratch_.resize(static_cast<size_t>(cluster_->num_gpus()));
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    port_scale_scratch_[static_cast<size_t>(g)] =
        health_->bandwidth_multiplier(g);
  }
  return &port_scale_scratch_;
}

std::vector<GpuId> StepExecutor::AliveGpus() const {
  std::vector<GpuId> out;
  out.reserve(static_cast<size_t>(cluster_->num_gpus()));
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    if (Alive(g)) out.push_back(g);
  }
  return out;
}

void StepExecutor::RefreshAliveMask() {
  alive_mask_.resize(static_cast<size_t>(cluster_->num_gpus()));
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    alive_mask_[static_cast<size_t>(g)] = Alive(g) ? 1 : 0;
  }
}

CollectiveResult StepExecutor::AllToAll(const LayerWork& work, bool combine,
                                        int k, int K, double earliest,
                                        const std::vector<double>* scales) {
  RoutedA2A tokens;
  tokens.dispatch_to = &work.routed->dispatch_to;
  tokens.combine = combine;
  tokens.token_bytes = model_.token_bytes();
  // Per-cell chunk split: cell v contributes v*(k+1)/K - v*k/K tokens to
  // chunk k. Integer-exact (the K pieces sum to v), and the last chunk is
  // the ceil — the property the pipelined floor bound relies on
  // (cost_model.cc, DESIGN.md Section 11).
  tokens.chunk = k;
  tokens.chunks = K;
  tokens.alive = health_ == nullptr ? nullptr : &alive_mask_;
  if (obs::MetricsRegistry* m = obs::MetricsOf(obs_); m != nullptr) {
    m->Add("exec.a2a_collectives");
  }
  return ExecAllToAll(cluster_, *profile_, tokens, earliest, scales);
}

double StepExecutor::RunExpertCompute(
    const RoutedAssignment& routed, double flops_per_token, int k, int K,
    const std::vector<double>& per_gpu_earliest, StepTiming* timing,
    const char* span_name, int layer) {
  // Walks expert_gpu_tokens row by row with a running finish per GPU, so
  // each GPU still computes its experts in ascending order. A chunk takes
  // its share of every (expert, GPU) cell by the split rule of AllToAll,
  // so the computed tokens are exactly the ones its dispatch delivered.
  // Tokens landing on a dead device (possible only in degraded mode, when
  // no live replica exists) are simply not computed.
  const int64_t k64 = k;
  const int64_t K64 = K;
  const size_t num_gpus = static_cast<size_t>(routed.num_gpus);
  std::vector<double>& gpu_finish = gpu_finish_scratch_;
  std::vector<double>& gpu_flops = gpu_flops_scratch_;
  std::vector<int64_t>& gpu_tokens = gpu_tokens_scratch_;
  gpu_finish.assign(per_gpu_earliest.begin(),
                    per_gpu_earliest.begin() + routed.num_gpus);
  gpu_flops.resize(num_gpus);
  gpu_tokens.assign(num_gpus, 0);
  for (GpuId g = 0; g < routed.num_gpus; ++g) {
    gpu_flops[static_cast<size_t>(g)] = flops_per_token * ComputeScale(g);
  }
  double* busy = timing->per_gpu_expert_compute.data();
  for (int e = 0; e < routed.num_experts; ++e) {
    const int64_t* row = routed.expert_gpu_tokens.row(e);
    for (GpuId g = 0; g < routed.num_gpus; ++g) {
      const int64_t cell = row[g];
      if (cell <= 0 || alive_mask_[static_cast<size_t>(g)] == 0) continue;
      const int64_t tokens =
          K == 1 ? cell : cell * (k64 + 1) / K64 - cell * k64 / K64;
      if (tokens <= 0) continue;
      const double flops = gpu_flops[static_cast<size_t>(g)];
      double& finish = gpu_finish[static_cast<size_t>(g)];
      const double before = finish;
      finish = ExecCompute(cluster_, *profile_, g, static_cast<double>(tokens),
                           flops, finish);
      // Chunks count busy time, not wall: a chunk whose dispatch landed
      // early may wait for the previous chunk's compute to drain, and that
      // wait is the overlap working as intended — not expert occupancy.
      busy[g] += K == 1 ? finish - before
                        : profile_->ComputeSeconds(
                              static_cast<double>(tokens), flops);
      gpu_tokens[static_cast<size_t>(g)] += tokens;
    }
  }
  obs::Tracer* tr = trace();
  double finish = 0.0;
  for (GpuId g = 0; g < routed.num_gpus; ++g) {
    if (alive_mask_[static_cast<size_t>(g)] == 0) continue;
    const double gpu_start = per_gpu_earliest[static_cast<size_t>(g)];
    const double gpu_end = gpu_finish[static_cast<size_t>(g)];
    if (tr != nullptr && gpu_end > gpu_start) {
      const bool chunked = K > 1;
      tr->Span(span_name, "compute", g, gpu_start, gpu_end, "layer",
               static_cast<double>(layer), chunked ? "chunk" : "tokens",
               chunked ? static_cast<double>(k)
                       : static_cast<double>(
                             gpu_tokens[static_cast<size_t>(g)]));
    }
    finish = std::max(finish, gpu_end);
  }
  return finish;
}

double StepExecutor::RunForwardLayers(const std::vector<LayerWork>& layers,
                                      const std::vector<GpuId>& alive,
                                      double frontier, StepTiming* timing) {
  obs::Tracer* tr = trace();
  const double fwd_flops = model_.expert_fwd_flops_per_token();
  const std::vector<double>* scales = BandwidthScales();
  for (size_t l = 0; l < layers.size(); ++l) {
    const LayerWork& work = layers[l];
    FLEXMOE_CHECK(work.routed != nullptr);
    const int layer = static_cast<int>(l);
    // Entries past the model's MoE layers are recirculation passes (the
    // serving path's second pass for overflow/re-routed tokens).
    const bool recirc = layer >= model_.num_moe_layers;
    // Shadow-parameter broadcasts (baseline FasterMoE) precede the layer.
    for (const ShadowBroadcast& bc : work.broadcasts) {
      if (!Alive(bc.root) || alive.size() < 2) continue;
      const CollectiveResult r =
          ExecBroadcast(cluster_, *profile_, bc.bytes, bc.root, alive,
                        frontier, scales);
      if (tr != nullptr) {
        tr->Span("shadow_bcast", "sync", bc.root, frontier, r.finish, "layer",
                 static_cast<double>(layer));
      }
      timing->sync_seconds += r.finish - frontier;
      frontier = r.finish;
    }

    // Per-layer chunk-depth dispatch (auto-K plans a depth per layer);
    // depth 1 falls through to the serial body below, which is the
    // pre-pipelining code expression-for-expression.
    const int chunks = EffectiveChunks(work);
    if (chunks > 1) {
      frontier = RunForwardLayerChunked(work, chunks, layer, recirc, scales,
                                        frontier, timing);
      continue;
    }

    const double phase0 = frontier;
    const CollectiveResult dispatch =
        AllToAll(work, false, 0, 1, frontier, scales);
    TracePerGpuSpans(tr, recirc ? "recirc_dispatch" : "dispatch",
                     recirc ? "recirculation" : "a2a", phase0, dispatch,
                     layer);
    timing->a2a_seconds += dispatch.finish - phase0;

    const double compute_finish = RunExpertCompute(
        *work.routed, fwd_flops, 0, 1, dispatch.per_gpu_finish, timing,
        recirc ? "recirc_expert_compute" : "expert_compute", layer);
    timing->compute_seconds += std::max(0.0, compute_finish - dispatch.finish);

    const CollectiveResult combine =
        AllToAll(work, true, 0, 1, compute_finish, scales);
    TracePerGpuSpans(tr, recirc ? "recirc_combine" : "combine",
                     recirc ? "recirculation" : "a2a", compute_finish,
                     combine, layer);
    timing->a2a_seconds += combine.finish - compute_finish;
    frontier = combine.finish;
  }
  return frontier;
}

double StepExecutor::RunForwardLayerChunked(
    const LayerWork& work, int chunks, int layer, bool recirc,
    const std::vector<double>* scales, double frontier, StepTiming* timing) {
  obs::Tracer* tr = trace();
  const double fwd_flops = model_.expert_fwd_flops_per_token();
  const int K = chunks;

  // Post every chunk's dispatch from the layer start: the NIC ports
  // serialize them in chunk order, so chunk k+1's wire time hides
  // behind chunk k's expert compute instead of extending the layer.
  const double phase0 = frontier;
  std::vector<CollectiveResult>& dispatches = chunk_dispatch_scratch_;
  dispatches.clear();
  dispatches.reserve(static_cast<size_t>(K));
  double dispatch_all = phase0;
  for (int k = 0; k < K; ++k) {
    CollectiveResult d = AllToAll(work, false, k, K, phase0, scales);
    if (tr != nullptr) {
      for (size_t g = 0; g < d.per_gpu_finish.size(); ++g) {
        if (d.per_gpu_finish[g] > phase0) {
          tr->Span(recirc ? "recirc_dispatch" : "dispatch",
                   recirc ? "recirculation" : "a2a", static_cast<int>(g),
                   phase0, d.per_gpu_finish[g], "layer",
                   static_cast<double>(layer), "chunk",
                   static_cast<double>(k));
        }
      }
    }
    dispatch_all = std::max(dispatch_all, d.finish);
    dispatches.push_back(std::move(d));
  }
  timing->a2a_seconds += dispatch_all - phase0;

  // Each chunk computes as soon as its own dispatch lands per GPU (the
  // compute streams serialize chunks), and its combine launches at the
  // chunk's global compute finish — draining behind later chunks'
  // compute on the port streams.
  double compute_all = phase0;
  double layer_end = phase0;
  for (int k = 0; k < K; ++k) {
    const double chunk_compute = RunExpertCompute(
        *work.routed, fwd_flops, k, K, dispatches[static_cast<size_t>(k)]
            .per_gpu_finish,
        timing, recirc ? "recirc_expert_compute" : "expert_compute", layer);
    compute_all = std::max(compute_all, chunk_compute);
    const CollectiveResult combine =
        AllToAll(work, true, k, K, chunk_compute, scales);
    if (tr != nullptr) {
      for (size_t g = 0; g < combine.per_gpu_finish.size(); ++g) {
        if (combine.per_gpu_finish[g] > chunk_compute) {
          tr->Span(recirc ? "recirc_combine" : "combine",
                   recirc ? "recirculation" : "a2a", static_cast<int>(g),
                   chunk_compute, combine.per_gpu_finish[g], "layer",
                   static_cast<double>(layer), "chunk",
                   static_cast<double>(k));
        }
      }
    }
    layer_end = std::max(layer_end, combine.finish);
  }
  // Phase attribution mirrors the serial path's accounting: A2A gets the
  // leading dispatch window plus the combine tail past compute; compute
  // gets its exposed (non-overlapped) stretch.
  timing->compute_seconds += std::max(0.0, compute_all - dispatch_all);
  timing->a2a_seconds += std::max(0.0, layer_end - compute_all);
  return std::max(layer_end, compute_all);
}

double StepExecutor::RunBackwardLayerChunked(
    const LayerWork& work, int chunks, int layer,
    const std::vector<double>* scales, double frontier, StepTiming* timing,
    double* compute_all_out) {
  // The forward leg's overlap shape at backward FLOPs: grad-dispatch
  // chunks posted at the leg start, per-chunk backward compute at that
  // chunk's per-GPU dispatch finish, per-chunk grad combine at the
  // chunk's global compute finish. The caller launches this layer's
  // expert syncs at *compute_all_out — an expert's gradient is final only
  // once the last chunk's contribution is reduced.
  obs::Tracer* tr = trace();
  const double bwd_flops =
      model_.expert_fwdbwd_flops_per_token() - model_.expert_fwd_flops_per_token();
  const int K = chunks;

  const double phase0 = frontier;
  std::vector<CollectiveResult>& dispatches = chunk_dispatch_scratch_;
  dispatches.clear();
  dispatches.reserve(static_cast<size_t>(K));
  double dispatch_all = phase0;
  for (int k = 0; k < K; ++k) {
    CollectiveResult d = AllToAll(work, false, k, K, phase0, scales);
    if (tr != nullptr) {
      for (size_t g = 0; g < d.per_gpu_finish.size(); ++g) {
        if (d.per_gpu_finish[g] > phase0) {
          tr->Span("grad_dispatch", "a2a", static_cast<int>(g), phase0,
                   d.per_gpu_finish[g], "layer", static_cast<double>(layer),
                   "chunk", static_cast<double>(k));
        }
      }
    }
    dispatch_all = std::max(dispatch_all, d.finish);
    dispatches.push_back(std::move(d));
  }
  timing->a2a_seconds += dispatch_all - phase0;

  double compute_all = phase0;
  double layer_end = phase0;
  for (int k = 0; k < K; ++k) {
    const double chunk_compute = RunExpertCompute(
        *work.routed, bwd_flops, k, K,
        dispatches[static_cast<size_t>(k)].per_gpu_finish, timing,
        "expert_compute_bwd", layer);
    compute_all = std::max(compute_all, chunk_compute);
    const CollectiveResult combine =
        AllToAll(work, true, k, K, chunk_compute, scales);
    if (tr != nullptr) {
      for (size_t g = 0; g < combine.per_gpu_finish.size(); ++g) {
        if (combine.per_gpu_finish[g] > chunk_compute) {
          tr->Span("grad_combine", "a2a", static_cast<int>(g), chunk_compute,
                   combine.per_gpu_finish[g], "layer",
                   static_cast<double>(layer), "chunk",
                   static_cast<double>(k));
        }
      }
    }
    layer_end = std::max(layer_end, combine.finish);
  }
  timing->compute_seconds += std::max(0.0, compute_all - dispatch_all);
  timing->a2a_seconds += std::max(0.0, layer_end - compute_all);
  *compute_all_out = compute_all;
  return std::max(layer_end, compute_all);
}

StepTiming StepExecutor::ExecuteForward(const std::vector<LayerWork>& layers) {
  StepTiming timing;
  timing.per_gpu_expert_compute.assign(
      static_cast<size_t>(cluster_->num_gpus()), 0.0);
  timing.start = Frontier();

  // With no backward pass there is no shadow-gradient AllReduce to pay,
  // so a broadcast is the whole shadowing price.
  const std::vector<GpuId> alive = AliveGpus();
  RefreshAliveMask();
  double frontier = RunForwardLayers(layers, alive, timing.start, &timing);

  // Non-MoE forward compute (attention, dense FFNs, gate), scaled to the
  // forward share of the full-step cost by the same fwd/fwdbwd ratio the
  // expert networks exhibit. No optimizer, no gradient AllReduce.
  {
    const double fwd_fraction = model_.expert_fwd_flops_per_token() /
                                model_.expert_fwdbwd_flops_per_token();
    const double non_moe =
        NonMoEComputeSeconds(model_, *profile_) * fwd_fraction;
    double phase_finish = frontier;
    for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
      if (!Alive(g)) continue;
      const double scaled = non_moe * ComputeScale(g);
      const double start = cluster_->compute(g).Reserve(frontier, scaled);
      phase_finish = std::max(phase_finish, start + scaled);
    }
    if (obs::Tracer* tr = trace(); tr != nullptr) {
      tr->Span("non_moe", "compute", obs::kControlLane, frontier,
               phase_finish);
    }
    timing.non_moe_seconds += phase_finish - frontier;
    frontier = phase_finish;
  }

  timing.end = frontier;
  if (obs::Tracer* tr = trace(); tr != nullptr) {
    tr->Span("forward_pass", "step", obs::kControlLane, timing.start,
             timing.end, "layers", static_cast<double>(layers.size()));
  }
  return timing;
}

double StepExecutor::RunLayerSyncs(const LayerWork& work, double earliest_base,
                                   NcclGroupCache* group_cache,
                                   const std::vector<double>* scales,
                                   StepTiming* timing, double sync_finish) {
  // Launch this layer's expert syncs, ordered by logical id (== expert
  // id): every GPU posts in the same ascending order, so the posting is
  // deadlock-free, and disjoint groups overlap through the stream model.
  obs::Tracer* tr = trace();
  std::vector<SyncOp> ops;
  if (work.placement != nullptr) {
    for (int e = 0; e < work.placement->num_experts(); ++e) {
      std::vector<GpuId> group = work.placement->HostGpus(e);
      if (health_ != nullptr) {
        group.erase(std::remove_if(group.begin(), group.end(),
                                   [this](GpuId g) { return !Alive(g); }),
                    group.end());
      }
      if (group.size() >= 2) {
        ops.push_back({e, std::move(group), model_.expert_grad_bytes()});
      }
    }
  }
  int extra_id = work.routed->num_experts;
  for (std::vector<GpuId> group : work.extra_sync_groups) {
    if (health_ != nullptr) {
      group.erase(std::remove_if(group.begin(), group.end(),
                                 [this](GpuId g) { return !Alive(g); }),
                  group.end());
    }
    if (group.size() >= 2) {
      ops.push_back({extra_id++, std::move(group),
                     model_.expert_grad_bytes()});
    }
  }
  for (const SyncOp& op : ops) {
    double earliest = earliest_base;
    if (group_cache != nullptr) {
      earliest += group_cache->Acquire(op.group);
    }
    const CollectiveResult r = ExecRingAllReduce(
        cluster_, *profile_, op.bytes, op.group, earliest, scales);
    if (tr != nullptr && !op.group.empty()) {
      tr->Span("expert_sync", "sync", op.group.front(), earliest, r.finish,
               "expert", static_cast<double>(op.logical_id), "gpus",
               static_cast<double>(op.group.size()));
    }
    sync_finish = std::max(sync_finish, r.finish);
    timing->sync_busy_seconds += r.finish - earliest;
  }
  return sync_finish;
}

StepTiming StepExecutor::ExecuteStep(const std::vector<LayerWork>& layers,
                                     NcclGroupCache* group_cache) {
  StepTiming timing;
  timing.per_gpu_expert_compute.assign(
      static_cast<size_t>(cluster_->num_gpus()), 0.0);
  timing.start = Frontier();
  double frontier = timing.start;

  const double fwd_flops = model_.expert_fwd_flops_per_token();
  const double bwd_flops = model_.expert_fwdbwd_flops_per_token() - fwd_flops;

  // Membership is fixed for the duration of a step (the elastic controller
  // mutates health only at step boundaries), so the alive list is computed
  // once and shared by every shadow broadcast and the DP AllReduce below.
  const std::vector<GpuId> alive = AliveGpus();
  RefreshAliveMask();

  // ---- Forward pass over MoE layers ------------------------------------
  frontier = RunForwardLayers(layers, alive, frontier, &timing);

  // ---- Non-MoE compute (attention, dense FFNs, gate, optimizer) --------
  {
    const double non_moe = NonMoEComputeSeconds(model_, *profile_);
    double phase_finish = frontier;
    for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
      if (!Alive(g)) continue;
      const double scaled = non_moe * ComputeScale(g);
      const double start = cluster_->compute(g).Reserve(frontier, scaled);
      phase_finish = std::max(phase_finish, start + scaled);
    }
    if (obs::Tracer* tr = trace(); tr != nullptr) {
      tr->Span("non_moe", "compute", obs::kControlLane, frontier,
               phase_finish);
    }
    timing.non_moe_seconds += phase_finish - frontier;
    frontier = phase_finish;
  }

  // ---- Backward pass in reverse order -----------------------------------
  // A layer's expert gradients are final right after its backward compute,
  // so its replica AllReduces launch immediately and overlap with the
  // remaining (shallower) layers' backward work — the standard bucketed-
  // overlap of DDP, applied per expert. The step only stretches if syncs
  // outlast the backward pass.
  double sync_finish = frontier;
  obs::Tracer* tr = trace();
  const std::vector<double>* scales = BandwidthScales();
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    const LayerWork& work = *it;
    const int layer = static_cast<int>(layers.rend() - it) - 1;

    // Per-layer chunk-depth dispatch, mirroring the forward leg; depth 1
    // is the pre-pipelining serial body, expression-for-expression.
    const int chunks = EffectiveChunks(work);
    if (chunks > 1) {
      double compute_all = frontier;
      frontier = RunBackwardLayerChunked(work, chunks, layer, scales,
                                         frontier, &timing, &compute_all);
      sync_finish = RunLayerSyncs(work, compute_all, group_cache, scales,
                                  &timing, sync_finish);
      continue;
    }

    const double phase0 = frontier;
    const CollectiveResult dispatch =
        AllToAll(work, false, 0, 1, frontier, scales);
    TracePerGpuSpans(tr, "grad_dispatch", "a2a", phase0, dispatch, layer);
    timing.a2a_seconds += dispatch.finish - phase0;

    const double compute_finish =
        RunExpertCompute(*work.routed, bwd_flops, 0, 1,
                         dispatch.per_gpu_finish, &timing,
                         "expert_compute_bwd", layer);
    timing.compute_seconds += std::max(0.0, compute_finish - dispatch.finish);

    sync_finish = RunLayerSyncs(work, compute_finish, group_cache, scales,
                                &timing, sync_finish);

    const CollectiveResult combine =
        AllToAll(work, true, 0, 1, compute_finish, scales);
    TracePerGpuSpans(tr, "grad_combine", "a2a", compute_finish, combine,
                     layer);
    timing.a2a_seconds += combine.finish - compute_finish;
    frontier = combine.finish;
  }

  // The step ends when both the backward pass and the slowest expert sync
  // are done; only the non-overlapped tail counts as sync time.
  timing.sync_seconds += std::max(0.0, sync_finish - frontier);
  frontier = std::max(frontier, sync_finish);

  // ---- Data-parallel AllReduce of non-MoE gradients ----------------------
  // (every system pays it; tracked separately from the Eq. 9 expert sync).
  if (alive.size() >= 2) {
    const CollectiveResult dp = ExecRingAllReduce(
        cluster_, *profile_,
        model_.non_moe_params() * model_.grad_bytes, alive, frontier,
        scales);
    if (tr != nullptr) {
      tr->Span("dp_sync", "sync", alive.front(), frontier, dp.finish, "gpus",
               static_cast<double>(alive.size()));
    }
    timing.dp_sync_seconds += dp.finish - frontier;
    frontier = dp.finish;
  }

  timing.end = frontier;
  if (tr != nullptr) {
    tr->Span("train_step", "step", obs::kControlLane, timing.start, timing.end,
             "layers", static_cast<double>(layers.size()));
  }
  return timing;
}

}  // namespace flexmoe
