// Discrete-event executors for the communication and compute primitives.
//
// These reserve intervals on per-GPU streams (compute, NIC egress/ingress,
// background adjust) and therefore capture serialization and contention that
// the analytic models in comm_cost.h ignore. Experiment step times come from
// here; Policy Maker estimates come from the analytic side. Comparing the
// two reproduces the paper's cost-model validation (Figure 6(c)).

#ifndef FLEXMOE_COLLECTIVE_ENGINE_OPS_H_
#define FLEXMOE_COLLECTIVE_ENGINE_OPS_H_

#include <cstdint>
#include <vector>

#include "collective/comm_cost.h"
#include "sim/stream.h"
#include "topology/profile.h"

namespace flexmoe {

/// \brief Timing of one executed collective.
struct CollectiveResult {
  double start = 0.0;   ///< earliest stream activity
  double finish = 0.0;  ///< global completion (max over participants)
  /// Completion per GPU (size = num_gpus; untouched GPUs keep `start`).
  std::vector<double> per_gpu_finish;
};

/// \brief Executes an All-to-All described by a byte matrix (src-major:
/// bytes(src, dst)).
///
/// Port model (LogGP-style; NCCL chunk-interleaves all peer flows): each
/// message src -> dst reserves its serialization time on egress(src) from
/// `earliest` and, independently, on ingress(dst) from `earliest` plus the
/// link latency; it ends at the later of the two reservations' ends plus
/// the latency, and a GPU finishes at its latest message end. Reservations
/// serialize per port, so each port's message ORDER fixes the timing. The
/// order is the shifted schedule NCCL uses to avoid ingress hotspots —
/// round r sends src -> (src + r) mod G — seen per port:
///   - egress(src) takes its messages in r order: dst = src, src+1, ...,
///     G-1, 0, ..., src-1;
///   - ingress(dst) takes its messages in r order: src = dst, dst-1, ...,
///     0, G-1, ..., dst+1.
/// No port's sequence depends on any other port, and pair ends and
/// per-GPU finishes are maxima, so the engine is free to visit pairs in
/// any order that keeps each port's own order (DESIGN.md Section 2).
///
/// `port_scale` (nullable, size = num_gpus) stretches each port's
/// serialization time by that GPU's factor: a message src -> dst holds
/// egress(src) for duration * scale[src] and ingress(dst) for
/// duration * scale[dst]. This is how straggler bandwidth degradation
/// enters the engine — the slow endpoint's port stretches, the healthy
/// peer's does not (the stretch applies exactly once, on the slow side).
CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const ByteMatrix& bytes, double earliest,
                              const std::vector<double>* port_scale = nullptr);

/// \brief The payload of a routed All-to-All, read straight from the
/// router's destination-major token counts (no byte matrix).
struct RoutedA2A {
  /// dispatch_to(dst, src): tokens routed from src to dst, as
  /// RoutedAssignment::dispatch_to holds them.
  const Matrix<int64_t>* dispatch_to = nullptr;
  /// false: the dispatch, tokens move src -> dst; true: the combine, they
  /// return dst -> src.
  bool combine = false;
  double token_bytes = 0.0;
  /// Chunk `chunk` of `chunks`: a cell of v tokens carries the piece
  /// v(k+1)/K - vk/K (integer-exact; the K pieces sum to v).
  int chunk = 0;
  int chunks = 1;
  /// Nullable, size = num_gpus: an endpoint with alive[g] == 0 moves
  /// nothing. nullptr means every GPU is alive.
  const std::vector<uint8_t>* alive = nullptr;
};

/// \brief ExecAllToAll over routed tokens: message bytes are the cell's
/// tokens (or chunk piece) times token_bytes, bit-identical to building
/// that byte matrix and calling the overload above.
CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const RoutedA2A& tokens, double earliest,
                              const std::vector<double>* port_scale = nullptr);

/// \brief Executes a ring AllReduce of `bytes` over `group`.
///
/// 2*(k-1) phases; each phase every member forwards a chunk to its ring
/// successor with a phase barrier, so a busy NIC on any member stalls the
/// whole ring (this is the global-synchronization cost FasterMoE pays when
/// it shadows an expert on all GPUs). `port_scale` as in ExecAllToAll:
/// a degraded member stretches its own ring hop's ports only; the
/// collective still finishes at the slowest member, so the whole ring
/// waits, but healthy ports are released on time.
CollectiveResult ExecRingAllReduce(ClusterState* cluster,
                                   const HardwareProfile& profile,
                                   double bytes,
                                   const std::vector<GpuId>& group,
                                   double earliest,
                                   const std::vector<double>* port_scale =
                                       nullptr);

/// \brief Executes a point-to-point transfer on the NIC streams.
CollectiveResult ExecP2p(ClusterState* cluster, const HardwareProfile& profile,
                         double bytes, GpuId src, GpuId dst, double earliest);

/// \brief Executes a P2P transfer on the background adjust streams (used by
/// best-effort Expand/Migrate so that training-critical NIC ports are not
/// blocked; bandwidth sharing is approximated by a configurable slowdown).
CollectiveResult ExecBackgroundCopy(ClusterState* cluster,
                                    const HardwareProfile& profile,
                                    double bytes, GpuId src, GpuId dst,
                                    double earliest, double slowdown);

/// \brief Executes expert compute of `tokens` tokens on `gpu`'s compute
/// stream. Returns the completion time.
double ExecCompute(ClusterState* cluster, const HardwareProfile& profile,
                   GpuId gpu, double tokens, double flops_per_token,
                   double earliest);

/// \brief Executes a pipelined ring broadcast of `bytes` from `root` to
/// every GPU in `group` (FasterMoE-style shadow-parameter distribution).
/// `port_scale` as in ExecAllToAll (per-hop, per-port stretch).
CollectiveResult ExecBroadcast(ClusterState* cluster,
                               const HardwareProfile& profile, double bytes,
                               GpuId root, const std::vector<GpuId>& group,
                               double earliest,
                               const std::vector<double>* port_scale = nullptr);

}  // namespace flexmoe

#endif  // FLEXMOE_COLLECTIVE_ENGINE_OPS_H_
