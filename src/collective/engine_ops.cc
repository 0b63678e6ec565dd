#include "collective/engine_ops.h"

#include <algorithm>

#include "util/status.h"

namespace flexmoe {

namespace {

/// Reserves a pipelined (chunked) transfer: the source egress port is busy
/// for the serialization time, the destination ingress port for the same
/// time but starting one latency after the first chunk leaves. NCCL-style
/// chunking means the two ports need not be simultaneously free, which
/// avoids the convoy effects a store-and-forward model would create.
/// Returns the completion time; *start_out (optional) gets the egress
/// start.
double PipelinedTransfer(Stream* egress, Stream* ingress, double earliest,
                         double duration, double latency,
                         double* start_out = nullptr) {
  const double send_start = egress->Reserve(earliest, duration);
  const double recv_start = ingress->Reserve(send_start + latency, duration);
  if (start_out != nullptr) *start_out = send_start;
  return recv_start + duration;
}

/// Per-GPU port stretch factor (1.0 without a scale vector). x * 1.0 == x
/// bitwise, so a scale vector of ones is indistinguishable from nullptr.
double ScaleOf(const std::vector<double>* port_scale, GpuId g) {
  return port_scale == nullptr ? 1.0
                               : (*port_scale)[static_cast<size_t>(g)];
}

/// Src-major byte-matrix cells.
struct ByteCells {
  const ByteMatrix& bytes;

  bool RowLive(GpuId) const { return true; }
  const double* Row(GpuId a) const { return bytes.row(a); }
  double Bytes(const double* row, GpuId b) const { return row[b]; }
};

/// Routed-token cells (RoutedA2A): a cell's tokens, or its chunk piece,
/// times token_bytes; nothing to or from a dead endpoint.
struct TokenCells {
  const Matrix<int64_t>& tokens;
  const uint8_t* alive;  // nullptr: all alive
  double token_bytes;
  int64_t k;
  int64_t K;

  bool RowLive(GpuId a) const { return alive == nullptr || alive[a] != 0; }
  const int64_t* Row(GpuId a) const { return tokens.row(a); }
  double Bytes(const int64_t* row, GpuId b) const {
    const int64_t v = row[b];
    if (v <= 0 || (alive != nullptr && alive[b] == 0)) return 0.0;
    if (K == 1) return static_cast<double>(v) * token_bytes;
    return static_cast<double>(v * (k + 1) / K - v * k / K) * token_bytes;
  }
};

/// The All-to-All kernel: a per-port scan over the rows of a cell matrix,
/// src-major (row = src) or dst-major (row = dst).
///
/// A row's own port (egress(src) src-major, ingress(dst) dst-major) takes
/// the row's messages walking away from the diagonal — b = a, a+1, ... in
/// src-major, b = a, a-1, ... in dst-major, wrapping — which is exactly its
/// shifted-schedule order (engine_ops.h). A column's port takes the
/// column's messages in the opposite cyclic direction from the diagonal,
/// so two sweeps over the rows deliver them in order: the first takes
/// each row from the diagonal to the matrix edge, the second the rest of
/// the row, with rows visited against the walk direction. Every pair is
/// visited once, each port's reservations keep their order, and pair ends
/// and finishes are maxima (exact in any order), so every reservation and
/// finish is bit-identical to the shifted-round walk.
///
/// Each walk splits into runs of one link class (a node's GPUs are
/// contiguous ids), whose bandwidth and latency are read once per run.
template <bool kSrcMajor, typename Cells>
CollectiveResult PortScanAllToAll(ClusterState* cluster,
                                  const HardwareProfile& profile,
                                  const Cells& cells, double earliest,
                                  const std::vector<double>* port_scale) {
  const int n = cluster->num_gpus();
  const int per_node = profile.topology().gpus_per_node();
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(n), earliest);
  double* fin = result.per_gpu_finish.data();
  const double* scale = port_scale == nullptr ? nullptr : port_scale->data();
  Stream* row_ports =
      kSrcMajor ? cluster->egress_ports() : cluster->ingress_ports();
  Stream* col_ports =
      kSrcMajor ? cluster->ingress_ports() : cluster->egress_ports();

  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int i = 0; i < n; ++i) {
      const GpuId a = kSrcMajor ? n - 1 - i : i;
      if (!cells.RowLive(a)) continue;
      const auto* row = cells.Row(a);
      const double row_scale = scale == nullptr ? 1.0 : scale[a];
      Stream port = row_ports[a];
      double row_fin = earliest;
      // Runs [lo, hi) of one link class, walked ascending in src-major
      // and descending in dst-major.
      const auto run = [&](GpuId lo, GpuId hi) {
        if (lo >= hi) return;
        const GpuId first = kSrcMajor ? lo : hi - 1;
        const GpuId src0 = kSrcMajor ? a : first;
        const GpuId dst0 = kSrcMajor ? first : a;
        const double bandwidth = profile.BandwidthBytesPerSec(src0, dst0);
        const double lat = profile.LatencySeconds(src0, dst0);
        const double recv_earliest = earliest + lat;
        for (GpuId j = lo; j < hi; ++j) {
          const GpuId b = kSrcMajor ? j : lo + hi - 1 - j;
          const double bytes = cells.Bytes(row, b);
          if (bytes <= 0.0) continue;
          const double duration = bytes / bandwidth;
          const double col_scale = scale == nullptr ? 1.0 : scale[b];
          Stream& egress = kSrcMajor ? port : col_ports[b];
          Stream& ingress = kSrcMajor ? col_ports[b] : port;
          // A degraded endpoint stretches only its own port's
          // serialization time; a healthy peer's port drains at full
          // speed and frees early.
          const double dur_src = duration * (kSrcMajor ? row_scale : col_scale);
          const double dur_dst = duration * (kSrcMajor ? col_scale : row_scale);
          const double send_start = egress.Reserve(earliest, dur_src);
          const double recv_start = ingress.Reserve(recv_earliest, dur_dst);
          const double end =
              std::max(send_start + dur_src, recv_start + dur_dst) + lat;
          row_fin = std::max(row_fin, end);
          fin[b] = std::max(fin[b], end);
        }
      };
      const GpuId node_begin = a / per_node * per_node;
      const GpuId node_end = node_begin + per_node;
      if (sweep == 0) {  // diagonal, own node, then the far side
        run(a, a + 1);
        if (kSrcMajor) {
          run(a + 1, node_end);
          run(node_end, n);
        } else {
          run(node_begin, a);
          run(0, node_begin);
        }
      } else {  // wrapped around: the far side, then own node up to a
        if (kSrcMajor) {
          run(0, node_begin);
          run(node_begin, a);
        } else {
          run(node_end, n);
          run(a + 1, node_end);
        }
      }
      row_ports[a] = port;
      fin[a] = std::max(fin[a], row_fin);
    }
  }
  result.finish = earliest;
  for (double t : result.per_gpu_finish) result.finish = std::max(result.finish, t);
  return result;
}

}  // namespace

CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const ByteMatrix& bytes, double earliest,
                              const std::vector<double>* port_scale) {
  const int n = cluster->num_gpus();
  FLEXMOE_CHECK(bytes.rows() == n && bytes.cols() == n);
  return PortScanAllToAll<true>(cluster, profile, ByteCells{bytes}, earliest,
                                port_scale);
}

CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const RoutedA2A& tokens, double earliest,
                              const std::vector<double>* port_scale) {
  const int n = cluster->num_gpus();
  FLEXMOE_CHECK(tokens.dispatch_to != nullptr &&
                tokens.dispatch_to->rows() == n &&
                tokens.dispatch_to->cols() == n);
  FLEXMOE_CHECK(tokens.chunks >= 1 && tokens.chunk >= 0 &&
                tokens.chunk < tokens.chunks);
  FLEXMOE_CHECK(tokens.alive == nullptr ||
                tokens.alive->size() == static_cast<size_t>(n));
  const TokenCells cells{*tokens.dispatch_to,
                         tokens.alive == nullptr ? nullptr
                                                 : tokens.alive->data(),
                         tokens.token_bytes, tokens.chunk, tokens.chunks};
  // dispatch_to is destination-major for the dispatch; the combine moves
  // the same cells the other way, so its rows are its sources.
  return tokens.combine
             ? PortScanAllToAll<true>(cluster, profile, cells, earliest,
                                      port_scale)
             : PortScanAllToAll<false>(cluster, profile, cells, earliest,
                                       port_scale);
}

CollectiveResult ExecRingAllReduce(ClusterState* cluster,
                                   const HardwareProfile& profile,
                                   double bytes,
                                   const std::vector<GpuId>& group,
                                   double earliest,
                                   const std::vector<double>* port_scale) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  const size_t k = group.size();
  if (k < 2 || bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }

  // Ring all-reduce as port occupancy: every member moves 2(k-1) chunks of
  // bytes/k over its ring hop, so its egress and ingress ports are each
  // busy for that serialization time. Chunk interleaving (NCCL) keeps the
  // ports continuously busy without per-phase barriers; the collective
  // completes when the slowest member's ports drain, plus the 2(k-1)-hop
  // latency chain of the last chunk.
  const size_t phases = 2 * (k - 1);
  const double chunk = bytes / static_cast<double>(k);
  double slowest_end = earliest;
  double max_lat = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const GpuId src = group[i];
    const GpuId dst = group[(i + 1) % k];
    const double duration = static_cast<double>(phases) * chunk /
                            profile.BandwidthBytesPerSec(src, dst);
    // Only the degraded member's own ports stretch; the barrier below
    // (slowest_end) still makes the whole ring wait for it.
    const double dur_src = duration * ScaleOf(port_scale, src);
    const double dur_dst = duration * ScaleOf(port_scale, dst);
    const double send_start = cluster->egress(src).Reserve(earliest, dur_src);
    const double recv_start =
        cluster->ingress(dst).Reserve(earliest, dur_dst);
    slowest_end =
        std::max(slowest_end,
                 std::max(send_start + dur_src, recv_start + dur_dst));
    max_lat = std::max(max_lat, profile.LatencySeconds(src, dst));
  }
  result.finish = slowest_end + static_cast<double>(phases) * max_lat;
  for (GpuId g : group) {
    result.per_gpu_finish[static_cast<size_t>(g)] = result.finish;
  }
  return result;
}

CollectiveResult ExecP2p(ClusterState* cluster, const HardwareProfile& profile,
                         double bytes, GpuId src, GpuId dst, double earliest) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }
  const double duration = bytes / profile.BandwidthBytesPerSec(src, dst);
  double start = earliest;
  const double end = PipelinedTransfer(&cluster->egress(src),
                                       &cluster->ingress(dst), earliest,
                                       duration,
                                       profile.LatencySeconds(src, dst),
                                       &start);
  result.start = start;
  result.per_gpu_finish[static_cast<size_t>(src)] = end;
  result.per_gpu_finish[static_cast<size_t>(dst)] = end;
  result.finish = end;
  return result;
}

CollectiveResult ExecBackgroundCopy(ClusterState* cluster,
                                    const HardwareProfile& profile,
                                    double bytes, GpuId src, GpuId dst,
                                    double earliest, double slowdown) {
  FLEXMOE_CHECK(slowdown >= 1.0);
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }
  const double duration =
      slowdown * bytes / profile.BandwidthBytesPerSec(src, dst);
  double start = earliest;
  const double end = PipelinedTransfer(&cluster->adjust(src),
                                       &cluster->adjust(dst), earliest,
                                       duration,
                                       profile.LatencySeconds(src, dst),
                                       &start);
  result.start = start;
  result.per_gpu_finish[static_cast<size_t>(src)] = end;
  result.per_gpu_finish[static_cast<size_t>(dst)] = end;
  result.finish = end;
  return result;
}

double ExecCompute(ClusterState* cluster, const HardwareProfile& profile,
                   GpuId gpu, double tokens, double flops_per_token,
                   double earliest) {
  if (tokens <= 0.0) return earliest;
  const double duration = profile.ComputeSeconds(tokens, flops_per_token);
  const double start = cluster->compute(gpu).Reserve(earliest, duration);
  return start + duration;
}

CollectiveResult ExecBroadcast(ClusterState* cluster,
                               const HardwareProfile& profile, double bytes,
                               GpuId root, const std::vector<GpuId>& group,
                               double earliest,
                               const std::vector<double>* port_scale) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0 || group.size() < 2) {
    result.finish = earliest;
    return result;
  }
  // Pipelined ring broadcast rooted at `root`: the payload streams through
  // the ring once; each hop adds latency, the bandwidth term is paid once
  // (chunks overlap across hops).
  std::vector<GpuId> ring;
  ring.push_back(root);
  for (GpuId g : group) {
    if (g != root) ring.push_back(g);
  }
  double start = earliest;
  for (GpuId g : ring) {
    start = std::max(start, std::max(cluster->egress(g).busy_until(),
                                     cluster->ingress(g).busy_until()));
  }
  double finish = start;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    const GpuId src = ring[i];
    const GpuId dst = ring[i + 1];
    const double hop = bytes / profile.BandwidthBytesPerSec(src, dst) /
                       static_cast<double>(ring.size() - 1);
    // Per-port straggler stretch (see ExecAllToAll).
    const double hop_src = hop * ScaleOf(port_scale, src);
    const double hop_dst = hop * ScaleOf(port_scale, dst);
    const double lat = profile.LatencySeconds(src, dst);
    const double at = i == 0 ? start : finish;
    const double send_start = cluster->egress(src).Reserve(at, hop_src);
    const double recv_start =
        cluster->ingress(dst).Reserve(send_start + lat, hop_dst);
    finish = std::max(finish, recv_start + hop_dst);
  }
  for (GpuId g : ring) {
    result.per_gpu_finish[static_cast<size_t>(g)] = finish;
  }
  result.finish = finish;
  return result;
}

}  // namespace flexmoe
