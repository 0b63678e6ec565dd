// Differential test of the All-to-All engine against the shifted-round
// walk it is specified by. `ReferenceAllToAll` below is a verbatim copy of
// that walk: round r sends src -> (src + r) % G for every src, and each
// message reserves its source egress port and its destination ingress
// port through Stream::Reserve. The engine must reproduce it bit for bit —
// every per-GPU finish, the global finish, and every port's busy_until and
// busy_time — across densities, cluster sizes, straggler port scales,
// dead endpoints, chunk pieces and ports left busy by earlier collectives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "collective/engine_ops.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

/// The shifted-round All-to-All walk, kept verbatim as the reference the
/// engine is checked against.
CollectiveResult ReferenceAllToAll(ClusterState* cluster,
                                   const HardwareProfile& profile,
                                   const ByteMatrix& bytes, double earliest,
                                   const std::vector<double>* port_scale) {
  const auto ScaleOf = [port_scale](GpuId g) {
    return port_scale == nullptr ? 1.0
                                 : (*port_scale)[static_cast<size_t>(g)];
  };
  const int n = cluster->num_gpus();
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(n), earliest);
  for (int r = 0; r < n; ++r) {
    for (GpuId src = 0; src < n; ++src) {
      const GpuId dst = (src + r) % n;
      const double b = bytes(src, dst);
      if (b <= 0.0) continue;
      const double duration = b / profile.BandwidthBytesPerSec(src, dst);
      const double lat = profile.LatencySeconds(src, dst);
      const double dur_src = duration * ScaleOf(src);
      const double dur_dst = duration * ScaleOf(dst);
      const double send_start = cluster->egress(src).Reserve(earliest, dur_src);
      const double recv_start =
          cluster->ingress(dst).Reserve(earliest + lat, dur_dst);
      const double end =
          std::max(send_start + dur_src, recv_start + dur_dst) + lat;
      auto& src_fin = result.per_gpu_finish[static_cast<size_t>(src)];
      auto& dst_fin = result.per_gpu_finish[static_cast<size_t>(dst)];
      src_fin = std::max(src_fin, end);
      dst_fin = std::max(dst_fin, end);
    }
  }
  result.finish = earliest;
  for (double t : result.per_gpu_finish) result.finish = std::max(result.finish, t);
  return result;
}

/// The executor's payload rule for routed tokens: cell dispatch_to(d, s)
/// moves tokens s -> d (d -> s when `combine`), chunk k of K carries the
/// piece v(k+1)/K - vk/K of a cell v, and a dead endpoint moves nothing.
ByteMatrix RoutedBytes(const Matrix<int64_t>& dispatch_to, bool combine,
                       double token_bytes, const std::vector<uint8_t>& alive,
                       int k, int K) {
  const int n = dispatch_to.rows();
  ByteMatrix bytes(n, n, 0.0);
  const int64_t k64 = k;
  const int64_t K64 = K;
  for (int d = 0; d < n; ++d) {
    if (alive[static_cast<size_t>(d)] == 0) continue;
    for (int s = 0; s < n; ++s) {
      const int64_t tokens = dispatch_to(d, s);
      if (tokens <= 0 || alive[static_cast<size_t>(s)] == 0) continue;
      const int64_t piece = tokens * (k64 + 1) / K64 - tokens * k64 / K64;
      if (piece <= 0) continue;
      const double payload = static_cast<double>(piece) * token_bytes;
      if (combine) {
        bytes(d, s) += payload;
      } else {
        bytes(s, d) += payload;
      }
    }
  }
  return bytes;
}

/// One differential configuration.
struct Case {
  int num_nodes = 1;
  int gpus_per_node = 8;
  double density = 0.7;
  bool scaled = false;  ///< straggler port_scale vector
  bool dead = false;    ///< some endpoints dead
  int chunks = 1;       ///< K; every chunk k < K runs
  uint64_t seed = 1;
};

std::string Describe(const Case& c) {
  return "G=" + std::to_string(c.num_nodes * c.gpus_per_node) + " (" +
         std::to_string(c.num_nodes) + "x" + std::to_string(c.gpus_per_node) +
         ") density=" + std::to_string(c.density) +
         " scaled=" + std::to_string(c.scaled) +
         " dead=" + std::to_string(c.dead) + " K=" + std::to_string(c.chunks) +
         " seed=" + std::to_string(c.seed);
}

/// Distinct per-class efficiencies so loopback, intra- and inter-node
/// links all carry different bandwidths.
TestEnv MakeEnv(const Case& c) {
  TestEnv env = TestEnv::MakeGrid(c.num_nodes, c.gpus_per_node);
  env.profile.SetLinkEfficiency(LinkClass::kIntraNode, 0.87);
  env.profile.SetLinkEfficiency(LinkClass::kInterNode, 0.61);
  return env;
}

/// Token counts with roughly `density` nonzero cells (diagonal included);
/// small counts make some chunk pieces zero.
Matrix<int64_t> RandomTokens(int n, double density, Rng* rng) {
  Matrix<int64_t> m(n, n, 0);
  for (int d = 0; d < n; ++d) {
    for (int s = 0; s < n; ++s) {
      if (rng->Uniform() >= density) continue;
      m(d, s) = rng->Uniform() < 0.2
                    ? static_cast<int64_t>(1 + rng->UniformInt(3))
                    : static_cast<int64_t>(1 + rng->UniformInt(400));
    }
  }
  return m;
}

/// Leaves each port of both clusters identically busy, as earlier
/// collectives would.
void PreloadPorts(ClusterState* a, ClusterState* b, Rng* rng) {
  for (GpuId g = 0; g < a->num_gpus(); ++g) {
    for (int side = 0; side < 2; ++side) {
      if (rng->Uniform() < 0.3) continue;
      const double earliest = rng->Uniform(0.0, 2e-3);
      const double duration = rng->Uniform(0.0, 3e-3);
      (side == 0 ? a->egress(g) : a->ingress(g)).Reserve(earliest, duration);
      (side == 0 ? b->egress(g) : b->ingress(g)).Reserve(earliest, duration);
    }
  }
}

void ExpectSameCollective(const CollectiveResult& want,
                          const CollectiveResult& got, ClusterState& a,
                          ClusterState& b, const std::string& what) {
  EXPECT_EQ(want.start, got.start) << what;
  EXPECT_EQ(want.finish, got.finish) << what;
  ASSERT_EQ(want.per_gpu_finish.size(), got.per_gpu_finish.size()) << what;
  for (size_t g = 0; g < want.per_gpu_finish.size(); ++g) {
    EXPECT_EQ(want.per_gpu_finish[g], got.per_gpu_finish[g])
        << what << " gpu " << g;
  }
  for (GpuId g = 0; g < a.num_gpus(); ++g) {
    EXPECT_EQ(a.egress(g).busy_until(), b.egress(g).busy_until())
        << what << " egress " << g;
    EXPECT_EQ(a.egress(g).busy_time(), b.egress(g).busy_time())
        << what << " egress " << g;
    EXPECT_EQ(a.ingress(g).busy_until(), b.ingress(g).busy_until())
        << what << " ingress " << g;
    EXPECT_EQ(a.ingress(g).busy_time(), b.ingress(g).busy_time())
        << what << " ingress " << g;
  }
}

/// Runs one case: for every chunk k, the dispatch at the layer start, then
/// the combine a little later, each through the reference walk and through
/// the engine on twin clusters whose ports start identically busy.
void RunCase(const Case& c) {
  const TestEnv env = MakeEnv(c);
  const int n = c.num_nodes * c.gpus_per_node;
  Rng rng(c.seed * 7919 + static_cast<uint64_t>(n));
  const Matrix<int64_t> tokens = RandomTokens(n, c.density, &rng);
  std::vector<uint8_t> alive(static_cast<size_t>(n), 1);
  if (c.dead) {
    alive[1] = 0;
    alive[static_cast<size_t>(n - 2)] = 0;
  }
  std::vector<double> scale(static_cast<size_t>(n), 1.0);
  if (c.scaled) {
    for (GpuId g = 0; g < n; g += 3) {
      scale[static_cast<size_t>(g)] = 1.0 + rng.Uniform(0.0, 2.5);
    }
  }
  const std::vector<double>* port_scale = c.scaled ? &scale : nullptr;
  const double token_bytes = 4096.0 * 2.0;

  ClusterState ref(env.topo.get());
  ClusterState got(env.topo.get());
  PreloadPorts(&ref, &got, &rng);
  ClusterState routed = got;  // same preloaded ports

  const double phase0 = 1e-3;
  for (int k = 0; k < c.chunks; ++k) {
    for (const bool combine : {false, true}) {
      const double earliest = combine ? phase0 + 4e-3 * (k + 1) : phase0;
      const ByteMatrix bytes =
          RoutedBytes(tokens, combine, token_bytes, alive, k, c.chunks);
      const std::string what = Describe(c) + " k=" + std::to_string(k) +
                               (combine ? " combine" : " dispatch");
      const CollectiveResult want =
          ReferenceAllToAll(&ref, env.profile, bytes, earliest, port_scale);
      const CollectiveResult have =
          ExecAllToAll(&got, env.profile, bytes, earliest, port_scale);
      ExpectSameCollective(want, have, ref, got, what + " (byte matrix)");

      RoutedA2A a2a;
      a2a.dispatch_to = &tokens;
      a2a.combine = combine;
      a2a.token_bytes = token_bytes;
      a2a.chunk = k;
      a2a.chunks = c.chunks;
      a2a.alive = c.dead ? &alive : nullptr;
      const CollectiveResult via_tokens =
          ExecAllToAll(&routed, env.profile, a2a, earliest, port_scale);
      ExpectSameCollective(want, via_tokens, ref, routed,
                           what + " (routed tokens)");
    }
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  const int layouts[][2] = {{1, 8}, {2, 8}, {8, 8}, {16, 8}, {4, 2}};
  uint64_t seed = 1;
  for (const auto& layout : layouts) {
    for (const double density : {0.05, 0.7, 1.0}) {
      for (const bool scaled : {false, true}) {
        for (const bool dead : {false, true}) {
          Case c;
          c.num_nodes = layout[0];
          c.gpus_per_node = layout[1];
          c.density = density;
          c.scaled = scaled;
          c.dead = dead;
          c.seed = seed++;
          for (int K = 1; K <= 4; ++K) {
            c.chunks = K;
            cases.push_back(c);
          }
        }
      }
    }
  }
  return cases;
}

TEST(A2ADifferentialTest, MatchesShiftedRoundWalkBitForBit) {
  for (const Case& c : AllCases()) {
    RunCase(c);
    if (HasFailure()) return;  // one case's report is enough
  }
}

TEST(A2ADifferentialTest, EmptyAndSingleMessage) {
  Case c;
  c.num_nodes = 2;
  const TestEnv env = MakeEnv(c);
  ClusterState ref(env.topo.get());
  ClusterState got(env.topo.get());
  ByteMatrix bytes(16, 16, 0.0);
  ExpectSameCollective(
      ReferenceAllToAll(&ref, env.profile, bytes, 2.0, nullptr),
      ExecAllToAll(&got, env.profile, bytes, 2.0), ref, got, "empty");
  bytes(13, 2) = 1e6;  // one inter-node message, src > dst
  ExpectSameCollective(
      ReferenceAllToAll(&ref, env.profile, bytes, 2.5, nullptr),
      ExecAllToAll(&got, env.profile, bytes, 2.5), ref, got, "single");
}

}  // namespace
}  // namespace flexmoe
