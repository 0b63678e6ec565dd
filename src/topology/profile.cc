#include "topology/profile.h"

#include <algorithm>
#include <cmath>

namespace flexmoe {

Status GpuSpec::Validate() const {
  if (peak_flops <= 0) return Status::InvalidArgument("peak_flops <= 0");
  if (efficiency <= 0 || efficiency > 1.0) {
    return Status::InvalidArgument("efficiency must be in (0, 1]");
  }
  if (kernel_overhead_sec < 0) {
    return Status::InvalidArgument("kernel_overhead_sec < 0");
  }
  if (memory_bytes <= 0) return Status::InvalidArgument("memory_bytes <= 0");
  return Status::OK();
}

HardwareProfile::HardwareProfile(const Topology* topo, const GpuSpec& spec)
    : topo_(topo), spec_(spec) {
  FLEXMOE_CHECK(topo != nullptr);
  FLEXMOE_CHECK_OK(spec.Validate());
  sec_per_flop_ = 1.0 / (spec.peak_flops * spec.efficiency);
  compute_overhead_sec_ = spec.kernel_overhead_sec;
  link_efficiency_[LinkClass::kLoopback] = 1.0;
  link_efficiency_[LinkClass::kIntraNode] = 1.0;
  link_efficiency_[LinkClass::kInterNode] = 1.0;
  const int n = topo_->num_gpus();
  bandwidth_cache_.assign(n, n, 0.0);
  latency_cache_.assign(n, n, 0.0);
  for (LinkClass link : {LinkClass::kLoopback, LinkClass::kIntraNode,
                         LinkClass::kInterNode}) {
    FillLinkClass(link);
  }
}

void HardwareProfile::FillLinkClass(LinkClass link) {
  const double bandwidth =
      topo_->ClassBandwidthBytesPerSec(link) * link_efficiency_.at(link);
  const double latency = topo_->ClassLatencySeconds(link);
  const int n = topo_->num_gpus();
  const int per_node = topo_->gpus_per_node();
  for (GpuId src = 0; src < n; ++src) {
    double* bandwidth_row = bandwidth_cache_.row(src);
    double* latency_row = latency_cache_.row(src);
    const auto fill = [&](GpuId begin, GpuId end) {
      std::fill(bandwidth_row + begin, bandwidth_row + end, bandwidth);
      std::fill(latency_row + begin, latency_row + end, latency);
    };
    // A node's GPUs are contiguous ids (Topology::NodeOf), so src's
    // intra-node peers form one block of the row.
    const GpuId node_begin = topo_->NodeOf(src) * per_node;
    const GpuId node_end = node_begin + per_node;
    switch (link) {
      case LinkClass::kLoopback:
        fill(src, src + 1);
        break;
      case LinkClass::kIntraNode:
        fill(node_begin, src);
        fill(src + 1, node_end);
        break;
      case LinkClass::kInterNode:
        fill(0, node_begin);
        fill(node_end, n);
        break;
    }
  }
}

double HardwareProfile::ComputeSeconds(double tokens,
                                       double flops_per_token) const {
  if (tokens <= 0) return 0.0;
  return compute_overhead_sec_ + tokens * flops_per_token * sec_per_flop_;
}

double HardwareProfile::TokensPerSecond(double flops_per_token) const {
  return 1.0 / (flops_per_token * sec_per_flop_);
}

double HardwareProfile::P2pSeconds(double bytes, GpuId src, GpuId dst) const {
  if (bytes <= 0) return 0.0;
  return LatencySeconds(src, dst) + bytes / BandwidthBytesPerSec(src, dst);
}

GroupSignature HardwareProfile::SignatureOf(
    const std::vector<GpuId>& group) const {
  return GroupSignature{static_cast<int>(group.size()),
                        topo_->NodesSpanned(group)};
}

GroupSignature HardwareProfile::SignatureOfReplicas(
    const std::map<GpuId, int>& replicas, GpuId from, GpuId to) const {
  GroupSignature sig;
  NodeId last = -1;
  const auto visit = [&](GpuId g) {
    const NodeId node = topo_->NodeOf(g);
    if (node != last) ++sig.num_nodes;
    last = node;
    ++sig.num_gpus;
  };
  bool to_pending = to >= 0;
  for (const auto& [gpu, count] : replicas) {
    if (to_pending && to < gpu) {
      visit(to);
      to_pending = false;
    }
    if (gpu == to) to_pending = false;        // already a host, stays one
    if (gpu == from && count == 1) continue;  // its only vExpert leaves
    visit(gpu);
  }
  if (to_pending) visit(to);
  return sig;
}

double HardwareProfile::RingAllReduceSeconds(double bytes,
                                             const GroupSignature& sig) const {
  const int k = sig.num_gpus;
  if (k < 2 || bytes <= 0) return 0.0;
  // Ring all-reduce: 2(k-1) phases, each moving bytes/k over the
  // bottleneck link; latency paid once per phase. The bottleneck link of
  // any ring over the group is inter-node iff the group spans nodes.
  const LinkClass link =
      sig.num_nodes > 1 ? LinkClass::kInterNode : LinkClass::kIntraNode;
  const double bw =
      topo_->ClassBandwidthBytesPerSec(link) * link_efficiency_.at(link);
  const double lat = topo_->ClassLatencySeconds(link);
  const double phases = 2.0 * static_cast<double>(k - 1);
  return phases * (bytes / static_cast<double>(k) / bw + lat);
}

double HardwareProfile::AllReduceSeconds(
    double bytes, const std::vector<GpuId>& group) const {
  return AllReduceSecondsForSignature(bytes, SignatureOf(group));
}

double HardwareProfile::AllReduceSecondsForSignature(
    double bytes, const GroupSignature& sig) const {
  if (sig.num_gpus < 2 || bytes <= 0) return 0.0;
  const auto* fitted = FindAllReduceCalibration(sig);
  if (fitted != nullptr) return fitted->Seconds(bytes);
  return RingAllReduceSeconds(bytes, sig);
}

void HardwareProfile::SetComputeCalibration(double overhead_sec,
                                            double sec_per_flop) {
  FLEXMOE_CHECK(overhead_sec >= 0 && sec_per_flop > 0);
  compute_overhead_sec_ = overhead_sec;
  sec_per_flop_ = sec_per_flop;
}

void HardwareProfile::SetLinkEfficiency(LinkClass link, double efficiency) {
  FLEXMOE_CHECK(efficiency > 0 && efficiency <= 1.5);
  link_efficiency_[link] = efficiency;
  FillLinkClass(link);
}

void HardwareProfile::SetAllReduceCalibration(const GroupSignature& sig,
                                              LinearCost cost) {
  allreduce_calibration_[sig] = cost;
}

const LinearCost* HardwareProfile::FindAllReduceCalibration(
    const GroupSignature& sig) const {
  const auto it = allreduce_calibration_.find(sig);
  return it == allreduce_calibration_.end() ? nullptr : &it->second;
}

GpuId HardwareProfile::NodeRepresentative(NodeId node, GpuId dst) const {
  GpuId rep = node * topo_->gpus_per_node();
  // When dst sits first on its own node, the next member represents the
  // intra-node tier. (A 1-GPU node never carries intra-node traffic, so
  // this branch is only ever read when a distinct member exists.)
  if (rep == dst) ++rep;
  return rep;
}

double HardwareProfile::NodeBandwidthBytesPerSec(NodeId src_node,
                                                 GpuId dst) const {
  return bandwidth_cache_(NodeRepresentative(src_node, dst), dst);
}

double HardwareProfile::NodeLatencySeconds(NodeId src_node, GpuId dst) const {
  return latency_cache_(NodeRepresentative(src_node, dst), dst);
}

}  // namespace flexmoe
