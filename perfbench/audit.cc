// Per-operation audit checks (see perfbench.h). Dropped or recirculated
// tokens that a system produces by design are outcomes, not failures: the
// checks only test the conservation laws and bounds the simulator promises.

#include <string>

#include "perfbench.h"
#include "util/string_util.h"

namespace perfbench {

using flexmoe::StrFormat;

std::string CheckTokenConservation(const std::string& where,
                                   int64_t assigned, int64_t routed,
                                   int64_t dropped) {
  if (routed + dropped == assigned) return "";
  return StrFormat("%s: routed %lld + dropped %lld != assigned %lld",
                   where.c_str(), static_cast<long long>(routed),
                   static_cast<long long>(dropped),
                   static_cast<long long>(assigned));
}

std::string CheckServingLedger(const flexmoe::ServingReport& r) {
  const int64_t requests =
      r.requests_completed + r.requests_shed + r.requests_queued_at_end;
  if (requests != r.requests_arrived) {
    return StrFormat(
        "ledger: requests arrived %lld != completed %lld + shed %lld + "
        "queued %lld",
        static_cast<long long>(r.requests_arrived),
        static_cast<long long>(r.requests_completed),
        static_cast<long long>(r.requests_shed),
        static_cast<long long>(r.requests_queued_at_end));
  }
  const int64_t tokens =
      r.tokens_completed + r.tokens_shed + r.tokens_queued_at_end;
  if (tokens != r.tokens_arrived) {
    return StrFormat(
        "ledger: tokens arrived %lld != completed %lld + shed %lld + "
        "queued %lld",
        static_cast<long long>(r.tokens_arrived),
        static_cast<long long>(r.tokens_completed),
        static_cast<long long>(r.tokens_shed),
        static_cast<long long>(r.tokens_queued_at_end));
  }
  return "";
}

std::string CheckForwardFloor(int64_t batch, double floor_seconds,
                              double measured_seconds) {
  if (floor_seconds <= measured_seconds) return "";
  return StrFormat("batch %lld: forward floor %.17g s > measured %.17g s",
                   static_cast<long long>(batch), floor_seconds,
                   measured_seconds);
}

std::string CheckTraceHashes(const std::vector<uint64_t>& hashes) {
  for (size_t i = 1; i < hashes.size(); ++i) {
    if (hashes[i] != hashes[0]) {
      return StrFormat("system %zu consumed trace_hash %016llx, system 0 "
                       "consumed %016llx",
                       i, static_cast<unsigned long long>(hashes[i]),
                       static_cast<unsigned long long>(hashes[0]));
    }
  }
  return "";
}

}  // namespace perfbench
