// The pre-scan index of Section V, reduced to what the offline DP reads.
//
// For one flow we build, in a single O(n) pass plus an O(m) rolling
// last-on-server scratch:
//   * a time index A[n] and the server of every node,
//   * p(i): the previous node on node i's own server, strictly before i.
// The D(i) recurrence and the schedule backtrack read nothing else, so the
// index takes O(n + m) space and meets (and beats) the paper's O(mn) bound.
// The paper's full Fig. 8 structures — the per-node m-size pLast snapshots
// and the per-server Q_j lists — live on as the test-only oracle
// reference::PreScanSnapshots (reference/prescan_snapshots.hpp).
//
// Node 0 is always the implicit origin (server kOriginServer, time 0).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flow.hpp"
#include "core/types.hpp"

namespace dpg {

class RequestIndex {
 public:
  /// Sentinel for "no node".
  static constexpr std::int32_t kNone = -1;

  /// An empty index; call rebuild() before any query.
  RequestIndex() = default;

  /// Builds the index for `flow` over `server_count` servers.
  RequestIndex(const Flow& flow, std::size_t server_count,
               ServerId origin = kOriginServer);

  /// Re-runs the pre-scan for a new flow, reusing the existing buffer
  /// capacity — no allocation when the new flow is no larger than any
  /// previously indexed one (the SolverWorkspace reuse contract).  Validates
  /// the flow as validate_flow does (same errors), in the same pass.
  void rebuild(const Flow& flow, std::size_t server_count,
               ServerId origin = kOriginServer);

  /// Number of nodes including the origin node 0.
  [[nodiscard]] std::size_t node_count() const noexcept { return times_.size(); }
  [[nodiscard]] std::size_t server_count() const noexcept { return m_; }

  [[nodiscard]] Time time_of(std::size_t node) const noexcept {
    return times_[node];
  }
  [[nodiscard]] ServerId server_of(std::size_t node) const noexcept {
    return servers_[node];
  }

  /// p(i): most recent node on node i's own server, strictly before i;
  /// kNone if the flow never visited that server before.
  [[nodiscard]] std::int32_t prev_same_server(std::size_t node) const noexcept {
    return prev_[node];
  }

  /// The flat node columns (for the SoA kernel passes in solver/kernels.hpp).
  [[nodiscard]] std::span<const Time> times() const noexcept { return times_; }
  [[nodiscard]] std::span<const ServerId> servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] std::span<const std::int32_t> prev() const noexcept {
    return prev_;
  }

  /// Bytes of buffer capacity the index holds: O(n + m).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

 private:
  std::size_t m_ = 0;
  std::vector<Time> times_;
  std::vector<ServerId> servers_;
  std::vector<std::int32_t> prev_;
  std::vector<std::int32_t> last_on_server_;  // rolling pre-scan scratch
};

}  // namespace dpg
