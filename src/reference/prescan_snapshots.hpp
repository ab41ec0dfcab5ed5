// The paper-literal Section-V pre-scan (Fig. 8) — a test-only oracle.
//
// The pre-scan walks the flow once with a rolling pLast[m] array of the most
// recent node on each server and snapshots it into every node's m-size
// pointer array, while threading the per-server doubly linked lists Q_j.
// That is (n+1)·m pointers: the paper's O(mn) space bound.  The offline DP
// reads only one entry of each snapshot — p(i), the entry of node i's own
// server — so production keeps just that column (core/request_index.hpp).
// Tests check every node's p(i) against this full snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flow.hpp"
#include "core/types.hpp"

namespace dpg::reference {

class PreScanSnapshots {
 public:
  /// Sentinel for "no node" (the same value as RequestIndex::kNone).
  static constexpr std::int32_t kNone = -1;

  /// Runs the pre-scan for `flow` over `server_count` servers; node 0 is the
  /// origin (server `origin`, time 0).
  PreScanSnapshots(const Flow& flow, std::size_t server_count,
                   ServerId origin = kOriginServer);

  /// Number of nodes including the origin node 0.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] std::size_t server_count() const noexcept { return m_; }
  [[nodiscard]] ServerId server_of(std::size_t node) const noexcept {
    return servers_[node];
  }

  /// Most recent node on `server` strictly before `node` (the r_{p(i)} /
  /// pLast snapshot of the paper); kNone if the flow never visited it.
  [[nodiscard]] std::int32_t recent_on_server(std::size_t node,
                                              ServerId server) const noexcept {
    return snapshots_[node * m_ + server];
  }

  /// The full pLast snapshot of `node` (m entries, one per server): the most
  /// recent node on each server strictly before `node`.  These are the
  /// potential start nodes of the intervals that cover the node (Fig. 8).
  [[nodiscard]] std::span<const std::int32_t> snapshot(std::size_t node) const {
    return {snapshots_.data() + node * m_, m_};
  }

  /// Doubly linked list Q_j navigation: previous/next node on the same server.
  [[nodiscard]] std::int32_t q_prev(std::size_t node) const noexcept {
    return q_prev_[node];
  }
  [[nodiscard]] std::int32_t q_next(std::size_t node) const noexcept {
    return q_next_[node];
  }
  /// Last node of Q_j after the full pre-scan.
  [[nodiscard]] std::int32_t q_tail(ServerId server) const noexcept {
    return q_tail_[server];
  }

 private:
  std::size_t m_ = 0;
  std::vector<ServerId> servers_;
  std::vector<std::int32_t> snapshots_;  // node-major, m per node
  std::vector<std::int32_t> q_prev_;
  std::vector<std::int32_t> q_next_;
  std::vector<std::int32_t> q_tail_;
};

}  // namespace dpg::reference
