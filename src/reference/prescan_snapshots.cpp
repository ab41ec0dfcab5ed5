#include "reference/prescan_snapshots.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dpg::reference {

PreScanSnapshots::PreScanSnapshots(const Flow& flow, std::size_t server_count,
                                   ServerId origin) {
  require(server_count > 0, "PreScanSnapshots: need >= 1 server");
  require(origin < server_count, "PreScanSnapshots: origin out of range");
  validate_flow(flow);
  m_ = server_count;

  const std::size_t n = flow.points.size() + 1;  // + origin node
  servers_.resize(n);
  servers_[0] = origin;
  for (std::size_t i = 1; i < n; ++i) {
    const ServerId s = flow.points[i - 1].server;
    require(s < m_, "PreScanSnapshots: service point server out of range");
    servers_[i] = s;
  }

  snapshots_.assign(n * m_, kNone);
  q_prev_.assign(n, kNone);
  q_next_.assign(n, kNone);
  q_tail_.assign(m_, kNone);
  std::vector<std::int32_t> p_last(m_, kNone);  // the rolling pLast[m]
  for (std::size_t i = 0; i < n; ++i) {
    // Snapshot BEFORE inserting node i: "most recent strictly before".
    std::copy(p_last.begin(), p_last.end(),
              snapshots_.begin() + static_cast<std::ptrdiff_t>(i * m_));
    const ServerId s = servers_[i];
    const std::int32_t tail = q_tail_[s];
    q_prev_[i] = tail;
    if (tail != kNone) {
      q_next_[static_cast<std::size_t>(tail)] = static_cast<std::int32_t>(i);
    }
    q_tail_[s] = static_cast<std::int32_t>(i);
    p_last[s] = static_cast<std::int32_t>(i);
  }
}

}  // namespace dpg::reference
