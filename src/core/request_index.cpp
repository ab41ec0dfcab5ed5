#include "core/request_index.hpp"

#include "util/error.hpp"

namespace dpg {

RequestIndex::RequestIndex(const Flow& flow, std::size_t server_count,
                           ServerId origin) {
  rebuild(flow, server_count, origin);
}

void RequestIndex::rebuild(const Flow& flow, std::size_t server_count,
                           ServerId origin) {
  require(flow.group_size >= 1, "Flow: group_size must be >= 1");
  require(server_count > 0, "RequestIndex: need >= 1 server");
  require(origin < server_count, "RequestIndex: origin out of range");
  m_ = server_count;

  const std::size_t n = flow.points.size() + 1;  // + origin node
  times_.resize(n);
  servers_.resize(n);
  prev_.resize(n);
  last_on_server_.assign(m_, kNone);

  // One pass: copy the columns, check the times, and read p(i) off the
  // rolling last-on-server array before node i updates it.
  times_[0] = 0.0;
  servers_[0] = origin;
  prev_[0] = kNone;
  last_on_server_[origin] = 0;
  Time previous = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const ServicePoint& p = flow.points[i - 1];
    require(p.time > previous,
            "Flow: service times must be strictly increasing and positive");
    require(p.server < m_, "RequestIndex: service point server out of range");
    previous = p.time;
    times_[i] = p.time;
    servers_[i] = p.server;
    prev_[i] = last_on_server_[p.server];
    last_on_server_[p.server] = static_cast<std::int32_t>(i);
  }
}

std::size_t RequestIndex::footprint_bytes() const noexcept {
  return times_.capacity() * sizeof(Time) +
         servers_.capacity() * sizeof(ServerId) +
         prev_.capacity() * sizeof(std::int32_t) +
         last_on_server_.capacity() * sizeof(std::int32_t);
}

}  // namespace dpg
