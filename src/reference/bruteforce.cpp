#include "reference/bruteforce.hpp"

#include <algorithm>

#include "core/interval_set.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

struct Event {
  ServerId server;
  Time time;
};

Cost price(const std::vector<Event>& events,
           const std::vector<std::uint8_t>& parents, const CostModel& model,
           IntervalSet* scratch_by_server, std::size_t server_count) {
  // Gather the required hold-intervals per server, then union them.
  for (std::size_t s = 0; s < server_count; ++s) scratch_by_server[s].clear();
  std::size_t transfer_count = 0;
  for (std::size_t child = 1; child < events.size(); ++child) {
    const Event& c = events[child];
    const Event& p = events[parents[child - 1]];
    scratch_by_server[p.server].add(p.time, c.time);
    if (p.server != c.server) ++transfer_count;
  }
  Time cache_time = 0.0;
  for (std::size_t s = 0; s < server_count; ++s) {
    cache_time += scratch_by_server[s].union_length();
  }
  return model.mu * cache_time +
         model.lambda * static_cast<double>(transfer_count);
}

}  // namespace

Cost price_parent_assignment(const Flow& flow, const CostModel& model,
                             const std::vector<std::uint8_t>& parents) {
  require(parents.size() == flow.points.size(),
          "price_parent_assignment: one parent per service point required");
  std::vector<Event> events;
  events.push_back(Event{kOriginServer, 0.0});
  ServerId max_server = kOriginServer;
  for (const ServicePoint& p : flow.points) {
    events.push_back(Event{p.server, p.time});
    max_server = std::max(max_server, p.server);
  }
  for (std::size_t i = 0; i < parents.size(); ++i) {
    require(parents[i] <= i, "price_parent_assignment: parent must precede child");
  }
  std::vector<IntervalSet> scratch(
      static_cast<std::size_t>(max_server) + 1);
  return price(events, parents, model, scratch.data(), scratch.size());
}

BruteForceResult solve_bruteforce(const Flow& flow, const CostModel& model,
                                  std::size_t max_points) {
  model.validate();
  validate_flow(flow);
  const std::size_t n = flow.points.size();
  require(n <= max_points,
          "solve_bruteforce: flow too large for exhaustive search (" +
              std::to_string(n) + " > " + std::to_string(max_points) + ")");

  BruteForceResult best;
  best.schedule = Schedule(flow.group_size);
  if (n == 0) return best;

  std::vector<Event> events;
  events.push_back(Event{kOriginServer, 0.0});
  ServerId max_server = kOriginServer;
  for (const ServicePoint& p : flow.points) {
    events.push_back(Event{p.server, p.time});
    max_server = std::max(max_server, p.server);
  }
  std::vector<IntervalSet> scratch(
      static_cast<std::size_t>(max_server) + 1);

  std::vector<std::uint8_t> parents(n, 0);
  best.raw_cost = kInfiniteCost;
  // Odometer over the mixed-radix parent space: parents[i] in [0, i].
  for (;;) {
    const Cost cost =
        price(events, parents, model, scratch.data(), scratch.size());
    if (cost < best.raw_cost) {
      best.raw_cost = cost;
      best.parents = parents;
    }
    // Advance the odometer: parents[i] ranges over event indices 0..i.
    std::size_t digit = 0;
    while (digit < n) {
      if (parents[digit] < digit) {
        ++parents[digit];
        break;
      }
      parents[digit] = 0;
      ++digit;
    }
    if (digit == n) break;
  }

  best.cost = model.flow_multiplier(flow.group_size) * best.raw_cost;
  // Materialize the winning assignment as a Schedule.
  for (std::size_t child = 1; child <= n; ++child) {
    const Event& c = events[child];
    const Event& p = events[best.parents[child - 1]];
    best.schedule.add_segment(p.server, p.time, c.time);
    if (p.server != c.server) best.schedule.add_transfer(p.server, c.server, c.time);
  }
  best.schedule.count_emitted_since({});
  return best;
}

}  // namespace dpg
