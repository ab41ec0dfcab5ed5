#include "solver/greedy.hpp"

#include "core/request_index.hpp"
#include "util/error.hpp"

namespace dpg {

SolveResult solve_greedy(const Flow& flow, const CostModel& model,
                         std::size_t server_count) {
  model.validate();
  validate_flow(flow);
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) return result;

  const RequestIndex index(flow, server_count);
  Cost total = 0.0;
  for (std::size_t i = 1; i < index.node_count(); ++i) {
    const Time t_i = index.time_of(i);
    const ServerId s_i = index.server_of(i);
    const Time t_prev = index.time_of(i - 1);
    const ServerId s_prev = index.server_of(i - 1);

    const Cost via_transfer =
        model.mu * (t_i - t_prev) + (s_i != s_prev ? model.lambda : 0.0);
    Cost via_cache = kInfiniteCost;
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      via_cache = model.mu * (t_i - index.time_of(static_cast<std::size_t>(p)));
    }

    if (via_cache <= via_transfer) {
      total += via_cache;
      result.schedule.add_segment(s_i, index.time_of(static_cast<std::size_t>(p)),
                                  t_i);
    } else {
      total += via_transfer;
      result.schedule.add_segment(s_prev, t_prev, t_i);
      if (s_i != s_prev) result.schedule.add_transfer(s_prev, s_i, t_i);
    }
  }
  result.schedule.count_emitted_since({});
  result.raw_cost = total;
  result.cost = model.flow_multiplier(flow.group_size) * total;
  return result;
}

SolveResult solve_chain(const Flow& flow, const CostModel& model) {
  model.validate();
  validate_flow(flow);
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  Time prev_time = 0.0;
  ServerId prev_server = kOriginServer;
  for (const ServicePoint& point : flow.points) {
    result.raw_cost += model.mu * (point.time - prev_time);
    result.schedule.add_segment(prev_server, prev_time, point.time);
    if (point.server != prev_server) {
      result.raw_cost += model.lambda;
      result.schedule.add_transfer(prev_server, point.server, point.time);
    }
    prev_time = point.time;
    prev_server = point.server;
  }
  result.schedule.count_emitted_since({});
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;
  return result;
}

SolveResult solve_greedy_heterogeneous(const Flow& flow,
                                       const HeterogeneousCostModel& model) {
  validate_flow(flow);
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) return result;

  const RequestIndex index(flow, model.server_count());
  Cost total = 0.0;
  for (std::size_t i = 1; i < index.node_count(); ++i) {
    const Time t_i = index.time_of(i);
    const ServerId s_i = index.server_of(i);
    const Time t_prev = index.time_of(i - 1);
    const ServerId s_prev = index.server_of(i - 1);

    const Cost via_transfer =
        model.mu(s_prev) * (t_i - t_prev) + model.lambda(s_prev, s_i);
    Cost via_cache = kInfiniteCost;
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      via_cache =
          model.mu(s_i) * (t_i - index.time_of(static_cast<std::size_t>(p)));
    }

    if (via_cache <= via_transfer) {
      total += via_cache;
      result.schedule.add_segment(s_i, index.time_of(static_cast<std::size_t>(p)),
                                  t_i);
    } else {
      total += via_transfer;
      result.schedule.add_segment(s_prev, t_prev, t_i);
      if (s_i != s_prev) result.schedule.add_transfer(s_prev, s_i, t_i);
    }
  }
  result.schedule.count_emitted_since({});
  result.raw_cost = total;
  result.cost = total;  // heterogeneous flows are priced at face value
  return result;
}

}  // namespace dpg
