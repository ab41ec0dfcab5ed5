#include "reference/subset_exact.hpp"

#include <algorithm>

#include "core/interval_set.hpp"
#include "core/request_index.hpp"
#include "util/error.hpp"

namespace dpg {

SubsetExactResult solve_subset_exact(const Flow& flow, const CostModel& model,
                                     std::size_t server_count,
                                     std::size_t max_candidates) {
  model.validate();
  validate_flow(flow);
  SubsetExactResult best;
  if (flow.empty()) return best;

  const RequestIndex index(flow, server_count);
  const std::size_t n = index.node_count() - 1;  // service points

  // Local candidates: points with a previous same-server visit.
  struct Candidate {
    std::size_t point;   // 0-based service point index
    Time link_begin;     // t_{p(i)}
    Time link_end;       // t_i
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      candidates.push_back(Candidate{
          i - 1, index.time_of(static_cast<std::size_t>(p)), index.time_of(i)});
    }
  }
  require(candidates.size() <= max_candidates,
          "solve_subset_exact: too many local candidates (" +
              std::to_string(candidates.size()) + " > " +
              std::to_string(max_candidates) + ")");

  const Time horizon = index.time_of(n);
  best.raw_cost = kInfiniteCost;

  IntervalSet links;
  for (std::uint64_t mask = 0; mask < (1ull << candidates.size()); ++mask) {
    // Local link cost + membership.
    Cost link_cost = 0.0;
    links.clear();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (mask & (1ull << c)) {
        link_cost +=
            model.mu * (candidates[c].link_end - candidates[c].link_begin);
        links.add(candidates[c].link_begin, candidates[c].link_end);
      }
    }
    const std::size_t transfers = n - static_cast<std::size_t>(
                                          __builtin_popcountll(mask));
    // Bridged (uncovered) portion of [0, horizon].
    const Time bridged = links.uncovered_within(0.0, horizon);

    const Cost total = link_cost + model.lambda * static_cast<double>(transfers) +
                       model.mu * bridged;
    if (total < best.raw_cost) {
      best.raw_cost = total;
      best.local_points.clear();
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (mask & (1ull << c)) best.local_points.push_back(candidates[c].point);
      }
    }
  }
  best.cost = model.flow_multiplier(flow.group_size) * best.raw_cost;
  return best;
}

}  // namespace dpg
