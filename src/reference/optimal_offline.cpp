#include "reference/optimal_offline.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/request_index.hpp"
#include "solver/dp_backtrack.hpp"
#include "solver/workspace.hpp"

namespace dpg::reference {

namespace {

/// Greedy service of the requests that touch exactly one item of a pair, as
/// one fused stateful loop over the item's events in time order.  Package
/// events cost nothing here (the package DP already paid for them) but do
/// update the recency state, because serving a request leaves a copy
/// behind.
void serve_singletons(const RequestSequence& sequence, const CostModel& model,
                      ItemId item, ItemId partner, PackageReport& report) {
  Time prev_time = 0.0;
  std::vector<Time> last_on_server(sequence.server_count(), -1.0);
  last_on_server[kOriginServer] = 0.0;  // the origin copy

  for (const std::size_t index : sequence.indices_for_item(item)) {
    const Request& r = sequence[index];
    const bool is_package_request = r.contains(partner);
    if (!is_package_request) {
      Cost cache_option = kInfiniteCost;
      if (last_on_server[r.server] >= 0.0) {
        cache_option = model.mu * (r.time - last_on_server[r.server]);
      }
      const Cost transfer_option = model.mu * (r.time - prev_time) + model.lambda;
      const Cost package_option = model.package_fetch_cost();

      SingletonService service;
      service.request_index = index;
      service.item = item;
      if (cache_option <= transfer_option && cache_option <= package_option) {
        service.choice = ServeChoice::kCacheSameServer;
        service.cost = cache_option;
      } else if (transfer_option <= package_option) {
        service.choice = ServeChoice::kTransferFromPrev;
        service.cost = transfer_option;
      } else {
        service.choice = ServeChoice::kPackageFetch;
        service.cost = package_option;
      }
      report.singleton_cost += service.cost;
      report.services.push_back(service);
    }
    prev_time = r.time;
    last_on_server[r.server] = r.time;
  }
}

}  // namespace

SolveResult solve_optimal_offline_reference(const Flow& flow,
                                            const CostModel& model,
                                            std::size_t server_count,
                                            RangeMin range_min,
                                            bool build_schedule) {
  model.validate();
  validate_flow(flow);
  SolveResult result;
  result.schedule = Schedule(flow.group_size);
  if (flow.empty()) {
    result.raw_cost = 0.0;
    result.cost = 0.0;
    return result;
  }

  const RequestIndex index(flow, server_count);
  const std::size_t n = index.node_count();  // origin + services
  const double mu = model.mu;
  const double lambda = model.lambda;

  // w_j: the cheapest way to serve node j as an *intermediate* under a cache
  // line that spans its time — a λ side-transfer off the line, or j's own
  // local cache link from its previous same-server visit.  W: prefix sums.
  std::vector<Cost> w(n, 0.0);
  std::vector<Cost> w_prefix(n, 0.0);
  for (std::size_t j = 1; j < n; ++j) {
    Cost local_link = kInfiniteCost;
    const std::int32_t pj = index.prev_same_server(j);
    if (pj >= 0) {
      local_link = mu * (index.time_of(j) -
                         index.time_of(static_cast<std::size_t>(pj)));
    }
    w[j] = std::min(lambda, local_link);
    w_prefix[j] = w_prefix[j - 1] + w[j];
  }

  std::vector<Cost> c(n, 0.0);
  std::vector<DpChoice> choice(n);
  SuffixMin suffix;  // over v_k = C(k) − W(k), pushed as states complete
  suffix.push(0, 0.0);

  for (std::size_t i = 1; i < n; ++i) {
    const Time t_i = index.time_of(i);
    const Time t_prev = index.time_of(i - 1);
    const ServerId s_i = index.server_of(i);
    const ServerId s_prev = index.server_of(i - 1);

    // Tr(i): chain through the previous service point.
    const Cost tr =
        c[i - 1] + mu * (t_i - t_prev) + (s_i != s_prev ? lambda : 0.0);

    // D(i): cache line on s_i from the previous same-server visit p(i);
    // every node between the split k and i is served for w_j.
    Cost line = kInfiniteCost;
    std::int32_t line_k = -1;
    const std::int32_t p = index.prev_same_server(i);
    if (p >= 0) {
      const Time t_p = index.time_of(static_cast<std::size_t>(p));
      const Cost base = mu * (t_i - t_p) + w_prefix[i - 1];
      if (range_min == RangeMin::kSuffixMin) {
        const auto [arg, best] = suffix.query(p);
        if (best < kInfiniteCost) {
          line = base + best;
          line_k = arg;
        }
      } else {
        for (std::int32_t k = p; k < static_cast<std::int32_t>(i); ++k) {
          const Cost candidate = base + c[static_cast<std::size_t>(k)] -
                                 w_prefix[static_cast<std::size_t>(k)];
          if (candidate < line) {
            line = candidate;
            line_k = k;
          }
        }
      }
    }

    if (line < tr) {
      c[i] = line;
      choice[i] = DpChoice{true, line_k};
    } else {
      c[i] = tr;
      choice[i] = DpChoice{false, static_cast<std::int32_t>(i) - 1};
    }
    suffix.push(static_cast<std::int32_t>(i), c[i] - w_prefix[i]);
  }

  result.raw_cost = c[n - 1];
  result.cost = model.flow_multiplier(flow.group_size) * result.raw_cost;
  if (build_schedule) {
    backtrack_dp_schedule(index, choice, model, result.schedule);
  }
  return result;
}

PackageReport solve_pair_package_reference(const RequestSequence& sequence,
                                           const CostModel& model,
                                           ItemPair pair) {
  model.validate();
  PackageReport report;
  report.pair = pair;
  report.total_accesses =
      sequence.item_frequency(pair.a) + sequence.item_frequency(pair.b);

  const Flow flow = make_package_flow(sequence, pair.a, pair.b);
  report.co_request_count = flow.size();
  SolveResult package = solve_optimal_offline_reference(
      flow, model, sequence.server_count(), RangeMin::kSuffixMin);
  report.package_cost = package.cost;  // already 2α-discounted
  report.package_schedule = std::move(package.schedule);

  serve_singletons(sequence, model, pair.a, pair.b, report);
  serve_singletons(sequence, model, pair.b, pair.a, report);
  return report;
}

}  // namespace dpg::reference
