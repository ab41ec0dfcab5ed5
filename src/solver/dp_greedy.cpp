#include "solver/dp_greedy.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/correlation.hpp"
#include "solver/kernels.hpp"
#include "solver/phase2_shard.hpp"
#include "solver/workspace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dpg {

namespace {

const obs::Counter g_packages_solved = obs::counter("phase2.packages_solved");
const obs::Counter g_singles_solved = obs::counter("phase2.singles_solved");
const obs::Counter g_singleton_services =
    obs::counter("phase2.singleton_services");

/// Greedy service of the requests that touch exactly one item of a pair.
/// Events of `item` (origin, single-item requests, package requests) are
/// walked in time order; package events cost nothing here (the package DP
/// already paid for them) but do update the recency state the greedy
/// options consult, because serving a request leaves a copy behind.
///
/// Three column passes over the item's events: pass 1 (scalar, stateful)
/// gathers each event's recency inputs and finds the package events by
/// merging the two items' index lists; pass 2 is the branch-light
/// cost/choice math over flat columns; pass 3 accumulates serially in event
/// order, so the report is bit-identical to the fused one-loop form kept as
/// the test-only oracle reference::solve_pair_package_reference.
void serve_singletons(const RequestSequence& sequence, const CostModel& model,
                      ItemId item, ItemId partner, PackageReport& report,
                      SolverWorkspace& ws) {
  const std::span<const std::size_t> events = sequence.indices_for_item(item);
  const std::size_t e_count = events.size();
  SingletonScratch& sc = ws.singles;
  sc.time.resize(e_count);
  sc.prev_time.resize(e_count);
  sc.same_time.resize(e_count);
  sc.cost.resize(e_count);
  sc.choice.resize(e_count);
  sc.is_package.resize(e_count);

  // Pass 1: recency gather (inherently serial — each event updates state).
  // A package event is one the partner's index list also holds; a cursor
  // over that list, only ever moving forward, finds them without probing
  // any row's item set.
  const std::span<const std::size_t> partner_events =
      sequence.indices_for_item(partner);
  std::size_t partner_cursor = 0;
  Time prev_time = 0.0;
  ws.server_times.assign(sequence.server_count(), -1.0);
  std::vector<Time>& last_on_server = ws.server_times;
  last_on_server[kOriginServer] = 0.0;  // the origin copy
  for (std::size_t e = 0; e < e_count; ++e) {
    const std::size_t index = events[e];
    const ServerId server = sequence.server_of(index);
    const Time time = sequence.time_of(index);
    partner_cursor = seek_index(partner_events, partner_cursor, index);
    sc.time[e] = time;
    sc.prev_time[e] = prev_time;
    sc.same_time[e] = last_on_server[server];
    sc.is_package[e] = partner_cursor < partner_events.size() &&
                               partner_events[partner_cursor] == index
                           ? 1
                           : 0;
    prev_time = time;
    last_on_server[server] = time;
  }

  // Pass 2: cost + choice as straight-line column math.
  const double mu = model.mu;
  const Cost lambda = model.lambda;
  const Cost package_option = model.package_fetch_cost();
  for (std::size_t e = 0; e < e_count; ++e) {
    const Cost cache_option = sc.same_time[e] >= 0.0
                                  ? mu * (sc.time[e] - sc.same_time[e])
                                  : kInfiniteCost;
    const Cost transfer_option = mu * (sc.time[e] - sc.prev_time[e]) + lambda;
    Cost cost;
    sc.choice[e] = static_cast<std::uint8_t>(kernels::serve_choice3(
        cache_option, transfer_option, package_option, &cost));
    sc.cost[e] = cost;
  }

  // Pass 3: serial accumulation in event order.
  static_assert(static_cast<int>(ServeChoice::kCacheSameServer) ==
                    kernels::kChoiceCache &&
                static_cast<int>(ServeChoice::kTransferFromPrev) ==
                    kernels::kChoiceTransfer &&
                static_cast<int>(ServeChoice::kPackageFetch) ==
                    kernels::kChoicePackage,
                "serve choice encodings must line up");
  for (std::size_t e = 0; e < e_count; ++e) {
    if (sc.is_package[e] != 0) continue;
    SingletonService service;
    service.request_index = events[e];
    service.item = item;
    service.choice = static_cast<ServeChoice>(sc.choice[e]);
    service.cost = sc.cost[e];
    report.singleton_cost += service.cost;
    report.services.push_back(service);
  }
}

PackageReport solve_pair_package_ws(const RequestSequence& sequence,
                                    const CostModel& model, ItemPair pair,
                                    const OptimalOfflineOptions& dp,
                                    SolverWorkspace& ws, bool keep_flow) {
  PackageReport report;
  report.pair = pair;
  report.total_accesses =
      sequence.item_frequency(pair.a) + sequence.item_frequency(pair.b);

  Flow& flow = keep_flow ? report.package_flow : ws.flow;
  make_package_flow(sequence, pair.a, pair.b, flow);
  report.co_request_count = flow.size();
  SolveResult package =
      solve_optimal_offline(flow, model, sequence.server_count(), dp, &ws);
  report.package_cost = package.cost;  // already 2α-discounted
  report.package_schedule = std::move(package.schedule);

  serve_singletons(sequence, model, pair.a, pair.b, report, ws);
  serve_singletons(sequence, model, pair.b, pair.a, report, ws);
  g_singleton_services.add(report.services.size());
  return report;
}

}  // namespace

PackageReport solve_pair_package(const RequestSequence& sequence,
                                 const CostModel& model, ItemPair pair,
                                 const OptimalOfflineOptions& dp,
                                 SolverWorkspace* workspace) {
  model.validate();
  SolverWorkspace local;
  return solve_pair_package_ws(sequence, model, pair, dp,
                               workspace != nullptr ? *workspace : local,
                               /*keep_flow=*/false);
}

SingleItemReport solve_single_item(const RequestSequence& sequence,
                                   const CostModel& model, ItemId item,
                                   const OptimalOfflineOptions& dp,
                                   SolverWorkspace& workspace,
                                   bool keep_flow) {
  SingleItemReport report;
  report.item = item;
  report.accesses = sequence.item_frequency(item);
  Flow& flow = keep_flow ? report.flow : workspace.flow;
  make_item_flow(sequence, item, flow);
  SolveResult solved = solve_optimal_offline(
      flow, model, sequence.server_count(), dp, &workspace);
  report.cost = solved.cost;
  report.schedule = std::move(solved.schedule);
  return report;
}

DpGreedyResult solve_dp_greedy(const RequestSequence& sequence,
                               const CostModel& model,
                               const DpGreedyOptions& options) {
  model.validate();
  require(options.theta >= 0.0 && options.theta <= 1.0,
          "solve_dp_greedy: theta must be in [0, 1]");

  DpGreedyResult result;
  result.total_item_accesses = sequence.total_item_accesses();

  const obs::TraceSpan solve_span("solve/dp_greedy");

  // Phase 1: correlation analysis and greedy packing.  The counting pass
  // shards over the Phase-2 pool unless the caller pinned its own.
  {
    const obs::TraceSpan phase1_span("dp_greedy/phase1");
    const Stopwatch phase1;
    CorrelationOptions correlation = options.correlation;
    if (correlation.pool == nullptr) correlation.pool = options.pool;
    const CorrelationAnalysis analysis(sequence, correlation);
    result.packing =
        greedy_pairing(analysis, options.theta, options.inclusive_threshold);
    result.phase1_seconds = phase1.elapsed_seconds();
  }

  // Phase 2: independent per-package and per-single solves, sharded through
  // the one shared fan-out path (solver/phase2_shard.hpp).  Every solve
  // writes its pre-sized slot; the reductions below run serially in flow
  // order, so totals are bit-identical at every pool width.
  const std::size_t pair_count = result.packing.pairs.size();
  const std::size_t single_count = result.packing.singles.size();
  result.packages.resize(pair_count);
  result.singles.resize(single_count);
  const obs::TraceSpan phase2_span("dp_greedy/phase2");
  g_packages_solved.add(pair_count);
  g_singles_solved.add(single_count);
  for_each_flow_sharded(
      options.pool, pair_count + single_count,
      [&](std::size_t i, SolverWorkspace& ws) {
        if (i < pair_count) {
          result.packages[i] =
              solve_pair_package_ws(sequence, model, result.packing.pairs[i],
                                    options.dp, ws, options.keep_flows);
        } else {
          result.singles[i - pair_count] = solve_single_item(
              sequence, model, result.packing.singles[i - pair_count],
              options.dp, ws, options.keep_flows);
        }
      });

  for (const PackageReport& report : result.packages) {
    result.total_cost += report.total_cost();
  }
  for (const SingleItemReport& report : result.singles) {
    result.total_cost += report.cost;
  }
  result.ave_cost =
      result.total_item_accesses == 0
          ? 0.0
          : result.total_cost / static_cast<double>(result.total_item_accesses);
  return result;
}

}  // namespace dpg
