// Differential test of the online engine's epoch re-pairing.
//
// OnlineDpGreedyState::repack looks only at the items the sliding window
// touched since the previous epoch (plus the items its dissolves free).
// FullScanDpGreedyState below is the algorithm it replaced, kept verbatim
// as a test-only oracle: every epoch re-checks every packed pair in
// ascending item order and walks every co-occurring pair of the window.
// The two must agree bit for bit — per push (cost delta, epoch, live
// packages), at every snapshot, and in the final RunReport — over random
// zipf, bursty, uniform, taxi, paired and clustered traces on a θ × window ×
// repack grid, both on one engine (M = 1) and behind the sharded runtime's
// flow routing (M = 3).
//
// Both sides read the same WindowedCorrelation; its counts are checked
// against a brute-force recount in windowed_correlation_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dpgreedy.hpp"
#include "solver/online_state.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

/// The pre-touched-set online DP_Greedy state: identical serving, with the
/// O(k + window pairs) full-scan epoch.
class FullScanDpGreedyState {
 public:
  FullScanDpGreedyState(const CostModel& model,
                        const OnlineDpGreedyOptions& options,
                        std::size_t item_count)
      : model_(model),
        options_(options),
        never_drop_(model.mu == 0.0),
        horizon_(never_drop_ ? 0.0
                             : options.hold_factor * model.lambda / model.mu),
        pack_rate_(model.flow_multiplier(2)),
        window_(item_count, options.window) {
    ensure_item_count(item_count);
  }
  FullScanDpGreedyState(const FullScanDpGreedyState&) = delete;
  FullScanDpGreedyState& operator=(const FullScanDpGreedyState&) = delete;

  void ensure_item_count(std::size_t item_count) {
    if (item_count <= partner_.size()) return;
    window_.ensure_item_count(item_count);
    partner_.resize(item_count, kNoItem);
    package_lo_.resize(item_count, kNoItem);
    item_flow_.reserve(item_count);
    while (item_flow_.size() < item_count) {
      item_flow_.emplace_back(1.0, kOriginServer, 0.0);
      item_flow_.back().set_pending_cost(&result_.total_cost);
    }
  }

  Cost push(ServerId server, Time time, std::span<const ItemId> items) {
    if (!items.empty()) {
      ensure_item_count(static_cast<std::size_t>(items.back()) + 1);
    }
    const Cost cost_before = result_.total_cost;
    window_.add(items);
    window_.clear_touched();  // the full scan needs no touched set
    if (++since_repack_ >= options_.repack_interval) {
      since_repack_ = 0;
      repack(time);
    }

    handled_.assign(items.size(), false);
    for (std::size_t x = 0; x < items.size(); ++x) {
      if (handled_[x]) continue;
      const ItemId item = items[x];
      const ItemId mate = partner_[item];
      const bool mate_present =
          mate != kNoItem &&
          std::binary_search(items.begin(), items.end(), mate);
      if (mate_present) {
        const Cost shipped = package_slot(item).serve(
            server, time, model_, horizon_, never_drop_, &result_.transfers,
            &result_.cache_time);
        result_.total_cost += shipped;
        result_.transfer_cost += shipped;
        for (std::size_t y = 0; y < items.size(); ++y) {
          if (items[y] == mate) handled_[y] = true;
        }
        handled_[x] = true;
      } else if (mate != kNoItem) {
        BreakEvenFlowState& flow = package_slot(item);
        if (!flow.has_copy_at(server)) {
          result_.total_cost += pack_rate_ * model_.lambda;
          result_.transfer_cost += pack_rate_ * model_.lambda;
          ++result_.package_fetches;
          flow.add_copy(server, time);
        } else {
          flow.add_copy(server, time);
        }
        handled_[x] = true;
      } else {
        const Cost shipped = item_flow_[item].serve(
            server, time, model_, horizon_, never_drop_, &result_.transfers,
            &result_.cache_time);
        result_.total_cost += shipped;
        result_.transfer_cost += shipped;
        handled_[x] = true;
      }
    }
    result_.total_item_accesses += items.size();
    return result_.total_cost - cost_before;
  }

  OnlineDpGreedyResult finalize() {
    const std::size_t k = partner_.size();
    for (ItemId item = 0; item < k; ++item) {
      if (partner_[item] == kNoItem) {
        result_.total_cost +=
            item_flow_[item].finalize(model_, &result_.cache_time);
      } else if (item < partner_[item]) {
        result_.total_cost +=
            package_slot(item).finalize(model_, &result_.cache_time);
      }
    }
    result_.ave_cost =
        result_.total_item_accesses == 0
            ? 0.0
            : result_.total_cost /
                  static_cast<double>(result_.total_item_accesses);
    return result_;
  }

  [[nodiscard]] OnlineDpGreedyResult value_now() const {
    OnlineDpGreedyResult result = result_;
    const std::size_t k = partner_.size();
    for (ItemId item = 0; item < k; ++item) {
      if (partner_[item] == kNoItem) {
        item_flow_[item].peek_accrued(model_, &result.total_cost,
                                      &result.cache_time);
      } else if (item < partner_[item]) {
        package_slot(item).peek_accrued(model_, &result.total_cost,
                                        &result.cache_time);
      }
    }
    result.ave_cost =
        result.total_item_accesses == 0
            ? 0.0
            : result.total_cost /
                  static_cast<double>(result.total_item_accesses);
    return result;
  }

  [[nodiscard]] std::size_t repack_rounds() const { return repacks_; }
  [[nodiscard]] std::size_t live_packages() const { return live_packages_; }

 private:
  void repack(Time now) {
    ++repacks_;
    const std::size_t k = partner_.size();
    for (ItemId a = 0; a < k; ++a) {
      const ItemId b = partner_[a];
      if (b == kNoItem || a > b) continue;
      if (window_.jaccard(a, b) < options_.theta / 2.0) {
        const ReplicaCopy seat = package_slot(a).most_recent();
        result_.total_cost +=
            package_slot(a).finalize(model_, &result_.cache_time);
        free_package_slots_.push_back(package_lo_[a]);
        package_lo_[a] = kNoItem;
        package_lo_[b] = kNoItem;
        item_flow_[a] = BreakEvenFlowState(1.0, seat.server, now);
        item_flow_[a].set_pending_cost(&result_.total_cost);
        item_flow_[b] = BreakEvenFlowState(1.0, seat.server, now);
        item_flow_[b].set_pending_cost(&result_.total_cost);
        partner_[a] = kNoItem;
        partner_[b] = kNoItem;
        ++result_.unpack_events;
        --live_packages_;
      }
    }
    // Every co-occurring pair of the window, each once (a < b).
    candidates_.clear();
    for (ItemId a = 0; a < k; ++a) {
      for (const WindowedCorrelation::Neighbor& n : window_.neighbors(a)) {
        const ItemId b = n.item;
        if (b < a) continue;
        if (partner_[a] != kNoItem || partner_[b] != kNoItem) continue;
        const double j = window_.jaccard(a, b);
        if (j > options_.theta) candidates_.emplace_back(j, std::make_pair(a, b));
      }
    }
    std::sort(candidates_.rbegin(), candidates_.rend());
    for (const auto& [j, pair] : candidates_) {
      const auto [a, b] = pair;
      if (partner_[a] != kNoItem || partner_[b] != kNoItem) continue;
      const ReplicaCopy seat = item_flow_[a].most_recent();
      result_.total_cost += item_flow_[a].finalize(model_, &result_.cache_time);
      result_.total_cost += item_flow_[b].finalize(model_, &result_.cache_time);
      result_.total_cost += model_.lambda;
      result_.transfer_cost += model_.lambda;
      ++result_.transfers;
      partner_[a] = b;
      partner_[b] = a;
      if (free_package_slots_.empty()) {
        package_lo_[a] = static_cast<ItemId>(package_flow_.size());
        package_flow_.emplace_back(pack_rate_, seat.server, now);
      } else {
        package_lo_[a] = free_package_slots_.back();
        free_package_slots_.pop_back();
        package_flow_[package_lo_[a]] =
            BreakEvenFlowState(pack_rate_, seat.server, now);
      }
      package_lo_[b] = package_lo_[a];
      package_flow_[package_lo_[a]].set_pending_cost(&result_.total_cost);
      ++result_.pack_events;
      ++live_packages_;
    }
  }

  BreakEvenFlowState& package_slot(ItemId item) {
    return package_flow_[package_lo_[item]];
  }
  [[nodiscard]] const BreakEvenFlowState& package_slot(ItemId item) const {
    return package_flow_[package_lo_[item]];
  }

  CostModel model_;
  OnlineDpGreedyOptions options_;
  bool never_drop_;
  double horizon_;
  double pack_rate_;
  WindowedCorrelation window_;
  std::vector<ItemId> partner_;
  std::vector<ItemId> package_lo_;
  std::vector<BreakEvenFlowState> item_flow_;
  std::vector<BreakEvenFlowState> package_flow_;
  std::vector<ItemId> free_package_slots_;
  std::size_t live_packages_ = 0;
  OnlineDpGreedyResult result_;
  std::size_t since_repack_ = 0;
  std::size_t repacks_ = 0;
  std::vector<bool> handled_;
  std::vector<std::pair<double, std::pair<ItemId, ItemId>>> candidates_;
};

const CostModel kModel{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};

/// StreamingEngine's result → report mapping.
RunReport report_of(const OnlineDpGreedyResult& result) {
  RunReport report;
  report.solver = "online_dp_greedy";
  report.total_cost = result.total_cost;
  report.raw_cost = result.total_cost;
  report.total_item_accesses = result.total_item_accesses;
  report.transfer_cost = result.transfer_cost;
  report.package_count = result.pack_events;
  report.unpack_events = result.unpack_events;
  report.transfer_events = result.transfers + result.package_fetches;
  finalize_report(report);
  return report;
}

void expect_reports_equal(const RunReport& a, const RunReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.total_cost, b.total_cost) << label;
  EXPECT_EQ(a.raw_cost, b.raw_cost) << label;
  EXPECT_EQ(a.ave_cost, b.ave_cost) << label;
  EXPECT_EQ(a.cache_cost, b.cache_cost) << label;
  EXPECT_EQ(a.transfer_cost, b.transfer_cost) << label;
  EXPECT_EQ(a.total_item_accesses, b.total_item_accesses) << label;
  EXPECT_EQ(a.package_count, b.package_count) << label;
  EXPECT_EQ(a.unpack_events, b.unpack_events) << label;
  EXPECT_EQ(a.transfer_events, b.transfer_events) << label;
}

/// Rows of 1–5 items from overlapping clusters of 8: many pairs per row,
/// long adjacency rows, and pairs whose both ends are touched.
RequestSequence clustered_trace(Rng& rng, std::size_t rows,
                                std::size_t item_count) {
  SequenceBuilder builder(16, item_count);
  Time t = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    t += 0.25 * static_cast<Time>(rng.next_int(1, 8));
    const std::size_t base = rng.next_below(item_count);
    std::vector<ItemId> items;
    const std::size_t width = 1 + rng.next_below(5);
    for (std::size_t w = 0; w < width; ++w) {
      items.push_back(
          static_cast<ItemId>((base + rng.next_below(8)) % item_count));
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    builder.add(static_cast<ServerId>(rng.next_below(16)), t, std::move(items));
  }
  return std::move(builder).build();
}

struct NamedTrace {
  std::string name;
  RequestSequence trace;
};

std::vector<NamedTrace> oracle_traces() {
  std::vector<NamedTrace> traces;
  {
    Rng rng(101);
    ZipfTraceConfig config;
    config.server_count = 16;
    config.item_count = 500;
    config.request_count = 2500;
    config.zipf_exponent = 0.8;
    traces.push_back({"zipf", generate_zipf_trace(config, rng)});
  }
  {
    Rng rng(202);
    BurstyTraceConfig config;
    config.server_count = 16;
    config.item_count = 120;
    config.burst_count = 80;
    config.requests_per_burst = 25;
    config.working_set = 4;
    traces.push_back({"bursty", generate_bursty_trace(config, rng)});
  }
  {
    Rng rng(303);
    UniformTraceConfig config;
    config.server_count = 16;
    config.item_count = 300;
    config.request_count = 1500;
    traces.push_back({"uniform", generate_uniform_trace(config, rng)});
  }
  {
    Rng rng(404);
    MobilityConfig config;
    config.taxi_count = 40;
    config.duration = 150.0;
    traces.push_back({"taxi", simulate_mobility(config, rng)});
  }
  {
    Rng rng(505);
    PairedTraceConfig config;
    config.server_count = 16;
    config.requests_per_pair = 12;
    config.pair_jaccard.assign(200, 0.0);
    for (std::size_t p = 0; p < config.pair_jaccard.size(); ++p) {
      config.pair_jaccard[p] = 0.05 + 0.9 * static_cast<double>(p % 10) / 9.0;
    }
    traces.push_back({"paired", generate_paired_trace(config, rng)});
  }
  {
    Rng rng(606);
    traces.push_back({"clustered", clustered_trace(rng, 2000, 60)});
  }
  return traces;
}

struct GridPoint {
  double theta;
  std::size_t window;
  std::size_t repack;
};

std::vector<GridPoint> oracle_grid() {
  std::vector<GridPoint> grid;
  for (const double theta : {0.0, 0.05, 0.3, 0.9}) {
    for (const std::size_t window : {1u, 7u, 200u}) {
      for (const std::size_t repack : {1u, 3u, 50u}) {
        grid.push_back({theta, window, repack});
      }
    }
  }
  return grid;
}

OnlineDpGreedyOptions options_at(const GridPoint& point) {
  OnlineDpGreedyOptions options;
  options.theta = point.theta;
  options.window = point.window;
  options.repack_interval = point.repack;
  return options;
}

std::string label_of(const std::string& trace, const GridPoint& point) {
  return trace + " theta=" + std::to_string(point.theta) +
         " window=" + std::to_string(point.window) +
         " repack=" + std::to_string(point.repack);
}

TEST(OnlineRepackOracle, TouchedSetEpochsMatchTheFullScanPerPush) {
  for (const NamedTrace& named : oracle_traces()) {
    const RequestSequence& trace = named.trace;
    std::size_t packs_seen = 0;
    for (const GridPoint& point : oracle_grid()) {
      const std::string label = label_of(named.name, point);
      const OnlineDpGreedyOptions options = options_at(point);
      OnlineDpGreedyState state(kModel, options, trace.item_count());
      FullScanDpGreedyState oracle(kModel, options, trace.item_count());
      for (std::size_t r = 0; r < trace.size(); ++r) {
        const OnlineDpGreedyState::Decision d =
            state.push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
        const Cost oracle_delta =
            oracle.push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
        ASSERT_EQ(d.cost_delta, oracle_delta) << label << " row " << r;
        ASSERT_EQ(state.repack_rounds(), oracle.repack_rounds())
            << label << " row " << r;
        ASSERT_EQ(state.live_packages(), oracle.live_packages())
            << label << " row " << r;
        if (r % 97 == 0) {
          expect_reports_equal(report_of(state.value_now()),
                               report_of(oracle.value_now()),
                               label + " row " + std::to_string(r));
        }
      }
      const OnlineDpGreedyResult got = state.finalize();
      const OnlineDpGreedyResult want = oracle.finalize();
      expect_reports_equal(report_of(got), report_of(want), label);
      EXPECT_EQ(got.cache_time, want.cache_time) << label;
      EXPECT_EQ(got.package_fetches, want.package_fetches) << label;
      packs_seen += got.pack_events;
    }
    // Every generator but the single-item uniform one must exercise packing.
    if (named.name != "uniform") {
      EXPECT_GT(packs_seen, 0u) << named.name;
    }
  }
}

/// The oracle behind the sharded runtime's routing: one oracle state per
/// partition fed in global trace order, snapshotted at the barrier rows the
/// sharded sources emit, merged in partition-index order.
void expect_sharded_matches_oracle(const NamedTrace& named,
                                   const GridPoint& point,
                                   std::size_t partitions, ServeRoute route) {
  const RequestSequence& trace = named.trace;
  const std::string label = label_of(named.name, point) +
                            " M=" + std::to_string(partitions) + " route=" +
                            serve_route_name(route);
  ServeConfig config;
  config.batch(64).partitions(partitions).shards(2).snapshot_every(300);
  config.flow_route = route;
  StreamingOptions options;
  options.online = options_at(point);
  options.item_count_hint = trace.item_count();

  SequenceClaimSource source(trace, config.batch_rows);
  std::vector<StreamingSnapshot> snapshots;
  std::vector<std::size_t> snapshot_rows;
  const ShardedServeResult result = run_sharded_serve(
      source, kModel, config, options,
      [&](const StreamingSnapshot& snap, std::size_t rows) {
        snapshots.push_back(snap);
        snapshot_rows.push_back(rows);
      });
  ASSERT_TRUE(result.feed_error.empty()) << label;

  std::vector<std::unique_ptr<FullScanDpGreedyState>> oracles;
  for (std::size_t j = 0; j < partitions; ++j) {
    oracles.push_back(std::make_unique<FullScanDpGreedyState>(
        kModel, options.online, trace.item_count()));
  }
  std::size_t next_snapshot = 0;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const std::size_t j = serve_partition_of(
        trace.server_of(r), trace.items_of(r), route, partitions);
    oracles[j]->push(trace.server_of(r), trace.time_of(r), trace.items_of(r));
    if (next_snapshot < snapshot_rows.size() &&
        snapshot_rows[next_snapshot] == r + 1) {
      std::vector<RunReport> parts;
      std::size_t epoch = 0;
      std::size_t live = 0;
      for (const auto& oracle : oracles) {
        parts.push_back(report_of(oracle->value_now()));
        epoch = std::max(epoch, oracle->repack_rounds());
        live += oracle->live_packages();
      }
      const StreamingSnapshot& snap = snapshots[next_snapshot];
      const std::string at = label + " snapshot@" + std::to_string(r + 1);
      EXPECT_EQ(snap.epoch, epoch) << at;
      EXPECT_EQ(snap.live_packages, live) << at;
      expect_reports_equal(snap.report, merge_partition_reports(parts), at);
      ++next_snapshot;
    }
  }
  EXPECT_EQ(next_snapshot, snapshot_rows.size()) << label;
  EXPECT_GT(snapshot_rows.size(), 0u) << label;

  std::vector<RunReport> finals;
  std::size_t epoch = 0;
  for (std::size_t j = 0; j < partitions; ++j) {
    epoch = std::max(epoch, oracles[j]->repack_rounds());
    finals.push_back(report_of(oracles[j]->finalize()));
    expect_reports_equal(result.partition_reports[j], finals.back(),
                         label + " partition " + std::to_string(j));
  }
  EXPECT_EQ(result.epoch, epoch) << label;
  expect_reports_equal(result.report, merge_partition_reports(finals), label);
}

TEST(OnlineRepackOracle, ShardedServeMatchesTheFullScanAtOneAndThreePartitions) {
  for (const NamedTrace& named : oracle_traces()) {
    for (const GridPoint& point : oracle_grid()) {
      expect_sharded_matches_oracle(named, point, 1, ServeRoute::kByServer);
      expect_sharded_matches_oracle(named, point, 3, ServeRoute::kByServer);
      expect_sharded_matches_oracle(named, point, 3, ServeRoute::kByItemSet);
    }
  }
}

}  // namespace
}  // namespace dpg
