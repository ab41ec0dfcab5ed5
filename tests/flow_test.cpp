// Unit tests for flow extraction.
//
// The production builders merge the items' sorted request-index lists.  The
// oracles below are the row-probe and full-scan builders they replaced: they
// decide membership by asking each row's item set, so they share no code
// with the merge path.  The property tests check the two point for point.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

// ---------------------------------------------------------------------------
// Oracles.

/// Package flow by row probe: walk one item's requests, keep the rows whose
/// item set also holds the other item.
Flow package_flow_oracle(const RequestSequence& sequence, ItemId a, ItemId b) {
  Flow flow;
  flow.group_size = 2;
  for (const std::size_t index : sequence.indices_for_item(a)) {
    const Request r = sequence[index];
    if (r.contains(b)) flow.points.push_back({r.server, r.time, index});
  }
  return flow;
}

/// Group / union flow by full scan: every row, probed for every item.
Flow scan_flow_oracle(const RequestSequence& sequence,
                      const std::vector<ItemId>& group, bool need_all) {
  Flow flow;
  flow.group_size = group.size();
  for (std::size_t index = 0; index < sequence.size(); ++index) {
    const Request r = sequence[index];
    const auto holds = [&r](ItemId item) { return r.contains(item); };
    const bool keep = need_all
                          ? std::all_of(group.begin(), group.end(), holds)
                          : std::any_of(group.begin(), group.end(), holds);
    if (keep) flow.points.push_back({r.server, r.time, index});
  }
  return flow;
}

void expect_same_flow(const Flow& expected, const Flow& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.group_size, actual.group_size) << context;
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.points[i].request_index, actual.points[i].request_index)
        << context << ", point " << i;
    EXPECT_EQ(expected.points[i].server, actual.points[i].server)
        << context << ", point " << i;
    EXPECT_EQ(expected.points[i].time, actual.points[i].time)
        << context << ", point " << i;
  }
}

std::string label_of(const std::vector<ItemId>& group) {
  std::string out = "{";
  for (const ItemId item : group) out += std::to_string(item) + ",";
  return out + "}";
}

/// Checks every merge-built flow kind against the oracles for `group`.
void expect_flows_match_oracles(const RequestSequence& sequence,
                                const std::vector<ItemId>& group,
                                const std::string& trace) {
  const std::string context = trace + " group " + label_of(group);
  if (group.size() == 2) {
    expect_same_flow(package_flow_oracle(sequence, group[0], group[1]),
                     make_package_flow(sequence, group[0], group[1]),
                     context + " package");
  }
  expect_same_flow(scan_flow_oracle(sequence, group, /*need_all=*/true),
                   make_group_flow(sequence, group), context + " group");
  expect_same_flow(scan_flow_oracle(sequence, group, /*need_all=*/false),
                   make_union_flow(sequence, group), context + " union");
}

/// Every pair (a, b) with a <= b (a == b: identical lists), then random
/// unsorted groups of 3 and 4 distinct items.
void check_trace(const RequestSequence& sequence, const std::string& trace,
                 Rng& rng) {
  const auto k = static_cast<ItemId>(sequence.item_count());
  for (ItemId a = 0; a < k; ++a) {
    for (ItemId b = a; b < k; ++b) {
      expect_flows_match_oracles(sequence, {a, b}, trace);
      if (a != b) expect_flows_match_oracles(sequence, {b, a}, trace);
    }
  }
  for (const std::size_t g : {std::size_t{3}, std::size_t{4}}) {
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<ItemId> group;
      while (group.size() < g) {
        const auto item = static_cast<ItemId>(rng.next_below(k));
        if (std::find(group.begin(), group.end(), item) == group.end()) {
          group.push_back(item);
        }
      }
      expect_flows_match_oracles(sequence, group, trace);
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-checked cases.

RequestSequence sample() {
  return RequestSequence(
      3, 3,
      {RequestDraft{0, 1.0, {0, 1}}, RequestDraft{1, 2.0, {1}}, RequestDraft{2, 3.0, {0, 1}},
       RequestDraft{1, 4.0, {2}}, RequestDraft{0, 5.0, {0, 1, 2}}});
}

TEST(Flow, ItemFlowPicksContainingRequests) {
  const Flow flow = make_item_flow(sample(), 0);
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.points[0].time, 1.0);
  EXPECT_EQ(flow.points[1].time, 3.0);
  EXPECT_EQ(flow.points[2].time, 5.0);
  EXPECT_EQ(flow.points[1].request_index, 2u);
  EXPECT_EQ(flow.group_size, 1u);
}

TEST(Flow, PackageFlowRequiresBothItems) {
  const Flow flow = make_package_flow(sample(), 0, 1);
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow.group_size, 2u);
  EXPECT_EQ(flow.points[0].time, 1.0);
  EXPECT_EQ(flow.points[2].time, 5.0);
}

TEST(Flow, GroupFlowRequiresAllItems) {
  const Flow flow = make_group_flow(sample(), {0, 1, 2});
  ASSERT_EQ(flow.size(), 1u);
  EXPECT_EQ(flow.points[0].time, 5.0);
  EXPECT_EQ(flow.group_size, 3u);
}

TEST(Flow, UnionFlowTakesAnyItem) {
  const Flow flow = make_union_flow(sample(), {0, 2});
  ASSERT_EQ(flow.size(), 4u);  // 1.0, 3.0, 4.0, 5.0
  EXPECT_EQ(flow.points[2].time, 4.0);
  EXPECT_EQ(flow.group_size, 2u);
}

TEST(Flow, SingletonGroupFlowEqualsItemFlow) {
  const Flow a = make_group_flow(sample(), {1});
  const Flow b = make_item_flow(sample(), 1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points[i].time, b.points[i].time);
  }
}

TEST(Flow, EmptyGroupRejected) {
  EXPECT_THROW((void)make_group_flow(sample(), {}), InvalidArgument);
  EXPECT_THROW((void)make_union_flow(sample(), {}), InvalidArgument);
}

TEST(Flow, EmptyDisjointAndIdenticalListsMatchOracles) {
  // Item 0 and 1 always travel together (identical lists), item 2 never
  // meets them (disjoint), item 3 is never requested (empty list).
  const RequestSequence seq(
      4, 4,
      {RequestDraft{0, 1.0, {0, 1}}, RequestDraft{1, 2.0, {2}},
       RequestDraft{2, 3.0, {0, 1}}, RequestDraft{3, 4.0, {2}},
       RequestDraft{1, 5.0, {0, 1}}});
  EXPECT_EQ(make_package_flow(seq, 0, 1).size(), 3u);
  EXPECT_TRUE(make_package_flow(seq, 0, 2).empty());
  EXPECT_TRUE(make_package_flow(seq, 3, 0).empty());
  EXPECT_TRUE(make_package_flow(seq, 3, 3).empty());
  EXPECT_TRUE(make_group_flow(seq, {0, 1, 3}).empty());
  EXPECT_EQ(make_union_flow(seq, {3, 0}).size(), 3u);
  EXPECT_EQ(make_union_flow(seq, {0, 2}).size(), 5u);
  EXPECT_TRUE(make_union_flow(seq, {3}).empty());
  for (ItemId a = 0; a < 4; ++a) {
    for (ItemId b = 0; b < 4; ++b) {
      expect_flows_match_oracles(seq, {a, b}, "edge");
      for (ItemId c = 0; c < 4; ++c) {
        expect_flows_match_oracles(seq, {a, b, c}, "edge");
      }
    }
  }
}

TEST(Flow, GroupOrderDoesNotChangeTheFlow) {
  const RequestSequence seq = sample();
  const Flow sorted = make_group_flow(seq, {0, 1, 2});
  const Flow unsorted = make_group_flow(seq, {2, 0, 1});
  expect_same_flow(sorted, unsorted, "group {2,0,1}");
  expect_same_flow(make_union_flow(seq, {0, 2}), make_union_flow(seq, {2, 0}),
                   "union {2,0}");
}

TEST(Flow, SeekIndexMatchesLowerBound) {
  const std::vector<std::size_t> list = {1, 2, 4, 8, 9, 10, 30, 31, 64};
  for (std::size_t from = 0; from <= list.size(); ++from) {
    for (std::size_t target = 0; target <= 70; ++target) {
      const auto expected = static_cast<std::size_t>(
          std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(from),
                           list.end(), target) -
          list.begin());
      EXPECT_EQ(seek_index(list, from, target), expected)
          << "from " << from << ", target " << target;
    }
  }
  EXPECT_EQ(seek_index({}, 0, 5), 0u);
}

// ---------------------------------------------------------------------------
// Property tests: merge-built flows equal the oracles on generated traces.

TEST(FlowProperty, ZipfTracesMatchOracles) {
  Rng rng(41);
  for (const std::uint64_t seed : {3u, 17u}) {
    ZipfTraceConfig config;
    config.server_count = 8;
    config.item_count = 24;
    config.request_count = 1500;
    Rng trace_rng(seed);
    check_trace(generate_zipf_trace(config, trace_rng),
                "zipf seed " + std::to_string(seed), rng);
  }
}

TEST(FlowProperty, BurstyTracesMatchOracles) {
  Rng rng(43);
  for (const std::uint64_t seed : {5u, 29u}) {
    BurstyTraceConfig config;
    config.item_count = 16;
    config.burst_count = 40;
    config.working_set = 4;
    Rng trace_rng(seed);
    check_trace(generate_bursty_trace(config, trace_rng),
                "bursty seed " + std::to_string(seed), rng);
  }
}

TEST(FlowProperty, UniformTracesMatchOracles) {
  Rng rng(47);
  for (const std::uint64_t seed : {7u, 31u}) {
    UniformTraceConfig config;
    config.item_count = 16;
    config.request_count = 1200;
    Rng trace_rng(seed);
    check_trace(generate_uniform_trace(config, trace_rng),
                "uniform seed " + std::to_string(seed), rng);
  }
}

TEST(Flow, ValidateCatchesNonIncreasingTimes) {
  Flow flow;
  flow.points.push_back({0, 1.0, 0});
  flow.points.push_back({0, 1.0, 1});
  EXPECT_THROW(validate_flow(flow), InvalidArgument);
  Flow zero;
  zero.points.push_back({0, 0.0, 0});
  EXPECT_THROW(validate_flow(zero), InvalidArgument);
  Flow empty;
  EXPECT_NO_THROW(validate_flow(empty));
}

}  // namespace
}  // namespace dpg
