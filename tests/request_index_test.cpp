// The Section-V pre-scan (Fig. 8): the production index's p(i) column and
// the paper-literal pLast snapshots / Q_j lists it is checked against.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/request_index.hpp"
#include "reference/prescan_snapshots.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

using reference::PreScanSnapshots;

Flow fig8_like_flow() {
  // Servers: 0 (origin), 1, 2, 3; nodes at 0.5@2, 0.8@1, 1.4@0, 2.6@2, 4.0@1.
  Flow flow;
  flow.points.push_back({2, 0.5, 0});
  flow.points.push_back({1, 0.8, 1});
  flow.points.push_back({0, 1.4, 2});
  flow.points.push_back({2, 2.6, 3});
  flow.points.push_back({1, 4.0, 4});
  return flow;
}

Flow random_flow(std::size_t points, std::size_t servers, std::uint64_t seed) {
  Rng rng(seed);
  Flow flow;
  Time t = 0.0;
  for (std::size_t i = 0; i < points; ++i) {
    t += rng.next_double(0.01, 1.0);
    flow.points.push_back(
        {static_cast<ServerId>(rng.next_below(servers)), t, i});
  }
  return flow;
}

/// p(i) of `index`, rebuilt for `flow`, is the own-server entry of node
/// i's paper-literal pLast snapshot, for every node.
void expect_prev_matches_snapshots(RequestIndex& index, const Flow& flow,
                                   std::size_t servers) {
  index.rebuild(flow, servers);
  const PreScanSnapshots oracle(flow, servers);
  ASSERT_EQ(index.node_count(), oracle.node_count());
  ASSERT_EQ(index.prev().size(), index.node_count());
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    ASSERT_EQ(index.server_of(i), oracle.server_of(i));
    ASSERT_EQ(index.prev_same_server(i),
              oracle.snapshot(i)[index.server_of(i)])
        << "node " << i << " of " << index.node_count() << ", m = " << servers;
    ASSERT_EQ(index.prev()[i], index.prev_same_server(i));
  }
}

TEST(RequestIndex, OriginIsNodeZero) {
  const RequestIndex index(fig8_like_flow(), 4);
  EXPECT_EQ(index.node_count(), 6u);
  EXPECT_EQ(index.server_of(0), kOriginServer);
  EXPECT_EQ(index.time_of(0), 0.0);
}

TEST(RequestIndex, SnapshotsHoldMostRecentStrictlyBefore) {
  const PreScanSnapshots oracle(fig8_like_flow(), 4);
  // Node 1 (0.5@2): only the origin exists before it.
  EXPECT_EQ(oracle.recent_on_server(1, 0), 0);
  EXPECT_EQ(oracle.recent_on_server(1, 1), PreScanSnapshots::kNone);
  EXPECT_EQ(oracle.recent_on_server(1, 2), PreScanSnapshots::kNone);
  // Node 4 (2.6@2): server 2 last visited by node 1 (0.5).
  EXPECT_EQ(oracle.recent_on_server(4, 2), 1);
  EXPECT_EQ(oracle.recent_on_server(4, 0), 3);  // 1.4@0
  EXPECT_EQ(oracle.recent_on_server(4, 1), 2);  // 0.8@1
  EXPECT_EQ(oracle.recent_on_server(4, 3), PreScanSnapshots::kNone);
  // Node 5 (4.0@1): p(i) is node 2 (0.8@1).
  EXPECT_EQ(oracle.recent_on_server(5, 1), 2);

  // The production index answers p(i) alone, with the same values.
  const RequestIndex index(fig8_like_flow(), 4);
  EXPECT_EQ(index.prev_same_server(4), 1);
  EXPECT_EQ(index.prev_same_server(5), 2);
}

TEST(RequestIndex, SelfIsExcludedFromItsOwnSnapshot) {
  const PreScanSnapshots oracle(fig8_like_flow(), 4);
  // Node 3 sits on server 0; its snapshot for server 0 must be the origin,
  // not itself.
  EXPECT_EQ(oracle.recent_on_server(3, 0), 0);
  EXPECT_EQ(RequestIndex(fig8_like_flow(), 4).prev_same_server(3), 0);
}

TEST(RequestIndex, QueueLinksWalkPerServerHistory) {
  const PreScanSnapshots oracle(fig8_like_flow(), 4);
  // Server 2's queue: node 1 (0.5) then node 4 (2.6).
  EXPECT_EQ(oracle.q_tail(2), 4);
  EXPECT_EQ(oracle.q_prev(4), 1);
  EXPECT_EQ(oracle.q_prev(1), PreScanSnapshots::kNone);
  EXPECT_EQ(oracle.q_next(1), 4);
  EXPECT_EQ(oracle.q_next(4), PreScanSnapshots::kNone);
  // Server 0's queue: origin (node 0) then node 3 (1.4).
  EXPECT_EQ(oracle.q_tail(0), 3);
  EXPECT_EQ(oracle.q_prev(3), 0);
  // Server 3 never visited.
  EXPECT_EQ(oracle.q_tail(3), PreScanSnapshots::kNone);
}

TEST(RequestIndex, SnapshotSpanHasOneEntryPerServer) {
  const PreScanSnapshots oracle(fig8_like_flow(), 4);
  EXPECT_EQ(oracle.snapshot(5).size(), 4u);
}

TEST(RequestIndex, PrevMatchesOwnServerSnapshotEntry) {
  // One index rebuilt across every shape, growing and shrinking n and m,
  // answers as the oracle does (the workspace reuse contract).
  RequestIndex index;
  expect_prev_matches_snapshots(index, fig8_like_flow(), 4);
  for (const std::size_t m : {2048u, 1u, 16u}) {
    for (const std::size_t points : {3000u, 0u, 1u, 7u, 500u}) {
      expect_prev_matches_snapshots(
          index, random_flow(points, m, 31 * m + points), m);
    }
  }
}

TEST(RequestIndex, FootprintIsLinearNotNodesTimesServers) {
  const std::size_t m = 2048;
  const Flow flow = random_flow(8192, m, 5);
  const RequestIndex index(flow, m);
  // The paper's pLast snapshots alone are (n+1)·m·4 bytes; the index keeps
  // O(n + m): time, server and p(i) per node plus one scan slot per server.
  const std::size_t per_node =
      sizeof(Time) + sizeof(ServerId) + sizeof(std::int32_t);
  EXPECT_GE(index.footprint_bytes(),
            index.node_count() * per_node + m * sizeof(std::int32_t));
  EXPECT_LE(index.footprint_bytes(),
            2 * (index.node_count() * per_node + m * sizeof(std::int32_t)));
  EXPECT_LT(index.footprint_bytes() * 100,
            index.node_count() * m * sizeof(std::int32_t));
}

TEST(RequestIndex, RejectsBadInputs) {
  EXPECT_THROW(RequestIndex(fig8_like_flow(), 0), InvalidArgument);
  EXPECT_THROW(RequestIndex(fig8_like_flow(), 2),  // server 3 out of range
               InvalidArgument);
  Flow bad;
  bad.points.push_back({0, 2.0, 0});
  bad.points.push_back({0, 1.0, 1});
  EXPECT_THROW(RequestIndex(bad, 1), InvalidArgument);
}

TEST(RequestIndex, FlowErrorsMatchValidateFlow) {
  // The index checks the flow in its copy pass; a rejected flow fails with
  // validate_flow's exception and message.
  const auto message_of = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "no throw";
  };
  Flow backwards = fig8_like_flow();
  backwards.points[3].time = 1.0;
  Flow at_zero = fig8_like_flow();
  at_zero.points[0].time = 0.0;
  Flow no_group = fig8_like_flow();
  no_group.group_size = 0;
  for (const Flow& flow : {backwards, at_zero, no_group}) {
    const std::string expected = message_of([&] { validate_flow(flow); });
    EXPECT_NE(expected, "no throw");
    EXPECT_EQ(message_of([&] { (void)RequestIndex(flow, 4); }), expected);
  }
}

TEST(RequestIndex, EmptyFlowHasJustTheOrigin) {
  const RequestIndex index(Flow{}, 3);
  EXPECT_EQ(index.node_count(), 1u);
  EXPECT_EQ(index.prev_same_server(0), RequestIndex::kNone);
  EXPECT_EQ(PreScanSnapshots(Flow{}, 3).q_tail(0), 0);
}

}  // namespace
}  // namespace dpg
