// Cross-validation of the DP against the independent subset-exact solver:
// two structurally different exact formulations must agree on every
// instance, at sizes the parent-assignment brute force cannot reach.
#include <gtest/gtest.h>

#include <tuple>

#include "reference/bruteforce.hpp"
#include "reference/subset_exact.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

TEST(SubsetExact, EmptyFlow) {
  const SubsetExactResult r =
      solve_subset_exact(Flow{}, CostModel{1, 1, 0.8}, 2);
  EXPECT_EQ(r.raw_cost, 0.0);
}

TEST(SubsetExact, RunningExamplePackageFlow) {
  const RequestSequence seq = testing::running_example_sequence();
  const Flow package = make_package_flow(seq, 0, 1);
  const SubsetExactResult r =
      solve_subset_exact(package, testing::running_example_model(), 4);
  EXPECT_NEAR(r.raw_cost, 5.6, 1e-9);  // 8.96 / 1.6, Section V-C
  EXPECT_NEAR(r.cost, 8.96, 1e-9);
}

TEST(SubsetExact, AgreesWithParentAssignmentBruteForce) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 80; ++trial) {
    const Flow flow = testing::random_flow(rng, 7, 3);
    const CostModel model{1.0, 0.25 + 0.5 * static_cast<double>(trial % 8), 0.8};
    const Cost subset = solve_subset_exact(flow, model, 3).raw_cost;
    const Cost brute = solve_bruteforce(flow, model).raw_cost;
    ASSERT_NEAR(subset, brute, 1e-9) << "trial " << trial;
  }
}

class DpVsSubsetExact
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(DpVsSubsetExact, AgreeOnMediumInstances) {
  const auto [n, servers, lambda] = GetParam();
  Rng rng(0xABBA + n * 7 + servers);
  const CostModel model{1.0, lambda, 0.8};
  for (int trial = 0; trial < 15; ++trial) {
    const Flow flow = testing::random_flow(rng, n, servers);
    const Cost dp = solve_optimal_offline(flow, model, servers).raw_cost;
    const Cost subset = solve_subset_exact(flow, model, servers).raw_cost;
    ASSERT_NEAR(dp, subset, 1e-9)
        << "n=" << n << " m=" << servers << " lambda=" << lambda << " trial="
        << trial;
  }
}

// n up to 16 with few servers keeps local-candidate counts <= 15.
INSTANTIATE_TEST_SUITE_P(
    MediumInstances, DpVsSubsetExact,
    ::testing::Combine(::testing::Values<std::size_t>(10, 13, 16),
                       ::testing::Values<std::size_t>(2, 3, 5),
                       ::testing::Values(0.25, 1.0, 4.0)));

TEST(SubsetExact, RejectsTooManyCandidates) {
  // 30 same-server points -> 30 local candidates > the default cap of 20.
  Flow flow;
  for (std::size_t i = 0; i < 30; ++i) {
    flow.points.push_back({0, static_cast<Time>(i + 1), i});
  }
  const CostModel model{1, 1, 0.8};
  EXPECT_THROW((void)solve_subset_exact(flow, model, 1), InvalidArgument);
}

TEST(SubsetExact, LocalPointsActuallyHaveLocalPredecessors) {
  Rng rng(12);
  const Flow flow = testing::random_flow(rng, 14, 3);
  const CostModel model{1.0, 0.5, 0.8};
  const SubsetExactResult r = solve_subset_exact(flow, model, 3);
  // Every chosen LOCAL point must have an earlier same-server point (or the
  // origin, for server 0).
  for (const std::size_t point : r.local_points) {
    const ServerId server = flow.points[point].server;
    bool has_predecessor = server == kOriginServer;
    for (std::size_t j = 0; j < point; ++j) {
      if (flow.points[j].server == server) has_predecessor = true;
    }
    ASSERT_TRUE(has_predecessor);
  }
}

}  // namespace
}  // namespace dpg
