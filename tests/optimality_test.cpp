// The central correctness property of the substrate: the reconstructed
// Wang-et-al. DP equals exhaustive search over standard-form schedules on
// every small random instance we can afford to enumerate.  This validates
// the recurrences of solver/optimal_offline.hpp as *optimal*, not merely
// feasible, which the DP_Greedy analysis (Lemma 1, Theorem 1) relies on.
#include <gtest/gtest.h>

#include <tuple>

#include "reference/bruteforce.hpp"
#include "solver/greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

class OptimalityProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, double>> {};

TEST_P(OptimalityProperty, DpMatchesBruteForce) {
  const auto [n, servers, lambda] = GetParam();
  Rng rng(0xD00D + n * 131 + servers * 17);
  const CostModel model{1.0, lambda, 0.8};
  for (int trial = 0; trial < 40; ++trial) {
    const Flow flow = testing::random_flow(rng, n, servers);
    const SolveResult dp = solve_optimal_offline(flow, model, servers);
    const BruteForceResult exhaustive = solve_bruteforce(flow, model);
    ASSERT_NEAR(dp.raw_cost, exhaustive.raw_cost, 1e-9)
        << "DP is not optimal on:\n n=" << n << " servers=" << servers
        << " lambda=" << lambda << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, OptimalityProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values<std::size_t>(2, 3, 4),
                       ::testing::Values(0.25, 1.0, 4.0)));

// Greedy is never better than the DP (sanity of both directions).
class GreedyDominanceProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(GreedyDominanceProperty, DpLowerBoundsGreedy) {
  const auto [n, lambda] = GetParam();
  Rng rng(0xBEEF + n);
  const CostModel model{1.0, lambda, 0.8};
  for (int trial = 0; trial < 60; ++trial) {
    const Flow flow = testing::random_flow(rng, n, 4);
    const SolveResult dp = solve_optimal_offline(flow, model, 4);
    const SolveResult greedy = solve_greedy(flow, model, 4);
    ASSERT_LE(dp.raw_cost, greedy.raw_cost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyDominanceProperty,
    ::testing::Combine(::testing::Values<std::size_t>(5, 20, 60),
                       ::testing::Values(0.25, 1.0, 4.0)));

}  // namespace
}  // namespace dpg
