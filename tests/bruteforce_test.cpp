// Unit tests for the exhaustive optimal solver.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "reference/bruteforce.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(BruteForce, EmptyFlow) {
  const Flow flow{{}, 1};
  const BruteForceResult r = solve_bruteforce(flow, CostModel{1, 1, 0.8});
  EXPECT_EQ(r.raw_cost, 0.0);
}

TEST(BruteForce, SingleRequestMatchesHandComputation) {
  Flow flow;
  flow.points.push_back({2, 1.5, 0});
  const BruteForceResult r = solve_bruteforce(flow, CostModel{1, 1, 0.8});
  EXPECT_NEAR(r.raw_cost, 2.5, kTol);  // hold 1.5 at origin + transfer
}

TEST(BruteForce, SharedLineIsCountedOnce) {
  // Two children hanging off the same origin hold must not double-charge
  // the overlapping interval.
  Flow flow;
  flow.points.push_back({1, 1.0, 0});
  flow.points.push_back({2, 2.0, 1});
  const CostModel model{1.0, 0.1, 0.8};
  // Parent both at origin: hold [0,2] once (2μ) + 2 transfers.
  const Cost explicit_cost =
      price_parent_assignment(flow, model, {0, 0});
  EXPECT_NEAR(explicit_cost, 2.0 + 0.2, kTol);
  const BruteForceResult best = solve_bruteforce(flow, model);
  EXPECT_LE(best.raw_cost, explicit_cost + kTol);
}

TEST(BruteForce, PriceRejectsWrongArity) {
  Flow flow;
  flow.points.push_back({1, 1.0, 0});
  const CostModel model{1, 1, 0.8};
  const std::vector<std::uint8_t> too_many_parents{0, 0};
  EXPECT_THROW((void)price_parent_assignment(flow, model, too_many_parents),
               InvalidArgument);
}

TEST(BruteForce, RejectsOversizedFlows) {
  Rng rng(3);
  const Flow flow = testing::random_flow(rng, 12, 3);
  const CostModel model{1, 1, 0.8};
  EXPECT_THROW((void)solve_bruteforce(flow, model, 10), InvalidArgument);
}

TEST(BruteForce, WinningScheduleIsFeasibleAndPricedConsistently) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const Flow flow = testing::random_flow(rng, 6, 3);
    const CostModel model{1.0, 0.5 + static_cast<double>(trial % 5), 0.8};
    const BruteForceResult r = solve_bruteforce(flow, model);
    const ValidationResult v = r.schedule.validate(flow);
    ASSERT_TRUE(v.ok) << v.message;
    ASSERT_NEAR(r.schedule.raw_cost(model), r.raw_cost, 1e-9);
  }
}

}  // namespace
}  // namespace dpg
