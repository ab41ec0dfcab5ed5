// Cross-cutting solver invariants: scaling laws, monotonicity, and
// dominance relations that every algorithm in the suite must satisfy.
#include <gtest/gtest.h>

#include <tuple>

#include "reference/lower_bound.hpp"
#include "reference/optimal_offline.hpp"
#include "solver/baselines.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/greedy.hpp"
#include "solver/online.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

// Scaling both μ and λ by c scales every cost by c.
TEST(SolverInvariants, CostsAreHomogeneousOfDegreeOneInRates) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Flow flow = testing::random_flow(rng, 25, 4);
    const CostModel base{1.3, 2.7, 0.8};
    const CostModel scaled{1.3 * 3.5, 2.7 * 3.5, 0.8};
    ASSERT_NEAR(solve_optimal_offline(flow, scaled, 4).raw_cost,
                3.5 * solve_optimal_offline(flow, base, 4).raw_cost, 1e-7);
    ASSERT_NEAR(solve_greedy(flow, scaled, 4).raw_cost,
                3.5 * solve_greedy(flow, base, 4).raw_cost, 1e-7);
    ASSERT_NEAR(solve_online_break_even(flow, scaled, 4).raw_cost,
                3.5 * solve_online_break_even(flow, base, 4).raw_cost, 1e-7);
  }
}

// Scaling time by c while dividing μ by c leaves costs unchanged.
TEST(SolverInvariants, TimeDilationInvariance) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Flow flow = testing::random_flow(rng, 20, 3);
    Flow dilated = flow;
    for (ServicePoint& p : dilated.points) p.time *= 4.0;
    const CostModel base{2.0, 3.0, 0.8};
    const CostModel adjusted{0.5, 3.0, 0.8};
    ASSERT_NEAR(solve_optimal_offline(flow, base, 3).raw_cost,
                solve_optimal_offline(dilated, adjusted, 3).raw_cost, 1e-7);
  }
}

// The optimum is monotone in both rates.
TEST(SolverInvariants, OptimalCostMonotoneInRates) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Flow flow = testing::random_flow(rng, 25, 4);
    const Cost base = solve_optimal_offline(flow, CostModel{1, 1, 0.8}, 4).raw_cost;
    const Cost more_lambda =
        solve_optimal_offline(flow, CostModel{1, 2, 0.8}, 4).raw_cost;
    const Cost more_mu =
        solve_optimal_offline(flow, CostModel{2, 1, 0.8}, 4).raw_cost;
    ASSERT_GE(more_lambda, base - kTol);
    ASSERT_GE(more_mu, base - kTol);
  }
}

// Serving a prefix can never cost more than serving the whole flow.
TEST(SolverInvariants, PrefixMonotonicity) {
  Rng rng(9);
  const CostModel model{1.0, 1.5, 0.8};
  for (int trial = 0; trial < 15; ++trial) {
    const Flow flow = testing::random_flow(rng, 20, 4);
    Cost previous = 0.0;
    for (std::size_t n = 1; n <= flow.size(); ++n) {
      Flow prefix;
      prefix.group_size = flow.group_size;
      prefix.points.assign(flow.points.begin(),
                           flow.points.begin() + static_cast<std::ptrdiff_t>(n));
      const Cost cost = solve_optimal_offline(prefix, model, 4).raw_cost;
      ASSERT_GE(cost, previous - kTol);
      previous = cost;
    }
  }
}

// Removing a request never increases the optimum (subsequence dominance).
TEST(SolverInvariants, SubsequenceDominance) {
  Rng rng(11);
  const CostModel model{1.0, 1.0, 0.8};
  for (int trial = 0; trial < 15; ++trial) {
    const Flow flow = testing::random_flow(rng, 12, 3);
    const Cost full = solve_optimal_offline(flow, model, 3).raw_cost;
    for (std::size_t drop = 0; drop < flow.size(); ++drop) {
      Flow reduced;
      reduced.group_size = flow.group_size;
      for (std::size_t i = 0; i < flow.size(); ++i) {
        if (i != drop) reduced.points.push_back(flow.points[i]);
      }
      ASSERT_LE(solve_optimal_offline(reduced, model, 3).raw_cost, full + kTol);
    }
  }
}

// DP_Greedy never loses to BOTH baselines simultaneously by more than the
// theorem allows, and the Lemma-1 certificate holds end to end.
class CertificateSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CertificateSweep, Lemma1CertifiesEveryAlgorithm) {
  const auto [alpha, co] = GetParam();
  Rng rng(0x5EED);
  const CostModel model{1.0, 1.5, alpha};
  for (int trial = 0; trial < 10; ++trial) {
    const RequestSequence seq = testing::random_sequence(rng, 80, 4, 4, co);
    const PackedLowerBound bound = packed_lower_bound(seq, model);
    DpGreedyOptions options;
    options.theta = 0.0;
    const DpGreedyResult dpg = solve_dp_greedy(seq, model, options);
    ASSERT_LE(bound.certify_ratio(dpg.total_cost),
              model.approximation_bound() + kTol);
    // The Optimal baseline trivially certifies at 1/α.
    const OptimalBaselineResult optimal = solve_optimal_baseline(seq, model);
    ASSERT_NEAR(bound.certify_ratio(optimal.total_cost), 1.0 / alpha, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CertificateSweep,
    ::testing::Combine(::testing::Values(0.3, 0.6, 0.9),
                       ::testing::Values(0.2, 0.7)));

// The production window-min DP and the paper's literal scan agree on the
// adversarial quadratic-window workload too (not just random traces).
TEST(SolverInvariants, AdversarialWindowAgreement) {
  // Local copy of the generator's pattern to avoid a dpg_trace dependency
  // in this binary: round-robin visits over m servers, r rounds.
  const std::size_t m = 64;
  SequenceBuilder builder(m, 1);
  Time t = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < m; ++s) {
      builder.add(static_cast<ServerId>(s), t += 0.5, {0});
    }
  }
  const RequestSequence seq = std::move(builder).build();
  const Flow flow = make_item_flow(seq, 0);
  for (const double lambda : {0.1, 1.0, 10.0, 100.0}) {
    const CostModel model{1.0, lambda, 0.8};
    ASSERT_NEAR(solve_optimal_offline(flow, model, m).raw_cost,
                reference::solve_optimal_offline_reference(
                    flow, model, m, reference::RangeMin::kLiteralScan)
                    .raw_cost,
                1e-9);
  }
}

}  // namespace
}  // namespace dpg
