// The branch-light DP kernels (solver/kernels.hpp) against their scalar
// references: every kernel must return the same BITS, not just values
// within a tolerance — the kernels replace the reference loops inside
// solve_optimal_offline, and Phase-2 totals are sums of thousands of these
// primitives, so any ulp of drift compounds.  Ties are exercised on
// purpose (quantized random values), and the window-min is additionally
// checked against the SuffixMin stack it backstops.
#include <gtest/gtest.h>

#include "test_support.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "reference/optimal_offline.hpp"
#include "solver/kernels.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/workspace.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

/// Random value columns with deliberate equal runs: quantizing to eighths
/// makes ties common, which is where argmin rules diverge if wrong.
std::vector<double> quantized_column(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = 0.125 * static_cast<double>(rng.next_int(-16, 16));
  }
  return v;
}

TEST(Kernels, ActiveIsaIsReported) {
  const std::string isa = kernels::active_isa();
  EXPECT_TRUE(isa == "sse2" || isa == "scalar") << isa;
}

TEST(Kernels, WindowMinMatchesScalarOnTieHeavyColumns) {
  Rng rng(101);
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 130));
    const std::vector<double> v = quantized_column(rng, n);
    const std::size_t lo = rng.next_below(n);
    const std::size_t hi = lo + 1 + rng.next_below(n - lo);
    const auto fast = kernels::window_min(v.data(), lo, hi);
    const auto slow = kernels::window_min_scalar(v.data(), lo, hi);
    ASSERT_EQ(fast.first, slow.first) << "round " << round;
    ASSERT_EQ(fast.second, slow.second) << "round " << round;
  }
}

TEST(Kernels, WindowMinMatchesSuffixMinStack) {
  // The kernel's wide-window backstop is SuffixMin; on any window ending at
  // the push frontier the two must agree on both value and tie index.
  Rng rng(102);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(2, 200));
    const std::vector<double> v = quantized_column(rng, n);
    SuffixMin suffix;
    for (std::size_t i = 0; i < n; ++i) {
      suffix.push(static_cast<std::int32_t>(i), v[i]);
    }
    const std::size_t lo = rng.next_below(n);
    const auto stack = suffix.query(static_cast<std::int32_t>(lo));
    const auto scan = kernels::window_min(v.data(), lo, n);
    ASSERT_EQ(scan.first, stack.first) << "round " << round;
    ASSERT_EQ(scan.second, stack.second) << "round " << round;
  }
}

TEST(Kernels, WindowMinSingleElement) {
  const double v[] = {4.0};
  const auto result = kernels::window_min(v, 0, 1);
  EXPECT_EQ(result.first, 0);
  EXPECT_EQ(result.second, 4.0);
}

TEST(Kernels, WindowMinTiePicksLatestIndex) {
  const double v[] = {2.0, 1.0, 3.0, 1.0, 5.0};
  EXPECT_EQ(kernels::window_min(v, 0, 5).first, 3);
  EXPECT_EQ(kernels::window_min_scalar(v, 0, 5).first, 3);
  EXPECT_EQ(kernels::window_min(v, 0, 3).first, 1);
}

TEST(Kernels, LinkCostsHandlesMissingPrevAndZeroMu) {
  const Time times[] = {0.0, 1.0, 2.5, 4.0};
  const std::int32_t prev[] = {-1, -1, 0, 1};
  Cost link[4];
  // μ = 0 with a missing p(j) must yield ∞, not 0·∞ = NaN.
  kernels::link_costs(times, prev, 0.0, 4, link);
  EXPECT_EQ(link[1], kInfiniteCost);
  EXPECT_EQ(link[2], 0.0);
  EXPECT_FALSE(std::isnan(link[1]));
  kernels::link_costs(times, prev, 2.0, 4, link);
  EXPECT_EQ(link[2], 2.0 * 2.5);
  EXPECT_EQ(link[3], 2.0 * 3.0);
}

TEST(Kernels, WAndPrefixMatchesScalarWithInfinities) {
  Rng rng(103);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 70));
    std::vector<Cost> link(n);
    for (Cost& x : link) {
      x = rng.next_bool(0.2) ? kInfiniteCost
                             : 0.125 * static_cast<double>(rng.next_int(0, 40));
    }
    const double lambda = 0.25 * static_cast<double>(rng.next_int(0, 12));
    std::vector<Cost> w_fast(n), p_fast(n), w_slow(n), p_slow(n);
    kernels::w_and_prefix(link.data(), lambda, n, w_fast.data(), p_fast.data());
    kernels::w_and_prefix_scalar(link.data(), lambda, n, w_slow.data(),
                                 p_slow.data());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(w_fast[j], w_slow[j]) << "round " << round << " j " << j;
      ASSERT_EQ(p_fast[j], p_slow[j]) << "round " << round << " j " << j;
    }
  }
}

TEST(Kernels, ServeChoice3MatchesReferenceChain) {
  const auto reference = [](Cost cache, Cost transfer, Cost package,
                            Cost* cost) {
    // The original if/else chain from dp_greedy's singleton pass.
    if (cache <= transfer && cache <= package) {
      *cost = cache;
      return kernels::kChoiceCache;
    }
    if (transfer <= package) {
      *cost = transfer;
      return kernels::kChoiceTransfer;
    }
    *cost = package;
    return kernels::kChoicePackage;
  };
  Rng rng(104);
  for (int round = 0; round < 2000; ++round) {
    const auto pick = [&rng] {
      return rng.next_bool(0.1)
                 ? kInfiniteCost
                 : 0.5 * static_cast<double>(rng.next_int(0, 8));
    };
    const Cost cache = pick(), transfer = pick(), package = pick();
    Cost want_cost = 0.0, got_cost = 0.0;
    const auto want = reference(cache, transfer, package, &want_cost);
    const auto got = kernels::serve_choice3(cache, transfer, package,
                                            &got_cost);
    ASSERT_EQ(got, want) << cache << " " << transfer << " " << package;
    ASSERT_EQ(got_cost, want_cost);
  }
}

TEST(Kernels, MinCacheTransferChargesLambdaOnlyOnStrictWin) {
  bool took_transfer = true;
  EXPECT_EQ(kernels::min_cache_transfer(2.0, 2.0, &took_transfer), 2.0);
  EXPECT_FALSE(took_transfer);  // a tie counts as cache
  EXPECT_EQ(kernels::min_cache_transfer(3.0, 2.0, &took_transfer), 2.0);
  EXPECT_TRUE(took_transfer);
  EXPECT_EQ(kernels::min_cache_transfer(kInfiniteCost, 2.0, &took_transfer),
            2.0);
  EXPECT_TRUE(took_transfer);
}

TEST(Kernels, JaccardRowMatchesPairwiseFormula) {
  const std::size_t freq[] = {4, 0, 3, 5};
  const std::size_t co_row[] = {4, 0, 2, 0};
  double out[4] = {-1.0, -1.0, -1.0, -1.0};
  kernels::jaccard_row(freq, co_row, /*freq_a=*/4, /*b_begin=*/1, 4, out);
  EXPECT_EQ(out[0], -1.0);  // below b_begin: untouched
  EXPECT_EQ(out[1], 0.0);   // empty union
  EXPECT_EQ(out[2], 2.0 / 5.0);
  EXPECT_EQ(out[3], 0.0);
}

// ---------------------------------------------------------------------------
// The kernels inside the DP: solve_optimal_offline must agree with the
// scalar reference DP (kSuffixMin) on every bit of cost and schedule.

void expect_same_solve(const Flow& flow, const CostModel& model,
                       std::size_t server_count, const std::string& context) {
  const SolveResult a = solve_optimal_offline(flow, model, server_count);
  const SolveResult b = reference::solve_optimal_offline_reference(
      flow, model, server_count, reference::RangeMin::kSuffixMin);
  ASSERT_EQ(a.cost, b.cost) << context;
  ASSERT_EQ(a.raw_cost, b.raw_cost) << context;
  ASSERT_EQ(a.schedule.segments().size(), b.schedule.segments().size())
      << context;
  for (std::size_t s = 0; s < a.schedule.segments().size(); ++s) {
    ASSERT_EQ(a.schedule.segments()[s].server, b.schedule.segments()[s].server)
        << context;
    ASSERT_EQ(a.schedule.segments()[s].begin, b.schedule.segments()[s].begin)
        << context;
    ASSERT_EQ(a.schedule.segments()[s].end, b.schedule.segments()[s].end)
        << context;
  }
  ASSERT_EQ(a.schedule.transfers().size(), b.schedule.transfers().size())
      << context;
  for (std::size_t t = 0; t < a.schedule.transfers().size(); ++t) {
    ASSERT_EQ(a.schedule.transfers()[t].from, b.schedule.transfers()[t].from)
        << context;
    ASSERT_EQ(a.schedule.transfers()[t].to, b.schedule.transfers()[t].to)
        << context;
    ASSERT_EQ(a.schedule.transfers()[t].time, b.schedule.transfers()[t].time)
        << context;
  }
}

TEST(KernelDp, FuzzedFlowsAreBitIdentical) {
  Rng rng(105);
  CostModel model = testing::running_example_model();
  for (int round = 0; round < 150; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 220));
    const std::size_t servers = static_cast<std::size_t>(rng.next_int(1, 12));
    const Flow flow = testing::random_flow(rng, n, servers);
    expect_same_solve(flow, model, servers,
                      "round " + std::to_string(round));
  }
}

TEST(KernelDp, WideWindowsCrossTheSuffixMinBackstop) {
  // Few servers and many points per server stretch the D(i) windows past
  // kWindowScanThreshold, forcing the SuffixMin fallback inside the kernel
  // path; both sides of the threshold must agree with the reference DP.
  Rng rng(106);
  CostModel model = testing::running_example_model();
  const Flow flow =
      testing::random_flow(rng, 3 * kernels::kWindowScanThreshold, 2);
  expect_same_solve(flow, model, 2, "wide windows");
}

TEST(KernelDp, ExtremeCostRatiosAreBitIdentical) {
  Rng rng(107);
  for (const double mu : {0.0, 0.01, 1.0, 100.0}) {
    for (const double lambda : {0.0, 1.0, 50.0}) {
      CostModel model;
      model.mu = mu;
      model.lambda = lambda;
      const Flow flow = testing::random_flow(rng, 120, 4);
      expect_same_solve(flow, model, 4,
                        "mu=" + std::to_string(mu) +
                            " lambda=" + std::to_string(lambda));
    }
  }
}

}  // namespace
}  // namespace dpg
