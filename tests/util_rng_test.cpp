// Determinism and distribution sanity for dpg::Rng.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace dpg {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextIntCoversClosedRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, ss = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(ss / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, WeightedFavorsHeavyBuckets) {
  Rng rng(23);
  const std::array<double, 3> weights{1.0, 0.0, 3.0};
  std::array<int, 3> hits{};
  for (int i = 0; i < 20000; ++i) {
    ++hits[rng.next_weighted(weights)];
  }
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[2]) / static_cast<double>(hits[0]), 3.0,
              0.3);
}

std::vector<double> zipf_weights(std::size_t k) {
  std::vector<double> weights(k);
  for (std::size_t i = 0; i < k; ++i) {
    weights[i] = std::pow(static_cast<double>(i + 1), -1.0);
  }
  return weights;
}

TEST(WeightedTable, DrawsNextWeightedsIndexOnZipfWeights) {
  for (const std::size_t k : {2u, 3u, 2000u}) {
    const std::vector<double> weights = zipf_weights(k);
    const WeightedTable table(weights);
    Rng fast(k), oracle(k);
    for (int i = 0; i < 1000000; ++i) {
      ASSERT_EQ(table.draw(fast), oracle.next_weighted(weights))
          << "k=" << k << " draw " << i;
    }
    EXPECT_EQ(fast.next_u64(), oracle.next_u64());  // one draw each
  }
}

TEST(WeightedTable, SkipsZeroWeightsLikeTheScan) {
  const std::vector<double> weights{0.0, 0.0, 1.5, 0.0, 0.25, 0.0,
                                    0.0, 3.0, 0.0, 0.0};
  const WeightedTable table(weights);
  Rng fast(5), oracle(5);
  for (int i = 0; i < 200000; ++i) {
    const std::size_t index = table.draw(fast);
    ASSERT_EQ(index, oracle.next_weighted(weights)) << "draw " << i;
    ASSERT_GT(weights[index], 0.0);
  }
}

TEST(WeightedTable, MatchesTheScanAtEveryPrefixBoundary) {
  // u placed so that u·Σw lands on (or a few ulps around) each prefix sum:
  // where the scan's rounding decides the index, the table must defer to it.
  std::vector<std::vector<double>> cases = {
      zipf_weights(2), zipf_weights(3), zipf_weights(2000),
      {0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 1e-300, 0.5, 0.0}};
  for (const std::vector<double>& weights : cases) {
    const WeightedTable table(weights);
    double total = 0.0;
    for (const double w : weights) total += w;
    double prefix = 0.0;
    std::size_t checked = 0;
    for (const double w : weights) {
      prefix += w;
      double up = prefix / total;
      double down = up;
      for (int step = 0; step <= 4; ++step) {
        for (const double u : {up, down}) {
          if (u < 0.0 || u >= 1.0) continue;
          ASSERT_EQ(table.index_of(u), weighted_index(weights, u))
              << "k=" << weights.size() << " u=" << u;
          ++checked;
        }
        up = std::nextafter(up, 2.0);
        down = std::nextafter(down, -1.0);
      }
    }
    EXPECT_GT(checked, weights.size());
  }
}

TEST(Rng, ZipfSkewsTowardsLowRanks) {
  Rng rng(29);
  std::array<int, 5> hits{};
  for (int i = 0; i < 20000; ++i) ++hits[rng.next_zipf(5, 1.2)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[4]);
  // s = 0 degenerates to uniform.
  std::array<int, 4> uniform_hits{};
  for (int i = 0; i < 20000; ++i) ++uniform_hits[rng.next_zipf(4, 0.0)];
  for (const int h : uniform_hits) EXPECT_NEAR(h, 5000, 500);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(std::span<int>(v));
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic) {
  Rng parent1(5);
  Rng parent2(5);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  for (int i = 0; i < 100; ++i) ASSERT_EQ(child1.next_u64(), child2.next_u64());
  // Child differs from a fresh parent stream.
  Rng parent3(5);
  int equal = 0;
  Rng child3 = Rng(5).split();
  for (int i = 0; i < 100; ++i) equal += child3.next_u64() == parent3.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

}  // namespace
}  // namespace dpg
