// Tests for the Section IV-B cut operation — the machinery behind Eq. (7).
#include <gtest/gtest.h>

#include "reference/cut_operation.hpp"
#include "solver/greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"

namespace dpg {
namespace {

constexpr double kTol = 1e-9;

TEST(CutOperation, EmptyFlow) {
  const CutAnalysis analysis = cut_operation(Flow{}, CostModel{1, 1, 0.8}, 2);
  EXPECT_TRUE(analysis.entries.empty());
  EXPECT_EQ(analysis.surviving_count, 0u);
}

TEST(CutOperation, ShortLocalGapsAreRemoved) {
  // Two same-server requests λ/2 apart: case 1.
  Flow flow;
  flow.points.push_back({0, 1.0, 0});
  flow.points.push_back({0, 1.4, 1});
  const CutAnalysis analysis = cut_operation(flow, CostModel{1, 1, 0.8}, 2);
  ASSERT_EQ(analysis.entries.size(), 2u);
  EXPECT_EQ(analysis.entries[0].cut, CutClass::kRemoved);  // gap 1.0 == λ
  EXPECT_EQ(analysis.entries[1].cut, CutClass::kRemoved);  // gap 0.4 < λ
  EXPECT_EQ(analysis.surviving_count, 0u);
  EXPECT_EQ(analysis.trimmed_greedy_cost, 0.0);
}

TEST(CutOperation, LongPredecessorGapsAreTrimmed) {
  Flow flow;
  flow.points.push_back({1, 5.0, 0});  // 5μ from the origin event, > λ
  const CutAnalysis analysis = cut_operation(flow, CostModel{1, 1, 0.8}, 2);
  ASSERT_EQ(analysis.entries.size(), 1u);
  EXPECT_EQ(analysis.entries[0].cut, CutClass::kTrimmed);
  // Trimmed: cache part reduced to λ, plus the transfer λ.
  EXPECT_NEAR(analysis.entries[0].trimmed_greedy_step, 2.0, kTol);
}

TEST(CutOperation, SurvivingGreedyStepsRespectTheTwoLambdaCeiling) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const Flow flow = testing::random_flow(rng, 30, 4);
    const CostModel model{1.0, 0.5 + static_cast<double>(trial % 6), 0.8};
    const CutAnalysis analysis = cut_operation(flow, model, 4);
    for (const CutEntry& entry : analysis.entries) {
      if (entry.cut != CutClass::kRemoved) {
        ASSERT_LE(entry.trimmed_greedy_step,
                  analysis.per_request_greedy_ceiling + kTol);
      }
      ASSERT_LE(entry.trimmed_greedy_step, entry.greedy_step + kTol)
          << "cutting may only reduce a step's cost";
    }
    ASSERT_NEAR(analysis.per_request_optimal_floor, model.lambda, kTol);
  }
}

TEST(CutOperation, TrimmedTotalsBoundTheRatioByTwo) {
  // The Eq. (7) chain on random flows: C'_G <= 2 n' λ, and combining with
  // the untrimmed identity greedy <= C'_G + (removed identical costs)
  // yields greedy <= 2 * optimal; we assert the aggregate inequality that
  // the cut analysis is used to prove.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const Flow flow = testing::random_flow(rng, 25, 3);
    const CostModel model{1.0, 1.0 + static_cast<double>(trial % 4), 0.8};
    const CutAnalysis analysis = cut_operation(flow, model, 3);
    ASSERT_LE(analysis.trimmed_greedy_cost,
              2.0 * model.lambda * static_cast<double>(analysis.surviving_count) +
                  kTol);
    const Cost greedy = solve_greedy(flow, model, 3).raw_cost;
    const Cost optimal = solve_optimal_offline(flow, model, 3).raw_cost;
    ASSERT_LE(greedy, 2.0 * optimal + kTol);
  }
}

TEST(CutOperation, EntryCountMatchesFlowSize) {
  Rng rng(17);
  const Flow flow = testing::random_flow(rng, 12, 3);
  const CutAnalysis analysis = cut_operation(flow, CostModel{1, 2, 0.8}, 3);
  EXPECT_EQ(analysis.entries.size(), flow.size());
}

}  // namespace
}  // namespace dpg
