#include <gtest/gtest.h>

#include "reference/temporal_correlation.hpp"
#include "test_support.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

/// First half: items 0,1 always together; second half: strictly apart.
RequestSequence two_phase_sequence() {
  SequenceBuilder builder(2, 2);
  Time t = 0.0;
  for (int i = 0; i < 50; ++i) builder.add(0, t += 1.0, {0, 1});
  for (int i = 0; i < 25; ++i) {
    builder.add(0, t += 1.0, {0});
    builder.add(1, t += 1.0, {1});
  }
  return std::move(builder).build();
}

TEST(WindowedJaccard, TracksPhaseChange) {
  const RequestSequence seq = two_phase_sequence();
  const auto series = windowed_jaccard_series(seq, 0, 1, 20, 5);
  ASSERT_FALSE(series.empty());
  EXPECT_NEAR(series.front().jaccard, 1.0, 1e-12);  // co-access phase
  EXPECT_NEAR(series.back().jaccard, 0.0, 1e-12);   // divergent phase
  // Times are non-decreasing.
  for (std::size_t i = 1; i < series.size(); ++i) {
    ASSERT_GE(series[i].time, series[i - 1].time);
  }
}

TEST(WindowedJaccard, WindowLargerThanTraceYieldsEmptySeries) {
  const RequestSequence seq = testing::running_example_sequence();
  EXPECT_TRUE(windowed_jaccard_series(seq, 0, 1, 100, 1).empty());
}

TEST(WindowedJaccard, FullWindowEqualsGlobalJaccard) {
  const RequestSequence seq = testing::running_example_sequence();
  const auto series = windowed_jaccard_series(seq, 0, 1, seq.size(), 1);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_NEAR(series[0].jaccard, 3.0 / 7.0, 1e-12);
}

TEST(WindowedJaccard, Validates) {
  const RequestSequence seq = testing::running_example_sequence();
  EXPECT_THROW((void)windowed_jaccard_series(seq, 0, 0, 4, 1), InvalidArgument);
  EXPECT_THROW((void)windowed_jaccard_series(seq, 0, 1, 0, 1), InvalidArgument);
  EXPECT_THROW((void)windowed_jaccard_series(seq, 0, 1, 4, 0), InvalidArgument);
}

TEST(Dilution, LargeOnPhaseChangingTraces) {
  const RequestSequence seq = two_phase_sequence();
  const DilutionReport report = measure_dilution(seq, 0, 1, 20);
  EXPECT_NEAR(report.peak_windowed, 1.0, 1e-12);
  EXPECT_LT(report.global_jaccard, 0.6);  // 50 co / (75+75-50)
  EXPECT_GT(report.dilution(), 0.4);
}

TEST(Dilution, NearZeroOnStationaryTraces) {
  Rng rng(4);
  PairedTraceConfig config;
  config.pair_jaccard = {0.5};
  config.requests_per_pair = 600;
  const RequestSequence seq = generate_paired_trace(config, rng);
  const DilutionReport report = measure_dilution(seq, 0, 1, 150);
  EXPECT_LT(report.dilution(), 0.25);  // sampling noise only
  EXPECT_NEAR(report.mean_windowed, report.global_jaccard, 0.1);
}

TEST(Dilution, DegeneratesToGlobalWhenWindowTooLarge) {
  const RequestSequence seq = testing::running_example_sequence();
  const DilutionReport report = measure_dilution(seq, 0, 1, 100);
  EXPECT_NEAR(report.dilution(), 0.0, 1e-12);
}

}  // namespace
}  // namespace dpg
