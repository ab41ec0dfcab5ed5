// schedule.segments_emitted / schedule.transfers_emitted: every emitter adds
// what it appended to a schedule in one counter step per schedule (or per
// batch), and the totals equal the segments and transfers the schedules
// hold — the same totals per-segment counting reported.
#include <gtest/gtest.h>

#include <cstdint>

#include "dpgreedy.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/greedy.hpp"
#include "solver/online.hpp"

namespace dpg {
namespace {

const CostModel kModel{/*mu=*/1.0, /*lambda=*/1.0, /*alpha=*/0.8};

// The fixture of sharded_serve_test.cpp.
RequestSequence golden_trace() {
  Rng rng(77);
  ZipfTraceConfig config;
  config.server_count = 12;
  config.item_count = 20;
  config.request_count = 3000;
  return generate_zipf_trace(config, rng);
}

struct Emitted {
  std::uint64_t segments = 0;
  std::uint64_t transfers = 0;
};

/// The schedule counters bumped while `run` executes with telemetry on.
template <typename Run>
Emitted count_emitted(Run&& run) {
  obs::set_enabled(true);
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  run();
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  obs::set_enabled(false);
  return {obs::counter_value(after, "schedule.segments_emitted") -
              obs::counter_value(before, "schedule.segments_emitted"),
          obs::counter_value(after, "schedule.transfers_emitted") -
              obs::counter_value(before, "schedule.transfers_emitted")};
}

void add_schedule(const Schedule& schedule, Emitted& expected) {
  expected.segments += schedule.segments().size();
  expected.transfers += schedule.transfers().size();
}

TEST(ScheduleCounters, DpGreedySolveCountsEverySegmentAndTransfer) {
  const RequestSequence trace = golden_trace();
  DpGreedyOptions options;
  options.theta = 0.3;
  DpGreedyResult result;
  const Emitted counted =
      count_emitted([&] { result = solve_dp_greedy(trace, kModel, options); });

  Emitted expected;
  for (const PackageReport& package : result.packages) {
    add_schedule(package.package_schedule, expected);
  }
  for (const SingleItemReport& single : result.singles) {
    add_schedule(single.schedule, expected);
  }
  ASSERT_FALSE(result.packages.empty());
  EXPECT_EQ(counted.segments, expected.segments);
  EXPECT_EQ(counted.transfers, expected.transfers);
  // The totals per-segment counting recorded for this solve.
  EXPECT_EQ(counted.segments, 1028u);
  EXPECT_EQ(counted.transfers, 1031u);
}

TEST(ScheduleCounters, PerFlowSolversCountTheirSchedules) {
  const RequestSequence trace = golden_trace();
  const Flow flow = make_item_flow(trace, 0);
  Emitted expected;
  const Emitted counted = count_emitted([&] {
    add_schedule(
        solve_online_break_even(flow, kModel, trace.server_count()).schedule,
        expected);
    add_schedule(solve_greedy(flow, kModel, trace.server_count()).schedule,
                 expected);
    add_schedule(solve_chain(flow, kModel).schedule, expected);
  });
  EXPECT_EQ(counted.segments, expected.segments);
  EXPECT_EQ(counted.transfers, expected.transfers);
  EXPECT_EQ(counted.segments, 2752u);
  EXPECT_EQ(counted.transfers, 2028u);
}

TEST(ScheduleCounters, OneByOneServeProbeTotalsAreUnchanged) {
  // The cost-ratio probe's offline solves are the serve path's only
  // schedule emitters.
  const RequestSequence trace = golden_trace();
  StreamingOptions options;
  options.online.theta = 0.4;
  options.online.window = 50;
  options.online.repack_interval = 10;
  options.probe_chunk = 500;
  const ServeConfig config;
  SequenceClaimSource source(trace, config.batch_rows);
  std::size_t probe_chunks = 0;
  const Emitted counted = count_emitted([&] {
    probe_chunks =
        run_sharded_serve(source, kModel, config, options).probe_chunks;
  });
  EXPECT_EQ(probe_chunks, 6u);
  // The totals per-segment counting recorded for this feed.
  EXPECT_EQ(counted.segments, 3273u);
  EXPECT_EQ(counted.transfers, 2972u);
}

}  // namespace
}  // namespace dpg
