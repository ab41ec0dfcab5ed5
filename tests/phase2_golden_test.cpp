// Pinned Phase-2 outcomes of the three packing solvers.
//
// dp_greedy, package_served and group_dp_greedy build their package flows
// from the per-item inverted index and serve partial requests with merge
// cursors.  These goldens pin what those solvers report on fixed seeded
// traces — total cost bit for bit (hex-float literals), transfer events and
// cache segments — at the serial path and at two Phase-2 threads, so any
// change to flow extraction or to the order of accumulation shows up here
// as an exact mismatch, not a tolerance drift.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

RequestSequence zipf_trace() {
  ZipfTraceConfig config;
  config.server_count = 32;
  config.item_count = 64;
  config.request_count = 20000;
  Rng rng(11);
  return generate_zipf_trace(config, rng);
}

RequestSequence bursty_trace() {
  BurstyTraceConfig config;
  config.server_count = 16;
  config.item_count = 6;
  config.burst_count = 60;
  config.requests_per_burst = 40;
  config.working_set = 3;
  Rng rng(5);
  return generate_bursty_trace(config, rng);
}

/// Items come in triples {3p, 3p+1, 3p+2}; each row asks for a random
/// non-empty subset of one triple, so complete-linkage grouping forms
/// three-item groups and the partial-request pass sees every subset shape.
RequestSequence triple_trace() {
  constexpr std::size_t kTriples = 6;
  SequenceBuilder builder(/*server_count=*/12, /*item_count=*/3 * kTriples);
  Rng rng(23);
  Time t = 0.0;
  for (std::size_t row = 0; row < 6000; ++row) {
    t += 0.125 * static_cast<Time>(rng.next_int(1, 16));
    const auto base = static_cast<ItemId>(3 * rng.next_below(kTriples));
    std::vector<ItemId> items;
    for (ItemId offset = 0; offset < 3; ++offset) {
      if (rng.next_bool(0.7)) items.push_back(base + offset);
    }
    if (items.empty()) items.push_back(base);
    builder.add(static_cast<ServerId>(rng.next_below(12)), t,
                std::move(items));
  }
  return std::move(builder).build();
}

// Low enough that the bursty trace packs too (its pairs sit near J = 0.1).
constexpr double kTheta = 0.05;

struct Golden {
  const char* trace;
  const char* solver;
  double total_cost;
  std::size_t transfer_events;
  std::size_t cache_segments;
};

// Recorded with the row-probe and full-scan flow builders that the index
// merges replaced (they survive as the oracles in tests/flow_test.cpp).
const Golden kGoldens[] = {
    {"zipf", "dp_greedy", 0x1.10c211c5ef414p+19, 17106, 6152},
    {"zipf", "package_served", 0x1.0ebc1dc8f8cf7p+19, 15276, 12709},
    {"zipf", "group_dp_greedy", 0x1.10c211c5ef414p+19, 17106, 6152},
    {"bursty", "dp_greedy", 0x1.187f636afcb9p+13, 722, 158},
    {"bursty", "package_served", 0x1.170b9a5132fdcp+13, 597, 2534},
    {"bursty", "group_dp_greedy", 0x1.7f647879f25f8p+12, 711, 514},
    {"triple", "dp_greedy", 0x1.d3f1d9999999ep+16, 7883, 4486},
    {"triple", "package_served", 0x1.cc91733333334p+16, 7261, 5950},
    {"triple", "group_dp_greedy", 0x1.c77af999999a4p+16, 5454, 1247},
};

RequestSequence trace_named(const std::string& name) {
  if (name == "zipf") return zipf_trace();
  if (name == "bursty") return bursty_trace();
  return triple_trace();
}

TEST(Phase2Golden, PackingSolversMatchPinnedTotalsAtEveryThreadCount) {
  const CostModel model{1.0, 2.0, 0.8};
  for (const Golden& golden : kGoldens) {
    const RequestSequence seq = trace_named(golden.trace);
    for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
      SolverConfig config;
      config.theta = kTheta;
      config.threads(threads);
      const RunReport report =
          builtin_registry().run(golden.solver, seq, model, config);
      const std::string context = std::string(golden.solver) + " on " +
                                  golden.trace + " @ threads=" +
                                  std::to_string(threads);
      char actual[64];
      std::snprintf(actual, sizeof actual, "%a", report.total_cost);
      EXPECT_EQ(report.total_cost, golden.total_cost)
          << context << " (actual " << actual << ")";
      EXPECT_EQ(report.transfer_events, golden.transfer_events) << context;
      EXPECT_EQ(report.cache_segments, golden.cache_segments) << context;
    }
  }
}

}  // namespace
}  // namespace dpg
