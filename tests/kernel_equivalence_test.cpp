// End-to-end oracle and format equivalence.
//
//   * Every plan of every DP-backed registry solver, at every thread count,
//     is bit-identical to the scalar reference DP
//     (reference::solve_optimal_offline_reference, kSuffixMin) on its flow,
//     in cost and in schedule.
//   * Every pair of dp_greedy is bit-identical to the fused reference
//     (reference::solve_pair_package_reference), and the references add up
//     to the solve's total bit for bit.
//   * A trace loaded via CSV and via the binary .dpt mmap path gives every
//     solver identical reports.
//
// Any drift in a cost bit or a schedule endpoint is a bug, so everything is
// EXPECT_EQ with no tolerance.  The tests named "Big" run a 200k-request
// trace and are filtered out of the sanitizer CI legs like the other Big
// tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "reference/optimal_offline.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "test_support.hpp"
#include "trace/dpt.hpp"
#include "trace/generators.hpp"
#include "trace/io.hpp"
#include "util/rng.hpp"

namespace dpg {
namespace {

const std::vector<std::size_t> kThreadCounts = {0, 4};

RequestSequence zipf_trace_2k() {
  ZipfTraceConfig config;
  config.server_count = 20;
  config.item_count = 12;
  config.request_count = 2000;
  Rng rng(7);
  return generate_zipf_trace(config, rng);
}

RequestSequence big_trace_200k() {
  ZipfTraceConfig config;
  config.server_count = 40;
  config.item_count = 50;
  config.request_count = 200000;
  Rng rng(13);
  return generate_zipf_trace(config, rng);
}

/// Solvers whose every plan is one optimal-offline DP solve of its flow.
const std::set<std::string> kDpPlanSolvers = {
    "dp_greedy", "optimal_baseline", "package_served", "group_dp_greedy"};
/// Solvers that run no offline DP: their plans come from their own per-item
/// policy (greedy, chain, break-even), or they emit none (online_dp_greedy).
const std::set<std::string> kPolicySolvers = {
    "greedy", "chain", "online_break_even", "online_dp_greedy"};
/// DP-backed solvers whose total is the plan costs summed in plan order.
const std::set<std::string> kTotalIsSumOfPlans = {"optimal_baseline",
                                                  "package_served"};

/// Bitwise equality of two schedules: every segment and transfer endpoint.
void expect_schedules_identical(const Schedule& want, const Schedule& got,
                                const std::string& context) {
  ASSERT_EQ(want.segments().size(), got.segments().size()) << context;
  for (std::size_t s = 0; s < want.segments().size(); ++s) {
    EXPECT_EQ(want.segments()[s].server, got.segments()[s].server) << context;
    EXPECT_EQ(want.segments()[s].begin, got.segments()[s].begin) << context;
    EXPECT_EQ(want.segments()[s].end, got.segments()[s].end) << context;
  }
  ASSERT_EQ(want.transfers().size(), got.transfers().size()) << context;
  for (std::size_t t = 0; t < want.transfers().size(); ++t) {
    EXPECT_EQ(want.transfers()[t].from, got.transfers()[t].from) << context;
    EXPECT_EQ(want.transfers()[t].to, got.transfers()[t].to) << context;
    EXPECT_EQ(want.transfers()[t].time, got.transfers()[t].time) << context;
  }
}

/// Bitwise equality of two reports: every cost EXPECT_EQ (no tolerance),
/// every decision count, and every plan's label, flow and schedule geometry.
void expect_reports_identical(const RunReport& expected,
                              const RunReport& actual,
                              const std::string& context) {
  EXPECT_EQ(expected.total_cost, actual.total_cost) << context;
  EXPECT_EQ(expected.raw_cost, actual.raw_cost) << context;
  EXPECT_EQ(expected.cache_cost, actual.cache_cost) << context;
  EXPECT_EQ(expected.transfer_cost, actual.transfer_cost) << context;
  EXPECT_EQ(expected.ave_cost, actual.ave_cost) << context;
  EXPECT_EQ(expected.package_count, actual.package_count) << context;
  EXPECT_EQ(expected.unpack_events, actual.unpack_events) << context;
  EXPECT_EQ(expected.transfer_events, actual.transfer_events) << context;
  EXPECT_EQ(expected.cache_segments, actual.cache_segments) << context;
  EXPECT_EQ(expected.total_item_accesses, actual.total_item_accesses)
      << context;

  ASSERT_EQ(expected.plans.size(), actual.plans.size()) << context;
  for (std::size_t p = 0; p < expected.plans.size(); ++p) {
    const FlowPlan& want = expected.plans[p];
    const FlowPlan& got = actual.plans[p];
    const std::string plan_context = context + ", plan " + want.label;
    EXPECT_EQ(want.label, got.label) << plan_context;
    EXPECT_EQ(want.flow.size(), got.flow.size()) << plan_context;
    expect_schedules_identical(want.schedule, got.schedule, plan_context);
  }
}

/// Runs every DP-backed registry solver on `trace` at each thread count and
/// demands that each plan equal the reference DP on the plan's flow: the
/// schedule bit for bit, the production cost of that flow bit for bit, and
/// (where the total is a plain sum of plans) the report's total.
void expect_plans_match_reference(const RequestSequence& trace,
                                  const std::string& trace_name) {
  const CostModel model = testing::running_example_model();
  const std::size_t servers = trace.server_count();
  for (const std::string& name : builtin_registry().names()) {
    ASSERT_EQ(kDpPlanSolvers.count(name) + kPolicySolvers.count(name), 1u)
        << "classify the registry solver " << name;
    if (kDpPlanSolvers.count(name) == 0) continue;
    for (const std::size_t threads : kThreadCounts) {
      const std::string context = trace_name + ", solver " + name +
                                  ", threads " + std::to_string(threads);
      const RunReport report = builtin_registry().run(
          name, trace, model, SolverConfig{}.threads(threads));
      ASSERT_FALSE(report.plans.empty()) << context;
      Cost plan_total = 0.0;
      for (const FlowPlan& plan : report.plans) {
        const std::string plan_context = context + ", plan " + plan.label;
        const SolveResult want = reference::solve_optimal_offline_reference(
            plan.flow, model, servers, reference::RangeMin::kSuffixMin);
        const SolveResult got =
            solve_optimal_offline(plan.flow, model, servers);
        EXPECT_EQ(want.cost, got.cost) << plan_context;
        EXPECT_EQ(want.raw_cost, got.raw_cost) << plan_context;
        expect_schedules_identical(want.schedule, plan.schedule, plan_context);
        plan_total += want.cost;
      }
      if (kTotalIsSumOfPlans.count(name) != 0) {
        EXPECT_EQ(plan_total, report.total_cost) << context;
      }
    }
  }
}

/// dp_greedy serial and on a 4-worker pool: every pair equals the fused
/// reference pair solve, every unpacked item the reference DP, and the
/// references summed in the solve's order give its total bit for bit.
void expect_dp_greedy_matches_reference(const RequestSequence& trace,
                                        const std::string& trace_name) {
  const CostModel model = testing::running_example_model();
  ThreadPool pool(4);
  for (ThreadPool* const p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string context =
        trace_name + (p == nullptr ? ", serial" : ", pool of 4");
    DpGreedyOptions options;
    options.pool = p;
    const DpGreedyResult result = solve_dp_greedy(trace, model, options);
    ASSERT_FALSE(result.packages.empty()) << context;
    Cost total = 0.0;
    for (const PackageReport& got : result.packages) {
      const std::string pair_context = context + ", pair {" +
                                       std::to_string(got.pair.a) + "," +
                                       std::to_string(got.pair.b) + "}";
      const PackageReport want =
          reference::solve_pair_package_reference(trace, model, got.pair);
      EXPECT_EQ(want.package_cost, got.package_cost) << pair_context;
      EXPECT_EQ(want.singleton_cost, got.singleton_cost) << pair_context;
      EXPECT_EQ(want.co_request_count, got.co_request_count) << pair_context;
      EXPECT_EQ(want.total_accesses, got.total_accesses) << pair_context;
      expect_schedules_identical(want.package_schedule, got.package_schedule,
                                 pair_context);
      ASSERT_EQ(want.services.size(), got.services.size()) << pair_context;
      for (std::size_t i = 0; i < want.services.size(); ++i) {
        EXPECT_EQ(want.services[i].request_index,
                  got.services[i].request_index) << pair_context;
        EXPECT_EQ(want.services[i].item, got.services[i].item)
            << pair_context;
        EXPECT_EQ(want.services[i].choice, got.services[i].choice)
            << pair_context;
        EXPECT_EQ(want.services[i].cost, got.services[i].cost)
            << pair_context;
      }
      total += want.total_cost();
    }
    for (const SingleItemReport& got : result.singles) {
      const std::string item_context =
          context + ", item " + std::to_string(got.item);
      const SolveResult want = reference::solve_optimal_offline_reference(
          make_item_flow(trace, got.item), model, trace.server_count());
      EXPECT_EQ(want.cost, got.cost) << item_context;
      expect_schedules_identical(want.schedule, got.schedule, item_context);
      total += want.cost;
    }
    EXPECT_EQ(total, result.total_cost) << context;
  }
}

TEST(KernelEquivalence, RunningExampleAllSolvers) {
  expect_plans_match_reference(testing::running_example_sequence(),
                               "running example");
}

TEST(KernelEquivalence, Zipf2kAllSolvers) {
  expect_plans_match_reference(zipf_trace_2k(), "zipf 2k");
}

TEST(KernelEquivalence, BigZipf200kAllSolvers) {
  expect_plans_match_reference(big_trace_200k(), "zipf 200k");
}

TEST(KernelEquivalence, RunningExampleDpGreedyPairs) {
  expect_dp_greedy_matches_reference(testing::running_example_sequence(),
                                     "running example");
}

TEST(KernelEquivalence, Zipf2kDpGreedyPairs) {
  expect_dp_greedy_matches_reference(zipf_trace_2k(), "zipf 2k");
}

TEST(KernelEquivalence, BigZipf200kDpGreedyPairs) {
  expect_dp_greedy_matches_reference(big_trace_200k(), "zipf 200k");
}

TEST(FormatEquivalence, DptAndCsvProduceIdenticalReports) {
  // The same trace through the two readers (text parse vs. mmap zero-copy)
  // must hand every solver identical inputs — proven by identical outputs.
  const RequestSequence original = zipf_trace_2k();
  const std::string csv_path = ::testing::TempDir() + "kernel_equiv.csv";
  const std::string dpt_path = ::testing::TempDir() + "kernel_equiv.dpt";
  write_trace_auto(csv_path, original);
  write_trace_auto(dpt_path, original);
  const RequestSequence via_csv = read_trace_auto(csv_path);
  const RequestSequence via_dpt = read_trace_auto(dpt_path);
  ASSERT_TRUE(via_dpt.borrows_storage());

  const CostModel model = testing::running_example_model();
  for (const std::string& name : builtin_registry().names()) {
    const SolverConfig config;
    expect_reports_identical(
        builtin_registry().run(name, via_csv, model, config),
        builtin_registry().run(name, via_dpt, model, config),
        "csv-vs-dpt, solver " + name);
  }
  std::remove(csv_path.c_str());
  std::remove(dpt_path.c_str());
}

}  // namespace
}  // namespace dpg
