// The engine layer: registry dispatch, canonical RunReports, bit-identical
// wrapping of every solve_* entry point, and the exact cache+transfer
// breakdown invariant.  The direct solve_* calls below are the oracle the
// adapters are checked against — this test deliberately reaches past the
// facade.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "engine/render.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "solver/baselines.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/greedy.hpp"
#include "solver/group_solver.hpp"
#include "solver/online.hpp"
#include "solver/online_dp_greedy.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace dpg {
namespace {

const std::vector<std::string> kBuiltinNames = {
    "chain",          "dp_greedy",         "greedy",
    "group_dp_greedy", "online_break_even", "online_dp_greedy",
    "optimal_baseline", "package_served"};

RequestSequence generated_trace() {
  Rng rng(2024);
  return testing::random_sequence(rng, 2000, /*server_count=*/8,
                                  /*item_count=*/6);
}

TEST(SolverRegistry, ListsEveryBuiltinSorted) {
  const SolverRegistry& registry = builtin_registry();
  EXPECT_EQ(registry.names(), kBuiltinNames);
  for (const std::string& name : kBuiltinNames) {
    EXPECT_TRUE(registry.contains(name));
    EXPECT_EQ(registry.info(name).name, name);
    EXPECT_NE(registry.create(name), nullptr);
  }
  EXPECT_EQ(registry.list().size(), kBuiltinNames.size());
}

TEST(SolverRegistry, UnknownNameThrowsListingValidNames) {
  try {
    (void)builtin_registry().create("no_such_solver");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no_such_solver"), std::string::npos) << message;
    for (const std::string& name : kBuiltinNames) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry registry;
  registry.add({"x", "", "", false},
               [] { return builtin_registry().create("chain"); });
  EXPECT_THROW(registry.add({"x", "", "", false},
                            [] { return builtin_registry().create("chain"); }),
               InvalidArgument);
}

TEST(Engine, RunningExampleMatchesThePaper) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  SolverConfig config;
  config.theta = 0.4;  // the walkthrough threshold of Section V-C

  const RunReport report =
      builtin_registry().run("dp_greedy", seq, model, config);
  EXPECT_NEAR(report.total_cost, 14.96, 1e-9);
  EXPECT_EQ(report.total_item_accesses, 10u);
  EXPECT_NEAR(report.ave_cost, 1.496, 1e-9);
  EXPECT_EQ(report.package_count, 1u);
  EXPECT_FALSE(report.plans.empty());

  // group_dp_greedy degenerates to DP_Greedy on a two-item universe.
  const RunReport grouped =
      builtin_registry().run("group_dp_greedy", seq, model, config);
  EXPECT_EQ(grouped.total_cost, report.total_cost);

  const RunReport optimal =
      builtin_registry().run("optimal_baseline", seq, model, config);
  EXPECT_NEAR(optimal.total_cost, 15.20, 1e-9);
}

/// Every adapter must return the exact bits of the solve_* call it wraps.
void expect_bit_identical(const RequestSequence& seq, const CostModel& model) {
  const SolverRegistry& registry = builtin_registry();
  const SolverConfig config;  // defaults mirror the per-solver option structs

  EXPECT_EQ(registry.run("dp_greedy", seq, model, config).total_cost,
            solve_dp_greedy(seq, model).total_cost);
  EXPECT_EQ(registry.run("optimal_baseline", seq, model, config).total_cost,
            solve_optimal_baseline(seq, model).total_cost);
  EXPECT_EQ(registry.run("package_served", seq, model, config).total_cost,
            solve_package_served(seq, model, config.theta).total_cost);
  EXPECT_EQ(registry.run("group_dp_greedy", seq, model, config).total_cost,
            solve_group_dp_greedy(seq, model).total_cost);
  EXPECT_EQ(registry.run("online_dp_greedy", seq, model, config).total_cost,
            solve_online_dp_greedy(seq, model).total_cost);

  // The per-flow policies have no whole-sequence entry point; the canonical
  // composition is one solve per item flow, in ascending item order.
  Cost greedy_total = 0.0;
  Cost chain_total = 0.0;
  Cost online_total = 0.0;
  for (ItemId item = 0; item < seq.item_count(); ++item) {
    const Flow flow = make_item_flow(seq, item);
    greedy_total += solve_greedy(flow, model, seq.server_count()).cost;
    chain_total += solve_chain(flow, model).cost;
    online_total +=
        solve_online_break_even(flow, model, seq.server_count()).cost;
  }
  EXPECT_EQ(registry.run("greedy", seq, model, config).total_cost,
            greedy_total);
  EXPECT_EQ(registry.run("chain", seq, model, config).total_cost, chain_total);
  EXPECT_EQ(registry.run("online_break_even", seq, model, config).total_cost,
            online_total);
}

TEST(Engine, BitIdenticalOnRunningExample) {
  expect_bit_identical(testing::running_example_sequence(),
                       testing::running_example_model());
}

/// Telemetry is purely observational: with recording on, every registry
/// solver must return bit-identical totals to the telemetry-off run on the
/// paper's running example, and each enabled RunReport must carry a
/// non-empty metrics delta plus a root span in the trace.
TEST(Engine, TelemetryOnIsBitIdenticalToTelemetryOff) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  SolverConfig config;
  config.theta = 0.4;
  const SolverRegistry& registry = builtin_registry();

  for (const std::string& name : registry.names()) {
    obs::set_enabled(false);
    const RunReport off = registry.run(name, seq, model, config);

    obs::set_enabled(true);
    obs::reset_metrics();
    obs::reset_trace();
    const RunReport on = registry.run(name, seq, model, config);
    const std::vector<obs::TraceEventView> spans = obs::snapshot_trace();
    obs::set_enabled(false);
    obs::reset_metrics();
    obs::reset_trace();

    EXPECT_EQ(on.total_cost, off.total_cost) << name;
    EXPECT_EQ(on.raw_cost, off.raw_cost) << name;
    EXPECT_EQ(on.cache_cost, off.cache_cost) << name;
    EXPECT_EQ(on.transfer_cost, off.transfer_cost) << name;
    EXPECT_EQ(on.ave_cost, off.ave_cost) << name;
    EXPECT_EQ(on.package_count, off.package_count) << name;
    EXPECT_EQ(on.transfer_events, off.transfer_events) << name;
    EXPECT_EQ(on.cache_segments, off.cache_segments) << name;

    EXPECT_TRUE(off.metrics.counters.empty()) << name;
    EXPECT_FALSE(on.metrics.counters.empty()) << name;
    bool has_root_span = false;
    for (const obs::TraceEventView& span : spans) {
      if (span.name == "run/" + name) has_root_span = true;
    }
    EXPECT_TRUE(has_root_span) << name;
  }
}

TEST(Engine, BitIdenticalOnGeneratedTrace) {
  const CostModel model{1.0, 2.0, 0.8};
  expect_bit_identical(generated_trace(), model);
}

TEST(Engine, BreakdownSumsExactlyToTotalOnEverySolver) {
  const RequestSequence seq = generated_trace();
  const CostModel model{1.0, 2.0, 0.8};
  for (const std::string& name : builtin_registry().names()) {
    const RunReport report = builtin_registry().run(name, seq, model);
    // Bit-exact, not NEAR: the breakdown is renormalized by ulps so the
    // identity holds in doubles (finalize_report).
    EXPECT_EQ(report.cache_cost + report.transfer_cost, report.total_cost)
        << name;
    EXPECT_GE(report.transfer_cost, 0.0) << name;
    EXPECT_GE(report.cache_cost, 0.0) << name;
    EXPECT_GT(report.transfer_events, 0u) << name;
    EXPECT_EQ(report.solver, name);
    EXPECT_EQ(report.total_item_accesses, seq.total_item_accesses()) << name;
  }
}

TEST(Engine, PlansReplayFeasiblyAndKeepSchedulesIsCostNeutral) {
  const RequestSequence seq = generated_trace();
  const CostModel model{1.0, 2.0, 0.8};
  for (const std::string& name : builtin_registry().names()) {
    const RunReport with_plans = builtin_registry().run(name, seq, model);
    if (!with_plans.plans.empty()) {
      const ReplayMetrics metrics =
          replay_plans(with_plans.plans, model, seq.server_count());
      EXPECT_TRUE(metrics.feasible) << name << ": " << metrics.issue;
    }
    SolverConfig lean;
    lean.keep_schedules = false;
    const RunReport without = builtin_registry().run(name, seq, model, lean);
    EXPECT_TRUE(without.plans.empty()) << name;
    EXPECT_EQ(without.total_cost, with_plans.total_cost) << name;
  }
}

TEST(Engine, SolverInstanceIsReusableAcrossRuns) {
  const RequestSequence seq = generated_trace();
  const CostModel model{1.0, 2.0, 0.8};
  const SolverConfig config;
  for (const std::string& name : builtin_registry().names()) {
    const std::unique_ptr<Solver> solver = builtin_registry().create(name);
    const RunReport first = solver->run(seq, model, config);
    const RunReport second = solver->run(seq, model, config);
    EXPECT_EQ(first.total_cost, second.total_cost) << name;
    EXPECT_EQ(first.transfer_cost, second.transfer_cost) << name;
  }
}

TEST(SolverConfigBuilder, FluentChainSetsFields) {
  const SolverConfig config = SolverConfig{}.threads(8).telemetry(true);
  EXPECT_EQ(config.thread_count, 8u);
  EXPECT_TRUE(config.telemetry_enabled);
  // Aggregate initialization keeps working alongside the builder.
  SolverConfig aggregate;
  aggregate.theta = 0.5;
  EXPECT_EQ(aggregate.thread_count, 0u);
  EXPECT_FALSE(aggregate.telemetry_enabled);
}

TEST(SolverConfigBuilder, WithSetsEveryNamedField) {
  SolverConfig config;
  config.with("theta", "0.4")
      .with("max_group_size", "4")
      .with("window", "100")
      .with("repack_interval", "25")
      .with("hold_factor", "2.0")
      .with("keep_schedules", "false")
      .with("threads", "8")
      .with("telemetry", "on");
  EXPECT_EQ(config.theta, 0.4);
  EXPECT_EQ(config.max_group_size, 4u);
  EXPECT_EQ(config.window, 100u);
  EXPECT_EQ(config.repack_interval, 25u);
  EXPECT_EQ(config.hold_factor, 2.0);
  EXPECT_FALSE(config.keep_schedules);
  EXPECT_EQ(config.thread_count, 8u);
  EXPECT_TRUE(config.telemetry_enabled);
}

TEST(SolverConfigBuilder, UnknownFieldThrowsListingValidFields) {
  try {
    SolverConfig{}.with("thredas", "8");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("thredas"), std::string::npos) << message;
    for (const char* field : {"theta", "max_group_size", "window",
                              "repack_interval", "hold_factor",
                              "keep_schedules", "threads", "telemetry"}) {
      EXPECT_NE(message.find(field), std::string::npos) << message;
    }
  }
  // The deleted switches are unknown fields now, not silently ignored ones.
  EXPECT_THROW(SolverConfig{}.with("seed", "7"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("kernels", "off"), InvalidArgument);
}

TEST(SolverConfigBuilder, ValidatesEagerly) {
  EXPECT_THROW(SolverConfig{}.with("theta", "1.5"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("theta", "-0.1"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("theta", "nan"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("hold_factor", "-1"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("window", "0"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("repack_interval", "0"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("max_group_size", "1"), InvalidArgument);
  EXPECT_THROW(SolverConfig{}.with("telemetry", "maybe"), InvalidArgument);
}

TEST(SolverConfigBuilder, RegistryRejectsInvalidConfigBeforeDispatch) {
  SolverConfig bad;
  bad.theta = 1.5;  // bypasses the eager setter on purpose
  EXPECT_THROW(builtin_registry().run("dp_greedy",
                                      testing::running_example_sequence(),
                                      testing::running_example_model(), bad),
               InvalidArgument);
}

/// config.telemetry(true) records per-run metrics without flipping the
/// process-wide switch for later runs.
TEST(SolverConfigBuilder, PerRunTelemetryAttachesMetricsAndRestoresSwitch) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  ASSERT_FALSE(obs::enabled());

  const RunReport plain = builtin_registry().run("dp_greedy", seq, model);
  EXPECT_TRUE(plain.metrics.counters.empty());

  const RunReport recorded = builtin_registry().run(
      "dp_greedy", seq, model, SolverConfig{}.telemetry(true));
  EXPECT_FALSE(recorded.metrics.counters.empty());
  EXPECT_FALSE(obs::enabled());  // restored after the run
  EXPECT_EQ(recorded.total_cost, plain.total_cost);  // observational only

  obs::reset_metrics();
  obs::reset_trace();
}

TEST(Engine, RenderingCoversEveryReportField) {
  const RequestSequence seq = testing::running_example_sequence();
  const CostModel model = testing::running_example_model();
  const std::vector<RunReport> reports =
      run_solvers(builtin_registry().names(), seq, model);

  EXPECT_EQ(comparison_row(reports.front()).size(), comparison_header().size());
  EXPECT_EQ(report_csv_row(reports.front()).size(), report_csv_header().size());
  const std::string table = render_comparison(reports);
  const std::string json = report_json(reports.front());
  for (const RunReport& report : reports) {
    EXPECT_NE(table.find(report.solver), std::string::npos);
  }
  EXPECT_NE(json.find("\"total_cost\""), std::string::npos);
  EXPECT_NE(json.find("\"transfer_cost\""), std::string::npos);
}

}  // namespace
}  // namespace dpg
