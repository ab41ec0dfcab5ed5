// Perf-trajectory harness: dense vs sparse Phase-1 correlation, fresh vs
// workspace-reuse Phase-2 solves, every registered solver end to end, and
// the telemetry overhead breakdown.
//
// Usage: bm_phase1 [--fragment FILE]   — writes the sections
// phase1_dense_vs_sparse, phase2_workspace, registry_solvers and
// telemetry_overhead as a fragment for dpgreedy_bench to merge into the
// schema-v2 BENCH_solvers.json (see bench/harness/fragment.hpp).
//
// Allocation counts come from a global operator new/delete override local to
// this binary: every new/new[] bumps one relaxed atomic.  That makes
// "allocations per solve" an exact count, not a sampling estimate.
#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "harness_solvers.hpp"
#include "engine/registry.hpp"
#include "harness/fragment.hpp"
#include "harness_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size > 0 ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpg {
namespace {

constexpr int kRepetitions = 5;

std::uint64_t allocations_now() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Best-of-N wall time of `fn`, in milliseconds.
template <typename Fn>
double time_best_ms(Fn&& fn, int repetitions = kRepetitions) {
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_seconds() * 1e3);
  }
  return best;
}

struct Phase1Row {
  std::size_t k = 0;
  std::size_t requests = 0;
  std::size_t dense_pairs = 0;     // k(k−1)/2, materialized by the triangle
  std::size_t observed_pairs = 0;  // co_freq > 0, all the sparse path keeps
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
  std::uint64_t dense_allocs = 0;
  std::uint64_t sparse_allocs = 0;
  bool packing_identical = false;
};

bool same_packing(const Packing& x, const Packing& y) {
  if (x.pairs.size() != y.pairs.size() || x.singles != y.singles) return false;
  for (std::size_t i = 0; i < x.pairs.size(); ++i) {
    if (x.pairs[i].a != y.pairs[i].a || x.pairs[i].b != y.pairs[i].b) {
      return false;
    }
  }
  return true;
}

Phase1Row run_phase1(std::size_t k, std::size_t requests) {
  ZipfTraceConfig config;
  config.server_count = 50;
  config.item_count = k;
  config.request_count = requests;
  config.co_access = 0.3;
  Rng rng(1234);
  const RequestSequence seq = generate_zipf_trace(config, rng);

  CorrelationOptions dense;
  dense.mode = CorrelationOptions::Mode::kDense;
  CorrelationOptions sparse;
  sparse.mode = CorrelationOptions::Mode::kSparse;

  Phase1Row row;
  row.k = k;
  row.requests = requests;
  row.dense_pairs = k * (k - 1) / 2;

  row.dense_ms = time_best_ms([&] {
    const CorrelationAnalysis analysis(seq, dense);
    if (analysis.sorted_pairs().empty()) std::abort();  // keep it observable
  });
  row.sparse_ms = time_best_ms([&] {
    const CorrelationAnalysis analysis(seq, sparse);
    if (analysis.sorted_pairs().size() != analysis.observed_pair_count()) {
      std::abort();
    }
  });

  std::uint64_t before = allocations_now();
  const CorrelationAnalysis dense_analysis(seq, dense);
  row.dense_allocs = allocations_now() - before;
  before = allocations_now();
  const CorrelationAnalysis sparse_analysis(seq, sparse);
  row.sparse_allocs = allocations_now() - before;
  row.observed_pairs = sparse_analysis.observed_pair_count();

  row.packing_identical =
      same_packing(greedy_pairing(dense_analysis, 0.3),
                   greedy_pairing(sparse_analysis, 0.3));
  return row;
}

struct Phase2Report {
  std::size_t solves = 0;
  std::size_t pairs = 0;
  std::size_t singles = 0;
  double fresh_ms = 0.0;
  double workspace_ms = 0.0;
  double fresh_allocs_per_solve = 0.0;
  double workspace_allocs_per_solve = 0.0;
  bool costs_identical = false;
};

Phase2Report run_phase2() {
  // A paired trace with enough flows that per-solve scratch dominates:
  // 48 controlled-Jaccard pairs (96 items), 200 requests each.
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = 200;
  config.pair_jaccard.clear();
  for (std::size_t p = 0; p < 48; ++p) {
    config.pair_jaccard.push_back(0.1 + 0.8 * static_cast<double>(p) / 47.0);
  }
  Rng rng(99);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};

  const CorrelationAnalysis analysis(seq, {});
  const Packing packing = greedy_pairing(analysis, 0.3);

  // Cost-only solves isolate the scratch path: with build_schedule off the
  // only allocations left are the solver's own working buffers.
  OptimalOfflineOptions dp;
  dp.build_schedule = false;

  Phase2Report report;
  report.pairs = packing.pairs.size();
  report.singles = packing.singles.size();
  report.solves = packing.pairs.size() + packing.singles.size();

  const auto solve_all_fresh = [&]() {
    Cost total = 0.0;
    for (const ItemPair& pair : packing.pairs) {
      const Flow flow = make_package_flow(seq, pair.a, pair.b);
      total += solve_optimal_offline(flow, model, seq.server_count(), dp).cost;
    }
    for (const ItemId item : packing.singles) {
      const Flow flow = make_item_flow(seq, item);
      total += solve_optimal_offline(flow, model, seq.server_count(), dp).cost;
    }
    return total;
  };
  const auto solve_all_workspace = [&](SolverWorkspace& ws) {
    Cost total = 0.0;
    for (const ItemPair& pair : packing.pairs) {
      make_package_flow(seq, pair.a, pair.b, ws.flow);
      total +=
          solve_optimal_offline(ws.flow, model, seq.server_count(), dp, &ws)
              .cost;
    }
    for (const ItemId item : packing.singles) {
      make_item_flow(seq, item, ws.flow);
      total +=
          solve_optimal_offline(ws.flow, model, seq.server_count(), dp, &ws)
              .cost;
    }
    return total;
  };

  SolverWorkspace ws;
  const Cost warmup_total = solve_all_workspace(ws);  // grow buffers once
  report.costs_identical = warmup_total == solve_all_fresh();

  report.fresh_ms = time_best_ms([&] { (void)solve_all_fresh(); });
  report.workspace_ms = time_best_ms([&] { (void)solve_all_workspace(ws); });

  std::uint64_t before = allocations_now();
  (void)solve_all_fresh();
  const std::uint64_t fresh_allocs = allocations_now() - before;
  before = allocations_now();
  (void)solve_all_workspace(ws);
  const std::uint64_t workspace_allocs = allocations_now() - before;

  const double solves = static_cast<double>(report.solves);
  report.fresh_allocs_per_solve = static_cast<double>(fresh_allocs) / solves;
  report.workspace_allocs_per_solve =
      static_cast<double>(workspace_allocs) / solves;
  return report;
}

/// One row per registered solver, end to end through the engine on a shared
/// paired trace — the committed baseline rows carry the registry names, so
/// future diffs line up with `dpgreedy list`.
struct RegistryRow {
  std::string name;
  Cost total_cost = 0.0;
  double solve_ms = 0.0;
  std::uint64_t allocs = 0;
};

std::vector<RegistryRow> run_registry() {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = 200;
  Rng rng(7);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  SolverConfig solver_config;
  solver_config.theta = 0.3;
  solver_config.keep_schedules = false;

  std::vector<RegistryRow> rows;
  for (const std::string& name : builtin_registry().names()) {
    const std::unique_ptr<Solver> solver = builtin_registry().create(name);
    RegistryRow row;
    row.name = name;
    // Warm-up run grows the solver's workspace and records the cost.
    row.total_cost = solver->run(seq, model, solver_config).total_cost;
    row.solve_ms =
        time_best_ms([&] { (void)solver->run(seq, model, solver_config); });
    const std::uint64_t before = allocations_now();
    (void)solver->run(seq, model, solver_config);
    row.allocs = allocations_now() - before;
    rows.push_back(row);
  }
  return rows;
}

/// Telemetry cost on the end-to-end dp_greedy solve, broken down: recording
/// fully off, counters only (spans disabled), and counters + spans.  The
/// paired workload (5 pairs × 100k requests) keeps each solve above ~50 ms,
/// so a scheduler hiccup is a small share of one rep.  The three modes
/// alternate rep by rep (each round starts at the next mode), so a burst of
/// host load lands on all of them; each overhead is the ratio of the median
/// times, with the min/max of the per-round ratios next to it.  Runs last so
/// enabling telemetry cannot perturb the alloc counts above.
constexpr std::size_t kTelemetryRequestsPerPair = 100000;
constexpr int kTelemetryRounds = 21;

struct TelemetryReport {
  std::size_t requests = 0;
  double off_ms = 0.0;       // medians over kTelemetryRounds
  double counters_ms = 0.0;
  double full_ms = 0.0;
  double counters_overhead_pct = 0.0;  // median counters / median off − 1
  double counters_overhead_pct_min = 0.0;
  double counters_overhead_pct_max = 0.0;
  double full_overhead_pct = 0.0;
  double full_overhead_pct_min = 0.0;
  double full_overhead_pct_max = 0.0;
  bool cost_identical = false;
  std::string counters_json = "{}";  // one full-telemetry solve
  std::uint64_t trace_events = 0;
};

enum TelemetryMode { kOff = 0, kCounters = 1, kFull = 2, kModes = 3 };

void set_telemetry_mode(int mode) {
  obs::set_enabled(mode != kOff);
  obs::set_spans_enabled(mode == kFull);
  obs::reset_metrics();
  obs::reset_trace();
}

double overhead_pct(double on_ms, double off_ms) {
  return off_ms > 0.0 ? (on_ms / off_ms - 1.0) * 100.0 : 0.0;
}

TelemetryReport run_telemetry() {
  PairedTraceConfig config;
  config.server_count = 50;
  config.requests_per_pair = kTelemetryRequestsPerPair;
  Rng rng(7);
  const RequestSequence seq = generate_paired_trace(config, rng);
  const CostModel model{1.0, 2.0, 0.8};
  SolverConfig solver_config;
  solver_config.theta = 0.3;
  solver_config.keep_schedules = false;

  TelemetryReport report;
  report.requests = seq.size();
  const auto solve_cost = [&] {
    return builtin_registry().run("dp_greedy", seq, model, solver_config)
        .total_cost;
  };
  std::vector<double> ms[kModes];
  for (int mode = 0; mode < kModes; ++mode) {  // warm-up, one per mode
    set_telemetry_mode(mode);
    (void)solve_cost();
  }
  for (int round = 0; round < kTelemetryRounds; ++round) {
    for (int step = 0; step < kModes; ++step) {
      const int mode = (round + step) % kModes;
      set_telemetry_mode(mode);
      const Stopwatch watch;
      (void)solve_cost();
      ms[mode].push_back(watch.elapsed_seconds() * 1e3);
    }
  }

  report.off_ms = percentile(ms[kOff], 50.0);
  report.counters_ms = percentile(ms[kCounters], 50.0);
  report.full_ms = percentile(ms[kFull], 50.0);
  report.counters_overhead_pct = overhead_pct(report.counters_ms, report.off_ms);
  report.full_overhead_pct = overhead_pct(report.full_ms, report.off_ms);
  std::vector<double> counters_pct;
  std::vector<double> full_pct;
  for (int round = 0; round < kTelemetryRounds; ++round) {
    const auto r = static_cast<std::size_t>(round);
    counters_pct.push_back(overhead_pct(ms[kCounters][r], ms[kOff][r]));
    full_pct.push_back(overhead_pct(ms[kFull][r], ms[kOff][r]));
  }
  report.counters_overhead_pct_min =
      *std::min_element(counters_pct.begin(), counters_pct.end());
  report.counters_overhead_pct_max =
      *std::max_element(counters_pct.begin(), counters_pct.end());
  report.full_overhead_pct_min =
      *std::min_element(full_pct.begin(), full_pct.end());
  report.full_overhead_pct_max =
      *std::max_element(full_pct.begin(), full_pct.end());

  // One more solve per side for the identity flag and the telemetry it
  // records (counters and span count of exactly one solve).
  set_telemetry_mode(kOff);
  const Cost off_cost = solve_cost();
  set_telemetry_mode(kFull);
  report.cost_identical = solve_cost() == off_cost;
  report.counters_json = harness::metrics_counters_json();
  report.trace_events = obs::snapshot_trace().size();
  set_telemetry_mode(kOff);
  return report;
}

/// printf into a growing std::string (section bodies for the fragment).
void appendf(std::string& out, const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  if (written > 0) out.append(buffer, static_cast<std::size_t>(written));
}

int run(const std::string& fragment_path) {
  std::vector<Phase1Row> phase1;
  for (const std::size_t k : {512u, 1024u, 2048u}) {
    std::printf("phase1 k=%zu ...\n", k);
    phase1.push_back(run_phase1(k, 20000));
  }
  const std::uint64_t rss_after_phase1 = harness::peak_rss_bytes();
  std::printf("phase2 ...\n");
  const Phase2Report phase2 = run_phase2();
  const std::uint64_t rss_after_phase2 = harness::peak_rss_bytes();
  std::printf("registry solvers ...\n");
  const std::vector<RegistryRow> registry_rows = run_registry();
  const std::uint64_t rss_after_registry = harness::peak_rss_bytes();
  std::printf("telemetry overhead ...\n");
  const TelemetryReport telemetry = run_telemetry();

  std::string phase1_body;
  appendf(phase1_body, "{\"repetitions\": %d, \"rows\": [", kRepetitions);
  for (std::size_t i = 0; i < phase1.size(); ++i) {
    const Phase1Row& r = phase1[i];
    appendf(
        phase1_body,
        "%s{\"k\": %zu, \"requests\": %zu, \"dense_pairs\": %zu, "
        "\"observed_pairs\": %zu, \"dense_ms\": %.3f, \"sparse_ms\": %.3f, "
        "\"speedup\": %.2f, \"dense_allocs\": %llu, \"sparse_allocs\": %llu, "
        "\"packing_identical\": %s}",
        i == 0 ? "" : ", ", r.k, r.requests, r.dense_pairs, r.observed_pairs,
        r.dense_ms, r.sparse_ms, r.dense_ms / r.sparse_ms,
        static_cast<unsigned long long>(r.dense_allocs),
        static_cast<unsigned long long>(r.sparse_allocs),
        r.packing_identical ? "true" : "false");
  }
  appendf(phase1_body, "], \"peak_rss_bytes\": %llu}",
          static_cast<unsigned long long>(rss_after_phase1));

  std::string phase2_body;
  appendf(phase2_body,
          "{\"solves\": %zu, \"pairs\": %zu, \"singles\": %zu, "
          "\"fresh_ms\": %.3f, \"workspace_ms\": %.3f, \"speedup\": %.2f, "
          "\"fresh_allocs_per_solve\": %.1f, "
          "\"workspace_allocs_per_solve\": %.1f, \"costs_identical\": %s, "
          "\"peak_rss_bytes\": %llu}",
          phase2.solves, phase2.pairs, phase2.singles, phase2.fresh_ms,
          phase2.workspace_ms, phase2.fresh_ms / phase2.workspace_ms,
          phase2.fresh_allocs_per_solve, phase2.workspace_allocs_per_solve,
          phase2.costs_identical ? "true" : "false",
          static_cast<unsigned long long>(rss_after_phase2));

  std::string registry_body;
  appendf(registry_body, "{\"rows\": [");
  for (std::size_t i = 0; i < registry_rows.size(); ++i) {
    const RegistryRow& r = registry_rows[i];
    appendf(registry_body,
            "%s{\"solver\": \"%s\", \"total_cost\": %.6f, "
            "\"solve_ms\": %.3f, \"allocs\": %llu}",
            i == 0 ? "" : ", ", r.name.c_str(), r.total_cost, r.solve_ms,
            static_cast<unsigned long long>(r.allocs));
  }
  appendf(registry_body, "], \"peak_rss_bytes\": %llu}",
          static_cast<unsigned long long>(rss_after_registry));

  std::string telemetry_body;
  appendf(telemetry_body,
          "{\"requests\": %zu, \"rounds\": %d, "
          "\"dp_greedy_off_ms\": %.3f, \"counters_only_ms\": %.3f, "
          "\"full_ms\": %.3f, \"counters_overhead_pct\": %.1f, "
          "\"counters_overhead_pct_min\": %.1f, "
          "\"counters_overhead_pct_max\": %.1f, "
          "\"full_overhead_pct\": %.1f, \"full_overhead_pct_min\": %.1f, "
          "\"full_overhead_pct_max\": %.1f, \"cost_identical\": %s, ",
          telemetry.requests, kTelemetryRounds, telemetry.off_ms,
          telemetry.counters_ms, telemetry.full_ms,
          telemetry.counters_overhead_pct, telemetry.counters_overhead_pct_min,
          telemetry.counters_overhead_pct_max, telemetry.full_overhead_pct,
          telemetry.full_overhead_pct_min, telemetry.full_overhead_pct_max,
          telemetry.cost_identical ? "true" : "false");
  appendf(telemetry_body,
          "\"trace_events\": %llu, \"counters\": %s, "
          "\"peak_rss_bytes\": %llu}",
          static_cast<unsigned long long>(telemetry.trace_events),
          telemetry.counters_json.c_str(),
          static_cast<unsigned long long>(harness::peak_rss_bytes()));

  const int status = dpg::bench::write_fragment(
      fragment_path, {{"phase1_dense_vs_sparse", phase1_body},
                      {"phase2_workspace", phase2_body},
                      {"registry_solvers", registry_body},
                      {"telemetry_overhead", telemetry_body}});
  if (status != 0) return status;
  std::printf("wrote %s\n", fragment_path.c_str());

  for (const Phase1Row& r : phase1) {
    std::printf(
        "phase1 k=%5zu: dense %8.2f ms (%zu pairs, %llu allocs)  "
        "sparse %8.2f ms (%zu pairs, %llu allocs)  speedup %.2fx  packing %s\n",
        r.k, r.dense_ms, r.dense_pairs,
        static_cast<unsigned long long>(r.dense_allocs), r.sparse_ms,
        r.observed_pairs, static_cast<unsigned long long>(r.sparse_allocs),
        r.dense_ms / r.sparse_ms, r.packing_identical ? "identical" : "DIFFERS");
  }
  std::printf(
      "phase2 %zu solves: fresh %.2f ms (%.1f allocs/solve)  "
      "workspace %.2f ms (%.1f allocs/solve)  costs %s\n",
      phase2.solves, phase2.fresh_ms, phase2.fresh_allocs_per_solve,
      phase2.workspace_ms, phase2.workspace_allocs_per_solve,
      phase2.costs_identical ? "identical" : "DIFFER");
  for (const RegistryRow& r : registry_rows) {
    std::printf("registry %-18s total %12.2f  %8.2f ms  %llu allocs\n",
                r.name.c_str(), r.total_cost, r.solve_ms,
                static_cast<unsigned long long>(r.allocs));
  }
  std::printf(
      "telemetry dp_greedy (%zu requests, medians of %d): off %.3f ms, "
      "counters %.3f ms (%+.1f%%, rounds %+.1f..%+.1f%%), full %.3f ms "
      "(%+.1f%%, rounds %+.1f..%+.1f%%), %llu trace events, costs %s, "
      "peak rss %.1f MiB\n",
      telemetry.requests, kTelemetryRounds, telemetry.off_ms,
      telemetry.counters_ms, telemetry.counters_overhead_pct,
      telemetry.counters_overhead_pct_min, telemetry.counters_overhead_pct_max,
      telemetry.full_ms, telemetry.full_overhead_pct,
      telemetry.full_overhead_pct_min, telemetry.full_overhead_pct_max,
      static_cast<unsigned long long>(telemetry.trace_events),
      telemetry.cost_identical ? "identical" : "DIFFER",
      static_cast<double>(harness::peak_rss_bytes()) / (1024.0 * 1024.0));
  return 0;
}

}  // namespace
}  // namespace dpg

int main(int argc, char** argv) {
  std::string fragment_path = "bm_phase1.fragment.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fragment" && i + 1 < argc) {
      fragment_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bm_phase1 [--fragment FILE]\n");
      return 2;
    }
  }
  return dpg::run(fragment_path);
}
