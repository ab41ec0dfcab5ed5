// perfbench_replay — the in-process half of the perfbench benchmark.
//
//   perfbench_replay reference <workload> <trace>
//       Computes, through the library directly, the answer the dpgreedy CLI
//       must print for <workload> on <trace>, plus the total of the same job
//       on one partition and one thread, which cost_vs_1x1 divides by.
//       Prints one JSON object.
//
//   perfbench_replay replay <workload> <trace> <spans-out> <prom-out>
//       Replays <workload> serially through the public entry points of each
//       layer, kReps times with tracing off and kReps times with tracing on
//       (alternating), and writes the spans of the last traced replay to
//       <spans-out> as TSV (id, parent, name, start_ns, end_ns, count).
//       Then times the CLI's job in process (for cli.overhead_ms).  Prints
//       the wall times and the layer counts as one JSON object.
//       serve_dpt_2x2_obs writes its Prometheus file to <prom-out>.
//
//   perfbench_replay host
//       Prints the compiler id/version, build type, CPU model and ISA flags.
//
// Workloads: serve_csv_1x1 (a CSV trace), serve_dpt_2x2_obs and solve_dpt
// (`.dpt` traces).  Every option not named here is the CLI's
// default, so the reference answers match what the CLI prints.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dpgreedy.hpp"
#include "solver/dp_greedy.hpp"
#include "solver/optimal_offline.hpp"
#include "solver/workspace.hpp"

using namespace dpg;

namespace {

constexpr std::size_t kBatchRows = 1024;  // ServeConfig's default block size
constexpr std::size_t kObsSnapshotEvery = 10000;  // serve_dpt_2x2_obs's cadence
constexpr std::size_t kPartitions = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kSolveThreads = 2;
constexpr std::size_t kReps = 5;  // replays of each kind per traced run

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory around each call into a layer, written out after
// the replay.  Disabled tracers record nothing, so the untraced replay runs
// the same code minus the clock reads and the appends.

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::uint64_t count;  // rows (or bytes) the call handled, where it has one
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id, std::uint64_t count) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    span.count = count;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; `count` may be set before the scope ends.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_, count); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t count = 0;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------------
// The CLI's defaults (tools/dpgreedy_cli.cpp: add_run_flags, cmd_serve).

CostModel cli_model() {
  CostModel model;
  model.mu = 1.0;
  model.lambda = 1.0;
  model.alpha = 0.8;
  model.validate();
  return model;
}

StreamingOptions cli_streaming_options() {
  StreamingOptions options;
  options.online.theta = 0.3;
  options.online.window = 200;
  options.online.repack_interval = 50;
  options.online.hold_factor = 1.0;
  options.probe_chunk = 0;
  return options;
}

DpGreedyOptions cli_dp_greedy_options() {
  DpGreedyOptions options;
  options.theta = 0.3;
  return options;
}

bool crosses(std::size_t rows_through, std::size_t rows, std::size_t every) {
  return every > 0 && rows_through / every > (rows_through - rows) / every;
}

/// Everything a replay reports besides its spans.
struct Outcome {
  double total = 0.0;
  std::size_t requests = 0;
  std::map<std::string, double> counts;
};

// ---------------------------------------------------------------------------
// Serial replays, one per workload.

/// CSV → CsvStreamReader::next → StreamingEngine::push per row → finish:
/// the path `serve --trace T.csv` runs at 1×1.  Rows are decoded and pushed
/// in groups of kBatchRows, one span per group and layer, so the span count
/// stays small.
Outcome replay_serve_csv(const std::string& path, Tracer& tracer) {
  Outcome out;
  const Scope root(tracer, "replay");
  std::ifstream file(path, std::ios::binary);
  if (!file) throw IoError("cannot open " + path);
  CsvStreamReader reader(file, path);
  StreamingEngine engine(cli_model(), cli_streaming_options());
  std::vector<CsvStreamRow> rows(kBatchRows);
  for (;;) {
    std::size_t n = 0;
    {
      Scope span(tracer, "trace.CsvStreamReader::next");
      while (n < rows.size() && reader.next(rows[n])) ++n;
      span.count = n;
    }
    if (n == 0) break;
    {
      Scope span(tracer, "engine.StreamingEngine::push");
      for (std::size_t i = 0; i < n; ++i) {
        engine.push(rows[i].server, rows[i].time, rows[i].items);
      }
      span.count = n;
    }
    out.requests += n;
  }
  StreamingSnapshot last;
  {
    const Scope span(tracer, "engine.StreamingEngine::snapshot(final)");
    last = engine.snapshot();
  }
  RunReport report;
  {
    const Scope span(tracer, "engine.StreamingEngine::finish");
    report = engine.finish();
  }
  out.total = report.total_cost;
  out.counts["epochs"] = static_cast<double>(engine.epoch());
  out.counts["state_alloc_events"] =
      static_cast<double>(last.state_alloc_events);
  return out;
}

/// `.dpt` → SequenceClaimSource → serve_partition_of per row → push_batch
/// per partition → at each barrier: snapshot per partition, merge, write the
/// Prometheus file → finish per partition → merge.  The serial equivalent of
/// run_sharded_serve at M = 2 (N does not change the answer at fixed M).
Outcome replay_serve_sharded(const std::string& path,
                             const std::string& prom_path, Tracer& tracer) {
  Outcome out;
  const Scope root(tracer, "replay");
  RequestSequence trace = [&] {
    Scope span(tracer, "trace.read_trace_auto");
    RequestSequence loaded = read_trace_auto(path);
    span.count = loaded.size();
    return loaded;
  }();
  SequenceClaimSource source(trace, kBatchRows);
  const CostModel model = cli_model();
  std::vector<std::unique_ptr<StreamingEngine>> engines;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    engines.push_back(
        std::make_unique<StreamingEngine>(model, cli_streaming_options()));
  }
  std::vector<RequestBlock> parts(kPartitions);
  std::vector<std::size_t> partition_rows(kPartitions, 0);
  std::vector<StreamingSnapshot> barrier(kPartitions);
  RequestBlock block;
  std::uint64_t seq = 0;
  std::size_t rows_through = 0;
  std::size_t snapshots = 0;
  std::size_t expositions = 0;
  StreamingSnapshot merged;
  const auto write_prom = [&] {
    const Scope span(tracer, "obs.write_prometheus_file");
    if (!obs::write_prometheus_file(prom_path, obs::snapshot_metrics())) {
      throw IoError("cannot write " + prom_path);
    }
    ++expositions;
  };
  for (;;) {
    bool more = false;
    {
      Scope span(tracer, "trace.SequenceClaimSource::claim");
      more = source.claim(block, seq, rows_through);
      span.count = block.size();
    }
    if (!more) break;
    {
      Scope span(tracer, "shard.serve_partition_of");
      for (RequestBlock& part : parts) part.clear();
      for (std::size_t r = 0; r < block.size(); ++r) {
        const ServerId server = block.server_of(r);
        const std::span<const ItemId> items = block.items_of(r);
        RequestBlock& part = parts[serve_partition_of(
            server, items, ServeRoute::kByServer, kPartitions)];
        part.begin_row(server, block.time_of(r));
        for (const ItemId item : items) part.push_item(item);
        part.end_row();
      }
      span.count = block.size();
    }
    for (std::size_t j = 0; j < kPartitions; ++j) {
      Scope span(tracer, "engine.StreamingEngine::push_batch");
      engines[j]->push_batch(parts[j]);
      partition_rows[j] += parts[j].size();
      span.count = parts[j].size();
    }
    if (crosses(rows_through, block.size(), kObsSnapshotEvery)) {
      for (std::size_t j = 0; j < kPartitions; ++j) {
        const Scope span(tracer, "engine.StreamingEngine::snapshot");
        barrier[j] = engines[j]->snapshot();
        ++snapshots;
      }
      {
        const Scope span(tracer, "shard.merge_partition_snapshots");
        merged = merge_partition_snapshots(barrier);
      }
      write_prom();
    }
  }
  std::vector<RunReport> reports;
  for (std::size_t j = 0; j < kPartitions; ++j) {
    const Scope span(tracer, "engine.StreamingEngine::finish");
    reports.push_back(engines[j]->finish());
  }
  RunReport report;
  {
    const Scope span(tracer, "shard.merge_partition_reports");
    report = merge_partition_reports(reports);
  }
  write_prom();  // the CLI's exposition at exit

  out.total = report.total_cost;
  out.requests = rows_through;
  std::size_t epochs = 0;
  for (const auto& engine : engines) epochs = std::max(epochs, engine->epoch());
  const std::size_t max_rows =
      *std::max_element(partition_rows.begin(), partition_rows.end());
  out.counts["epochs"] = static_cast<double>(epochs);
  out.counts["state_alloc_events"] =
      static_cast<double>(merged.state_alloc_events);
  out.counts["snapshots"] = static_cast<double>(snapshots);
  out.counts["expositions"] = static_cast<double>(expositions);
  out.counts["partition_skew"] =
      rows_through == 0 ? 0.0
                        : static_cast<double>(max_rows) * kPartitions /
                              static_cast<double>(rows_through);
  return out;
}

/// `.dpt` load → Phase 1 (CorrelationAnalysis, greedy_pairing) → Phase 2
/// one flow at a time (solve_pair_package per package, make_item_flow +
/// solve_optimal_offline per single), summed in solve_dp_greedy's order.
Outcome replay_solve(const std::string& path, Tracer& tracer) {
  Outcome out;
  const Scope root(tracer, "replay");
  RequestSequence trace = [&] {
    Scope span(tracer, "trace.read_trace_auto");
    RequestSequence loaded = read_trace_auto(path);
    span.count = loaded.size();
    return loaded;
  }();
  const CostModel model = cli_model();
  const DpGreedyOptions options = cli_dp_greedy_options();
  Packing packing;
  std::size_t observed_pairs = 0;
  {
    std::unique_ptr<CorrelationAnalysis> analysis;
    {
      const Scope span(tracer, "solver.CorrelationAnalysis");
      analysis = std::make_unique<CorrelationAnalysis>(trace,
                                                       options.correlation);
    }
    observed_pairs = analysis->observed_pair_count();
    const Scope span(tracer, "solver.greedy_pairing");
    packing = greedy_pairing(*analysis, options.theta,
                             options.inclusive_threshold);
  }

  SolverWorkspace workspace;
  std::vector<Cost> package_costs;
  std::vector<Cost> single_costs;
  std::int64_t max_flow_ns = 0;
  std::int64_t phase2_ns = 0;
  for (const ItemPair& pair : packing.pairs) {
    const std::int64_t start = now_ns();
    {
      const Scope span(tracer, "solver.solve_pair_package");
      package_costs.push_back(
          solve_pair_package(trace, model, pair, options.dp, &workspace)
              .total_cost());
    }
    const std::int64_t took = now_ns() - start;
    max_flow_ns = std::max(max_flow_ns, took);
    phase2_ns += took;
  }
  for (const ItemId item : packing.singles) {
    const std::int64_t start = now_ns();
    Flow flow;
    {
      const Scope span(tracer, "core.make_item_flow");
      flow = make_item_flow(trace, item);
    }
    {
      const Scope span(tracer, "solver.solve_optimal_offline");
      single_costs.push_back(solve_optimal_offline(flow, model,
                                                   trace.server_count(),
                                                   options.dp, &workspace)
                                 .cost);
    }
    const std::int64_t took = now_ns() - start;
    max_flow_ns = std::max(max_flow_ns, took);
    phase2_ns += took;
  }
  // solve_dp_greedy's reduction order: packages, then singles.
  for (const Cost cost : package_costs) out.total += cost;
  for (const Cost cost : single_costs) out.total += cost;
  out.requests = trace.size();
  out.counts["observed_pairs"] = static_cast<double>(observed_pairs);
  out.counts["packages"] = static_cast<double>(packing.pairs.size());
  out.counts["phase2_max_flow_share"] =
      phase2_ns == 0 ? 0.0
                     : static_cast<double>(max_flow_ns) /
                           static_cast<double>(phase2_ns);
  return out;
}

Outcome replay(const std::string& workload, const std::string& path,
               const std::string& prom_path, Tracer& tracer) {
  if (workload == "serve_csv_1x1") return replay_serve_csv(path, tracer);
  if (workload == "serve_dpt_2x2_obs") {
    return replay_serve_sharded(path, prom_path, tracer);
  }
  if (workload == "solve_dpt") return replay_solve(path, tracer);
  throw InvalidArgument("unknown workload '" + workload + "'");
}

// ---------------------------------------------------------------------------
// Reference answers.

/// The 1×1 serve answer: one engine, push per row, CLI options.
RunReport reference_serve_1x1(const RequestSequence& trace) {
  StreamingEngine engine(cli_model(), cli_streaming_options());
  for (const Request& r : trace.requests()) {
    engine.push(r.server, r.time, r.items);
  }
  return engine.finish();
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int cmd_reference(const std::string& workload, const std::string& path) {
  const RequestSequence trace = read_trace_auto(path);
  double total = 0.0;
  double ave = 0.0;
  // cost_vs_1x1's denominator: the same job on one partition and one
  // thread.  For solve_dpt that is the serial solve, the reference itself.
  double single_total = 0.0;
  std::size_t requests = trace.size();
  if (workload == "serve_csv_1x1" || workload == "serve_dpt_2x2_obs") {
    const RunReport one_by_one = reference_serve_1x1(trace);
    total = single_total = one_by_one.total_cost;
    ave = one_by_one.ave_cost;
  }
  if (workload == "serve_dpt_2x2_obs") {
    // The sharded determinism contract: at fixed M the answer does not
    // depend on N, so 1 shard × 2 partitions is the reference for 2×2.
    ServeConfig config;
    config.shards(1).partitions(kPartitions).snapshot_every(0);
    config.validate();
    SequenceClaimSource source(trace, config.batch_rows);
    const ShardedServeResult result = run_sharded_serve(
        source, cli_model(), config, cli_streaming_options());
    if (!result.feed_error.empty()) throw IoError(result.feed_error);
    total = result.report.total_cost;
    ave = result.report.ave_cost;
    requests = result.stats.requests;
  } else if (workload == "solve_dpt") {
    const DpGreedyResult result =
        solve_dp_greedy(trace, cli_model(), cli_dp_greedy_options());
    total = single_total = result.total_cost;
    ave = result.ave_cost;
  } else if (workload != "serve_csv_1x1") {
    throw InvalidArgument("unknown workload '" + workload + "'");
  }
  std::printf(
      "{\"workload\": \"%s\", \"requests\": %zu, \"total\": \"%s\", "
      "\"ave\": \"%s\", \"total_exact\": %s, \"single_total\": \"%s\"}\n",
      workload.c_str(), requests, format_fixed(total, 2).c_str(),
      format_fixed(ave, 4).c_str(), json_number(total).c_str(),
      format_fixed(single_total, 2).c_str());
  return 0;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  return out + "]";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw IoError("cannot write " + path);
  std::fputs("id\tparent\tname\tstart_ns\tend_ns\tcount\n", file);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file, "%zu\t%" PRId32 "\t%s\t%" PRId64 "\t%" PRId64
                       "\t%" PRIu64 "\n",
                 i, s.parent, s.name, s.start_ns, s.end_ns, s.count);
  }
  std::fclose(file);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

int cmd_replay(const std::string& workload, const std::string& path,
               const std::string& spans_path, const std::string& prom_path) {
  const bool obs_on = workload == "serve_dpt_2x2_obs";
  // `serve --prom-out` turns telemetry recording on; no other workload does.
  obs::set_enabled(obs_on);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Outcome outcome;
  Outcome traced_outcome;
  std::vector<Span> spans;
  for (std::size_t r = 0; r < kReps; ++r) {
    {
      obs::reset_metrics();
      Tracer off(false);
      const std::int64_t start = now_ns();
      outcome = replay(workload, path, prom_path, off);
      untraced_s.push_back(seconds_since(start));
    }
    {
      obs::reset_metrics();
      Tracer on(true);
      const std::int64_t start = now_ns();
      traced_outcome = replay(workload, path, prom_path, on);
      traced_s.push_back(seconds_since(start));
      spans = on.spans();
    }
  }
  write_spans(spans_path, spans);

  std::map<std::string, double> counts = outcome.counts;
  counts["traced_total"] = traced_outcome.total;
  // The job the CLI runs, in process and from the trace file on: what
  // cli.overhead_ms subtracts from the CLI's wall time.  At 1×1 over CSV the
  // serial replay above is that job.
  std::vector<double> inproc_s;
  std::vector<double> enqueue_blocked;
  std::vector<double> dequeue_blocked;
  std::vector<double> batches;
  if (workload == "serve_csv_1x1") inproc_s = untraced_s;
  if (obs_on) {
    // Rendering alone, on the metrics the replay left behind: the exposition
    // spans above time render + write together.
    const obs::MetricsSnapshot metrics = obs::snapshot_metrics();
    constexpr int kRenders = 200;
    std::size_t bytes = 0;
    const std::int64_t start = now_ns();
    for (int i = 0; i < kRenders; ++i) bytes += obs::prometheus_text(metrics).size();
    counts["render_ns"] = static_cast<double>(now_ns() - start) / kRenders;
    counts["render_bytes"] = static_cast<double>(bytes / kRenders);

    // The concurrent 2×2 run: the ring counters and the in-process
    // throughput that the serial replay cannot show.
    ServeConfig config;
    config.shards(kShards).partitions(kPartitions)
        .snapshot_every(kObsSnapshotEvery).prom_out(prom_path);
    config.validate();
    for (std::size_t r = 0; r < kReps; ++r) {
      obs::reset_metrics();
      const std::int64_t t0 = now_ns();
      const RequestSequence trace = read_trace_auto(path);
      SequenceClaimSource source(trace, config.batch_rows);
      const ShardedServeResult result = run_sharded_serve(
          source, cli_model(), config, cli_streaming_options(),
          [&](const StreamingSnapshot&, std::size_t) {
            (void)obs::write_prometheus_file(prom_path,
                                             obs::snapshot_metrics());
          });
      (void)obs::write_prometheus_file(prom_path, obs::snapshot_metrics());
      inproc_s.push_back(seconds_since(t0));
      if (result.report.total_cost != outcome.total) {
        throw Error("run_sharded_serve total differs from the serial replay");
      }
      enqueue_blocked.push_back(
          static_cast<double>(result.stats.enqueue_blocked));
      dequeue_blocked.push_back(
          static_cast<double>(result.stats.dequeue_blocked));
      batches.push_back(static_cast<double>(result.stats.batches));
    }
  }
  obs::set_enabled(false);
  if (workload == "solve_dpt") {
    // `solve --solver dp_greedy --threads 2` through the solver registry.
    SolverConfig config;
    config.threads(kSolveThreads);
    for (std::size_t r = 0; r < kReps; ++r) {
      const std::int64_t t0 = now_ns();
      const RequestSequence trace = read_trace_auto(path);
      const RunReport report =
          builtin_registry().run("dp_greedy", trace, cli_model(), config);
      inproc_s.push_back(seconds_since(t0));
      if (report.total_cost != outcome.total) {
        throw Error("the registry's dp_greedy total differs from the replay");
      }
    }
  }

  std::printf("{\"workload\": \"%s\", \"requests\": %zu, \"total\": \"%s\", "
              "\"total_exact\": %s, \"untraced_s\": %s, \"traced_s\": %s, "
              "\"inproc_s\": %s, \"enqueue_blocked\": %s, "
              "\"dequeue_blocked\": %s, \"batches\": %s, \"counts\": {",
              workload.c_str(), outcome.requests,
              format_fixed(outcome.total, 2).c_str(),
              json_number(outcome.total).c_str(),
              json_list(untraced_s).c_str(), json_list(traced_s).c_str(),
              json_list(inproc_s).c_str(),
              json_list(enqueue_blocked).c_str(),
              json_list(dequeue_blocked).c_str(), json_list(batches).c_str());
  bool first = true;
  for (const auto& [name, value] : counts) {
    std::printf("%s\"%s\": %s", first ? "" : ", ", name.c_str(),
                json_number(value).c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

/// CPU brand string and the ISA extensions the kernels can use, read with
/// cpuid (x86) so the fingerprint needs no files from outside the checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model = brand;
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

std::string isa_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const auto add = [&flags](const char* name, bool has) {
    if (!has) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
  add("sse4.2", __builtin_cpu_supports("sse4.2") != 0);
  add("popcnt", __builtin_cpu_supports("popcnt") != 0);
  add("avx", __builtin_cpu_supports("avx") != 0);
  add("avx2", __builtin_cpu_supports("avx2") != 0);
  add("fma", __builtin_cpu_supports("fma") != 0);
  add("bmi2", __builtin_cpu_supports("bmi2") != 0);
  add("avx512f", __builtin_cpu_supports("avx512f") != 0);
  add("avx512bw", __builtin_cpu_supports("avx512bw") != 0);
  add("avx512vl", __builtin_cpu_supports("avx512vl") != 0);
#endif
  return flags;
}

int cmd_host() {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("{\"compiler\": \"%s\", \"compiler_version\": \"%s\", "
              "\"build_type\": \"%s\", \"ndebug\": %s, \"cpu_model\": \"%s\", "
              "\"isa\": \"%s\"}\n",
              compiler, __VERSION__, PERFBENCH_BUILD_TYPE,
              ndebug ? "true" : "false", cpu_model().c_str(),
              isa_flags().c_str());
  return 0;
}

int usage() {
  std::fputs(
      "usage: perfbench_replay reference <workload> <trace>\n"
      "       perfbench_replay replay <workload> <trace> <spans-out> "
      "<prom-out>\n"
      "       perfbench_replay host\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "host") return cmd_host();
    if (args.size() == 3 && args[0] == "reference") {
      return cmd_reference(args[1], args[2]);
    }
    if (args.size() == 5 && args[0] == "replay") {
      return cmd_replay(args[1], args[2], args[3], args[4]);
    }
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_replay: %s\n", error.what());
    return 1;
  }
}
