#include "harness/scenario.hpp"

namespace dpg::bench {

Json gate_abs(std::string path, std::string op, double value) {
  Json gate = Json::object();
  gate.set("path", Json::string(std::move(path)));
  gate.set("op", Json::string(std::move(op)));
  gate.set("value", Json::number(value));
  return gate;
}

Json gate_flag(std::string path, bool value) {
  Json gate = Json::object();
  gate.set("path", Json::string(std::move(path)));
  gate.set("op", Json::string("=="));
  gate.set("value", Json::boolean(value));
  return gate;
}

Json gate_vs_baseline(std::string path, std::string op, double slack_pct) {
  Json gate = Json::object();
  gate.set("path", Json::string(std::move(path)));
  gate.set("op", Json::string(std::move(op)));
  gate.set("baseline", Json::boolean(true));
  if (slack_pct > 0.0) gate.set("slack_pct", Json::number(slack_pct));
  return gate;
}

Json with_skip_if(Json gate, std::string path, Json equals) {
  Json condition = Json::object();
  condition.set("path", Json::string(std::move(path)));
  condition.set("equals", std::move(equals));
  gate.set("skip_if", std::move(condition));
  return gate;
}

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec>* registry = [] {
    auto* scenarios = new std::vector<ScenarioSpec>();

    // -----------------------------------------------------------------
    // core_solvers (bm_phase1): Phase-1 dense-vs-sparse, Phase-2 workspace
    // reuse, per-registry-solver end-to-end, telemetry overhead.
    {
      ScenarioSpec s;
      s.name = "core_solvers";
      s.binary = "bm_phase1";
      s.description =
          "Phase-1 correlation, Phase-2 workspace, registry solvers, "
          "telemetry overhead";
      s.quick = true;

      SectionSpec phase1;
      phase1.key = "phase1_dense_vs_sparse";
      phase1.thresholds = {
          // PR 1's floor: the sparse path must stay >= 3x dense at every k.
          gate_abs("rows[*].speedup", ">=", 3.0),
          gate_flag("rows[*].packing_identical", true),
          // RSS cap: ~4x the recorded 113 MiB peak of the whole binary.
          gate_abs("peak_rss_bytes", "<=", 450e6),
      };
      phase1.headlines = {"rows[2].k", "rows[2].speedup", "peak_rss_bytes"};
      s.sections.push_back(std::move(phase1));

      SectionSpec phase2;
      phase2.key = "phase2_workspace";
      phase2.thresholds = {
          // The zero-allocation steady state is the whole point of the
          // SolverWorkspace; any nonzero count is a regression.
          gate_abs("workspace_allocs_per_solve", "<=", 0.0),
          gate_flag("costs_identical", true),
      };
      phase2.headlines = {"solves", "workspace_ms",
                          "workspace_allocs_per_solve"};
      s.sections.push_back(std::move(phase2));

      SectionSpec registry_section;
      registry_section.key = "registry_solvers";
      registry_section.thresholds = {
          // Deterministic workload (fixed seed): every solver's cost must be
          // bit-identical to the committed baseline, and steady-state alloc
          // counts must not creep (10% slack absorbs libstdc++ drift).
          gate_vs_baseline("rows[*].total_cost", "==", 0.0),
          gate_vs_baseline("rows[*].allocs", "<=", 10.0),
      };
      registry_section.headlines = {"rows[1].solver", "rows[1].solve_ms",
                                    "rows[1].allocs"};
      s.sections.push_back(std::move(registry_section));

      SectionSpec telemetry;
      telemetry.key = "telemetry_overhead";
      telemetry.thresholds = {
          // Declared ceilings on the dp_greedy end-to-end overhead of
          // enabled telemetry, measured on a workload big enough (~1 ms
          // solves) that best-of-N is stable.  Counters alone must stay
          // cheap; counters + spans + the per-run snapshot delta may cost
          // more but is capped too.
          gate_abs("counters_overhead_pct", "<=", 15.0),
          gate_abs("full_overhead_pct", "<=", 30.0),
          gate_flag("cost_identical", true),
      };
      telemetry.headlines = {"dp_greedy_off_ms", "counters_overhead_pct",
                             "full_overhead_pct"};
      s.sections.push_back(std::move(telemetry));

      scenarios->push_back(std::move(s));
    }

    // -----------------------------------------------------------------
    // dp_kernel (bm_solvers): SIMD DP kernels vs scalar reference.
    {
      ScenarioSpec s;
      s.name = "dp_kernel";
      s.binary = "bm_solvers";
      s.description = "branch-light SIMD DP kernels vs the scalar reference";
      s.quick = true;

      SectionSpec kernel;
      kernel.key = "dp_kernel";
      kernel.thresholds = {
          gate_flag("bit_identical", true),
          // The fused w/W + window-min pipeline must hold >= 2x wherever a
          // SIMD variant compiled; on scalar-only hosts the gate is skipped
          // (bit-identity above still binds).
          with_skip_if(gate_abs("pipeline.speedup", ">=", 2.0), "isa",
                       Json::string("scalar")),
      };
      kernel.headlines = {"isa", "pipeline.speedup", "w_and_prefix.speedup"};
      s.sections.push_back(std::move(kernel));

      scenarios->push_back(std::move(s));
    }

    // -----------------------------------------------------------------
    // streaming (bm_stream): StreamingEngine ingest + ratio probe.  The
    // quick tier pushes 1M requests, nightly the full 10M; every gate here
    // is size-independent by construction (no baseline-relative gates).
    {
      ScenarioSpec s;
      s.name = "streaming";
      s.binary = "bm_stream";
      s.description = "StreamingEngine sustained ingest + O(window) ceiling";
      s.quick = true;
      s.quick_args = "--requests 1000000";
      s.nightly_args = "--requests 10000000";

      SectionSpec streaming;
      streaming.key = "streaming";
      streaming.thresholds = {
          // O(window) steady state: allocation events bit-flat from the
          // warm-up mark to the end of the stream.
          gate_flag("allocs_flat", true),
          // The ratio probe must have produced a live estimate.
          gate_abs("ratio_probe.probe_chunks", ">=", 1.0),
          // Snapshot latency under load (measured 6 us; CI-safe cap).
          gate_abs("snapshot_max_ms", "<=", 25.0),
          // RSS cap: the engine is O(window + items), not O(n).
          gate_abs("peak_rss_bytes", "<=", 256e6),
      };
      streaming.headlines = {"requests", "requests_per_s", "allocs_final",
                             "ratio_probe.cost_ratio"};
      s.sections.push_back(std::move(streaming));

      SectionSpec sharded;
      sharded.key = "streaming_sharded";
      sharded.thresholds = {
          // The 1×1 serve run (inline: claim → push_batch, no threads) must
          // reproduce the serial per-push loop's final report bit-exactly —
          // the contract push_batch is built on.
          gate_flag("one_by_one.bit_identical", true),
          // Same O(window) ceiling through the 1×1 serve run: engine
          // allocation events bit-flat from warm-up to end of stream.
          gate_flag("one_by_one.allocs_flat", true),
          // M = 1 determinism anchor: a 2-shard, 1-partition run must
          // reproduce the 1×1 run's final report bit-exactly.
          gate_flag("bit_identical", true),
          // M = 2 anchor: the 2×2 by-item-set run must reproduce the
          // serial routed two-engine reference (the canonical partitioned
          // answer) bit-exactly, independent of thread schedule.
          gate_flag("partitioned_identical", true),
          // O(window) ceiling per partition: the merged allocation count
          // is bit-flat from warm-up to end of stream.
          gate_flag("allocs_flat", true),
          // The throughput floor: two decode shards + two engine
          // partitions must at least double the serial per-push loop.
          // `speedup` is the ratio of the median times of five alternating
          // runs of each side (speedup_min/max hold the per-pair spread),
          // so one burst of host load cannot decide it.
          // Below four hardware threads the topology cannot pay for its
          // own threads, so the gate is skipped (both identity rows above
          // still bind).
          with_skip_if(gate_abs("speedup", ">=", 2.0), "multicore",
                       Json::boolean(false)),
      };
      sharded.headlines = {"speedup", "sharded_requests_per_s",
                           "one_by_one.requests_per_s", "enqueue_blocked",
                           "dequeue_blocked"};
      s.sections.push_back(std::move(sharded));

      scenarios->push_back(std::move(s));
    }

    // -----------------------------------------------------------------
    // trace_io (bm_trace): CSV parser, CSR build, file IO, 1M e2e and the
    // .dpt binary format.  Nightly tier only — the workloads are fixed at
    // 1M requests.
    {
      ScenarioSpec s;
      s.name = "trace_io";
      s.binary = "bm_trace";
      s.description = "streaming CSV parser, CSR build, .dpt binary format";
      s.quick = false;

      SectionSpec trace_io;
      trace_io.key = "trace_io";
      trace_io.thresholds = {
          gate_abs("csv_parse.speedup", ">=", 4.0),
          gate_abs("csv_parse.streaming_allocs", "<=", 16.0),
          gate_flag("csv_parse.sequences_identical", true),
          // O(1) CSR build: the alloc count must not scale with n (both
          // recorded sizes build with the same small constant).
          gate_abs("csr_build[*].build_allocs", "<=", 4.0),
          gate_flag("million_request_e2e.roundtrip_identical", true),
          gate_flag("million_request_e2e.threads8_identical", true),
          gate_abs("peak_rss_bytes", "<=", 1000e6),
      };
      trace_io.headlines = {"csv_parse.speedup", "csv_parse.streaming_mib_s",
                            "million_request_e2e.dp_greedy_solve_s"};
      s.sections.push_back(std::move(trace_io));

      SectionSpec binary_io;
      binary_io.key = "binary_io";
      binary_io.thresholds = {
          // The PR 6 acceptance: zero-copy open of a 1M-request trace under
          // 10 ms with checksums on, borrowing the mapping, bit-exact.
          gate_abs("open_map_ms", "<=", 10.0),
          gate_flag("map_borrows", true),
          gate_flag("roundtrip_identical", true),
          gate_abs("map_vs_read_speedup", ">=", 2.0),
      };
      binary_io.headlines = {"open_map_ms", "map_vs_csv_speedup",
                             "dpt_bytes"};
      s.sections.push_back(std::move(binary_io));

      scenarios->push_back(std::move(s));
    }

    return scenarios;
  }();
  return *registry;
}

}  // namespace dpg::bench
