#!/usr/bin/env python3
"""perfbench — end-to-end and per-layer benchmark of the dpgreedy CLI.

    python3 perfbench/run.py --workload serve_csv_1x1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  It builds the CLI and the
benchmark's replay tool (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, generates the workload's trace from
--seed, and then:

  --trace 0  runs the CLI as a child process, over and over for --seconds,
             checks every run's output against an in-process reference, and
             reports the end-to-end metrics;
  --trace 1  replays the workload in-process through each layer's public
             functions with spans around every call, and reports per-layer
             busy times and counts.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the full record (host fingerprint, per-run details),
which is also appended to <build dir>/results.jsonl.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The one input every workload uses.
TRACE_ROWS = 1_000_000
GENERATE_ARGS = ["--kind", "zipf", "--servers", "64", "--items", "2000",
                 "--requests", str(TRACE_ROWS)]
SETUP_REPS = 3     # set-ups per benchmark run; setup_s is their median
MIN_CLI_RUNS = 5   # CLI runs per benchmark run, however short --seconds is

WORKLOADS = {
    "serve_csv_1x1": {
        "format": "csv",
        "cli": ["serve", "--trace", "{trace}", "--snapshot-every", "0"],
    },
    # Each snapshot rewrites the Prometheus file.  At serve's default of one
    # per 1000 rows, those file replacements on a shared VM disk set the run
    # time, so this workload snapshots every 10000 rows (see README.md).
    "serve_dpt_2x2_obs": {
        "format": "dpt",
        "cli": ["serve", "--trace", "{trace}", "--shards", "2",
                "--partitions", "2", "--snapshot-every", "10000",
                "--prom-out", "{work}/p.prom"],
    },
    "solve_dpt": {
        "format": "dpt",
        "cli": ["solve", "--trace", "{trace}", "--solver", "dp_greedy",
                "--threads", "2", "--format", "csv"],
    },
}


class BenchError(Exception):
    """A condition under which the benchmark records nothing."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def declared_metrics():
    """(end-to-end, per-layer) {name: unit} as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# Build and host.

def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    for needed in ("CMakeLists.txt", "src", "tools/dpgreedy_cli.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} is missing: run from the root "
                             "of a dpgreedy source checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # The compiler's temporary files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "dpgreedy", "perfbench_replay"],
                   check=True, stdout=sys.stderr, env=env)
    return out / "dpgreedy" / "tools" / "dpgreedy", out / "perfbench_replay"


def cache_build_type(out):
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def host_fingerprint(out, replay):
    info = json.loads(subprocess.run([str(replay), "host"], check=True,
                                     capture_output=True, text=True).stdout)
    info["cache_build_type"] = cache_build_type(out)
    if info["cache_build_type"] != "Release" or not info["ndebug"]:
        raise BenchError("refusing to record from a non-Release build "
                         f"({info['cache_build_type']!r})")
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_count"] = os.cpu_count()
    info["machine"] = platform.machine()
    info["python"] = platform.python_version()
    info["git_commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


# ---------------------------------------------------------------------------
# Set-up: the workload's input, built by the CLI from the seed.

def setup(cli, workload, seed, work):
    """Generates (and converts) the trace; returns its path and the wall
    time of the set-up."""
    csv = work / "trace.csv"
    dpt = work / "trace.dpt"
    to_dpt = WORKLOADS[workload]["format"] == "dpt"
    start = time.perf_counter()
    subprocess.run([str(cli), "generate", *GENERATE_ARGS, "--seed", str(seed),
                    "--out", str(csv)], check=True, stdout=subprocess.DEVNULL)
    if to_dpt:
        subprocess.run([str(cli), "convert", str(csv), str(dpt)], check=True,
                       stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    # Flush the new files now, so their write-back does not compete with the
    # measured runs (the flush is not part of set-up time).
    for path in (csv, dpt) if to_dpt else (csv,):
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())
    return (dpt if to_dpt else csv), wall


def reference(replay, workload, trace):
    result = subprocess.run([str(replay), "reference", workload, str(trace)],
                            check=True, capture_output=True, text=True)
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# CLI runs.

def cli_command(cli, workload, trace, work):
    return [str(cli)] + [arg.format(trace=trace, work=work)
                         for arg in WORKLOADS[workload]["cli"]]


def check_output(workload, lines, exit_code, ref):
    """(ok, parsed answer line or None) for one CLI run's stdout."""
    if workload == "solve_dpt":
        found = [l for l in lines if l.startswith("total ")]
        parsed = (benchlib.parse_solve_total_line(found[0])
                  if len(found) == 1 else None)
        snapshots_ok = True
    else:
        found = [l for l in lines if l.startswith("final ")]
        parsed = benchlib.parse_final_line(found[0]) if len(found) == 1 else None
        snapshots_ok = benchlib.snapshots_consistent(
            [l for l in lines if l.startswith("snapshot ")], parsed)
    ok = (exit_code == 0 and snapshots_ok
          and benchlib.output_matches(parsed, ref))
    return ok, parsed


def run_cli(cmd, workload, ref, work):
    """One CLI run replaying the trace file as fast as it can.  Its stdout
    comes back through a pipe, so the run writes no file of the benchmark's,
    and this process sleeps in read and wait4 while the child runs."""
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                output = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = output.decode("utf-8", errors="replace").splitlines()
    ok, parsed = check_output(workload, lines, proc.returncode, ref)
    return {"ok": ok, "exit": proc.returncode, "offered": ref["requests"],
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "total": parsed["total"] if parsed else None,
            "ave": parsed["ave"] if parsed else None}


def measure_cli(cli, workload, trace, work, ref, seconds, min_runs):
    cmd = cli_command(cli, workload, trace, work)
    runs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < min_runs:
        runs.append(run_cli(cmd, workload, ref, work))
    return runs


# ---------------------------------------------------------------------------
# Metrics.

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(runs, setup_walls, ref):
    good = [r for r in runs if r["ok"]]
    answer = good[0] if good else None  # ok answers are finite
    good = good or runs
    values = {
        "setup_s": statistics.median(setup_walls),
        # Rows per CPU-second of the child (user + system).  On a shared host
        # the wall time of the multi-threaded jobs swings with the
        # neighbours' load for tens of seconds at a time; their CPU time
        # moves far less (README.md, Steadiness).  Taken over the whole
        # window, since single runs fall into a fast and a slow group.  The
        # record keeps every run's wall and CPU time, and the traced run
        # reports the wall-clock rate as cli.rows_per_s.
        "rows_per_cpu_s": (sum(r["offered"] for r in good)
                           / sum(r["cpu_s"] for r in good)),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in good]),
        "ave_cost": float(answer["ave"]) if answer else 0.0,
        "cost_vs_1x1": (float(answer["total"]) / float(ref["single_total"])
                        if answer else 0.0),
    }
    return {name: metric(values[name], unit)
            for name, unit in declared_metrics()[0].items()}


def per_layer_metrics(replay_out, spans, cli_runs, trace_bytes):
    layers = benchlib.layer_summary(spans)
    counts = replay_out["counts"]

    def self_ns(name):
        return layers.get(name, {}).get("self_ns", 0)

    def total_ms(name):
        return layers.get(name, {}).get("total_ns", 0) / 1e6

    def per_row(*names):
        rows = sum(layers.get(n, {}).get("count", 0) for n in names)
        return sum(self_ns(n) for n in names) / rows if rows else 0.0

    def mean_us(name):
        entry = layers.get(name)
        return entry["total_ns"] / entry["calls"] / 1e3 if entry else 0.0

    def median_of(key):
        return statistics.median(replay_out[key]) if replay_out[key] else 0.0

    snapshot_us = [d / 1e3 for d in
                   layers.get("engine.StreamingEngine::snapshot", {})
                   .get("durations_ns", [])] or [0.0]
    kblocks = median_of("batches") / 1000.0
    csv_decode_ns = self_ns("trace.CsvStreamReader::next")
    untraced = statistics.median(replay_out["untraced_s"])
    traced = statistics.median(replay_out["traced_s"])
    inproc = statistics.median(replay_out["inproc_s"])
    values = {
        "trace.csv_decode_ns_per_row": per_row("trace.CsvStreamReader::next"),
        "trace.csv_mib_s": (trace_bytes / 2**20 / (csv_decode_ns / 1e9)
                            if csv_decode_ns else 0.0),
        "trace.seq_claim_ns_per_row": per_row("trace.SequenceClaimSource::claim"),
        "trace.dpt_open_ms": total_ms("trace.read_trace_auto"),
        "engine.push_ns_per_row": per_row("engine.StreamingEngine::push",
                                          "engine.StreamingEngine::push_batch"),
        "engine.epochs": counts.get("epochs", 0.0),
        "engine.state_alloc_events": counts.get("state_alloc_events", 0.0),
        "engine.snapshot_us_p50": statistics.median(snapshot_us),
        "engine.snapshot_us_p99": benchlib.nearest_rank(snapshot_us, 99),
        "engine.snapshots": counts.get("snapshots", 0.0),
        "engine.finish_ms": total_ms("engine.StreamingEngine::finish"),
        "shard.route_ns_per_row": per_row("shard.serve_partition_of"),
        "shard.partition_skew": counts.get("partition_skew", 0.0),
        "shard.merge_us": mean_us("shard.merge_partition_snapshots"),
        "shard.inproc_rows_per_s": (
            replay_out["requests"] / inproc
            if replay_out["workload"] == "serve_dpt_2x2_obs" else 0.0),
        "ring.enqueue_blocked_per_kblock": (median_of("enqueue_blocked") / kblocks
                                            if kblocks else 0.0),
        "ring.dequeue_blocked_per_kblock": (median_of("dequeue_blocked") / kblocks
                                            if kblocks else 0.0),
        "obs.render_us": counts.get("render_ns", 0.0) / 1e3,
        "obs.write_us": mean_us("obs.write_prometheus_file"),
        "obs.expositions": counts.get("expositions", 0.0),
        "solver.phase1_ms": (self_ns("solver.CorrelationAnalysis")
                             + self_ns("solver.greedy_pairing")) / 1e6,
        "solver.observed_pairs": counts.get("observed_pairs", 0.0),
        "solver.packages": counts.get("packages", 0.0),
        "solver.phase2_ms": sum(self_ns(n) for n in (
            "solver.solve_pair_package", "core.make_item_flow",
            "solver.solve_optimal_offline")) / 1e6,
        "solver.phase2_max_flow_share": counts.get("phase2_max_flow_share", 0.0),
        "cli.overhead_ms": (statistics.median([r["wall_s"] for r in cli_runs])
                            - inproc) * 1e3,
        "cli.rows_per_s": (sum(r["offered"] for r in cli_runs)
                           / sum(r["wall_s"] for r in cli_runs)),
        "trace.unaccounted_pct": benchlib.unaccounted_pct(spans),
        "tracing_overhead_pct": 100.0 * (traced - untraced) / untraced,
    }
    return {name: metric(values[name], unit)
            for name, unit in declared_metrics()[1].items()}


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = build_dir()
    work = out / "work" / f"{args.workload}-seed{args.seed}"
    try:
        cli, replay = build(out)
        host = host_fingerprint(out, replay)
        work.mkdir(parents=True, exist_ok=True)
        trace, setup_wall = setup(cli, args.workload, args.seed, work)
        ref = reference(replay, args.workload, trace)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "host": host,
                  "rows": TRACE_ROWS, "reference": ref}

        if args.trace == 0:
            runs = measure_cli(cli, args.workload, trace, work, ref,
                               args.seconds, MIN_CLI_RUNS)
            correct = True
        else:
            runs = measure_cli(cli, args.workload, trace, work, ref,
                               args.seconds / 2, 3)
            spans_path = work / "spans.tsv"
            result = subprocess.run(
                [str(replay), "replay", args.workload, str(trace),
                 str(spans_path), str(work / "replay.prom")],
                check=True, capture_output=True, text=True)
            replay_out = json.loads(result.stdout)
            spans = benchlib.read_spans(spans_path)
            metrics = per_layer_metrics(replay_out, spans, runs,
                                        trace.stat().st_size)
            # The serial replays, traced and untraced, must reach the
            # reference answer bit for bit (for solve_dpt: the per-flow sum
            # equals solve_dp_greedy's total).
            correct = (replay_out["total_exact"] == ref["total_exact"]
                       == replay_out["counts"]["traced_total"])
            record["replay"] = replay_out
            record["spans"] = str(spans_path)

        # The remaining set-ups run after the measurement, so that their
        # file writes do not overlap it.
        setup_walls = [setup_wall] + [
            setup(cli, args.workload, args.seed, work)[1]
            for _ in range(SETUP_REPS - 1)]
        if args.trace == 0:
            metrics = end_to_end_metrics(runs, setup_walls, ref)
        attempted, failed = benchlib.account(runs)
        correct = correct and failed == 0
        record["setup_s"] = setup_walls
        record["runs"] = runs
        record["error_rate"] = benchlib.error_rate(runs)
        record["metrics"] = metrics
        line = json.dumps(record)
        with open(out / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        print(line)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError,
            ValueError) as error:
        log(f"error: {error}")
        return 1
    finally:
        # The traces are made again by every run; only the spans stay.
        for name in ("trace.csv", "trace.dpt"):
            (work / name).unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
