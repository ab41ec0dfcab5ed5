"""Pure helpers of the perfbench benchmark: output parsers, percentiles,
span self-time arithmetic and failure accounting.  run.py drives the
programs; everything here is deterministic and covered by test_benchlib.py.
"""

import math

# ---------------------------------------------------------------------------
# Output parsers.  Each returns None for a line it cannot read completely, so
# a truncated or garbled line fails the run's output check instead of
# crashing the benchmark.

FINAL_KEYS = ("requests", "total", "ave", "transfers", "packs", "unpacks",
              "ratio", "chunks")
SNAPSHOT_KEYS = ("requests", "epoch", "packages", "items", "total", "ave",
                 "delta", "ratio", "allocs")


def _parse_fields(line, prefix, keys):
    """Parses `<prefix> k=v k=v ...` holding exactly `keys` in order."""
    line = line.rstrip("\r\n")
    if not line.startswith(prefix + " "):
        return None
    fields = line[len(prefix) + 1:].split(" ")
    if len(fields) != len(keys):
        return None
    out = {}
    for field, key in zip(fields, keys):
        name, sep, value = field.partition("=")
        if name != key or not sep or not value:
            return None
        out[key] = value
    try:
        out["requests"] = int(out["requests"])
        float(out["total"])
        float(out["ave"])
    except ValueError:
        return None
    return out


def parse_final_line(line):
    """`final requests=N total=T ave=A ...` (serve) -> dict of the fields.

    requests is an int; total and ave stay strings, exactly as printed, so
    they can be compared digit for digit with the reference."""
    return _parse_fields(line, "final", FINAL_KEYS)


def parse_snapshot_line(line):
    """`snapshot requests=N epoch=E ...` (serve) -> dict of the fields."""
    return _parse_fields(line, "snapshot", SNAPSHOT_KEYS)


def parse_solve_total_line(line):
    """`total T over N item accesses — ave_cost A` (solve) -> dict with
    total and ave as printed strings and accesses as an int."""
    fields = line.rstrip("\r\n").split(" ")
    if (len(fields) != 9 or fields[0] != "total" or fields[2] != "over"
            or fields[4:6] != ["item", "accesses"]
            or fields[7] != "ave_cost"):
        return None
    try:
        float(fields[1])
        float(fields[8])
        accesses = int(fields[3])
    except ValueError:
        return None
    return {"total": fields[1], "ave": fields[8], "accesses": accesses}


def output_matches(parsed, reference):
    """True when a parsed final/total line carries the reference answer:
    the same request count (serve only) and the same printed total, and a
    finite cost."""
    if parsed is None:
        return False
    if "requests" in parsed and parsed["requests"] != reference["requests"]:
        return False
    if not math.isfinite(float(parsed["total"])):
        return False
    if not math.isfinite(float(parsed["ave"])):
        return False
    return parsed["total"] == reference["total"]


def snapshots_consistent(lines, final):
    """True when every `snapshot` line parses, their request counts rise
    strictly and stay within the final line's, and a snapshot that covers
    every request carries the final total."""
    if final is None:
        return False
    previous = 0
    for line in lines:
        snap = parse_snapshot_line(line)
        if snap is None or not previous < snap["requests"] <= final["requests"]:
            return False
        previous = snap["requests"]
        if snap["requests"] == final["requests"] and snap["total"] != final["total"]:
            return False
    return True


# ---------------------------------------------------------------------------
# Percentiles.

def nearest_rank(values, pct):
    """The nearest-rank pct-th percentile (pct in (0, 100]; the epsilon
    keeps 99.9% of 10000 at rank 9990 despite binary rounding)."""
    rank = max(1, math.ceil(pct * len(values) / 100.0 - 1e-9))
    return sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# Spans: (id, parent, name, start_ns, end_ns, count) rows as written by
# perfbench_replay.  Parent -1 marks a root.

def read_spans(path):
    spans = []
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != ["id", "parent", "name", "start_ns", "end_ns", "count"]:
            raise ValueError(f"{path}: not a span file")
        for line in handle:
            sid, parent, name, start, end, count = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end),
                          int(count)))
    return spans


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    covered = 0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans):
    """Each span's self time: its duration minus the part of its interval
    that its child spans cover.  Returns {span id: self_ns}."""
    children = {}
    for sid, parent, _name, start, end, _count in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _parent, _name, start, end, _count in spans}


def layer_summary(spans):
    """Aggregates spans by name: {name: {"calls", "self_ns", "total_ns",
    "count", "durations_ns"}}."""
    own = self_times(spans)
    summary = {}
    for sid, _parent, name, start, end, count in spans:
        entry = summary.setdefault(name, {"calls": 0, "self_ns": 0,
                                          "total_ns": 0, "count": 0,
                                          "durations_ns": []})
        entry["calls"] += 1
        entry["self_ns"] += own[sid]
        entry["total_ns"] += end - start
        entry["count"] += count
        entry["durations_ns"].append(end - start)
    return summary


def unaccounted_pct(spans, root="replay"):
    """Traced wall (the root span) minus the sum of every layer span's self
    time, as a percentage of the traced wall."""
    own = self_times(spans)
    roots = [s for s in spans if s[2] == root and s[1] == -1]
    if len(roots) != 1:
        raise ValueError(f"expected one '{root}' root span, got {len(roots)}")
    wall = roots[0][4] - roots[0][3]
    layers = sum(own[s[0]] for s in spans if s[0] != roots[0][0])
    return 100.0 * (wall - layers) / wall if wall > 0 else 0.0


# ---------------------------------------------------------------------------
# Failure accounting.

def account(runs):
    """(attempted, failed) rows over runs of {"offered", "ok"}.

    A run that exited nonzero or failed its output check (which includes
    serving fewer rows than it was offered) counts all of its rows as
    failed."""
    attempted = sum(run["offered"] for run in runs)
    failed = sum(run["offered"] for run in runs if not run["ok"])
    return attempted, failed


def error_rate(runs):
    attempted, failed = account(runs)
    return failed / attempted if attempted else 1.0
