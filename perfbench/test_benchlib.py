"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import tempfile
import unittest
from pathlib import Path

import benchlib
import run

FINAL = ("final requests=1000000 total=927404393.72 ave=618.4679 "
         "transfers=1390738 packs=228117 unpacks=228053 ratio=0.000 chunks=0")
SNAPSHOT = ("snapshot requests=5000 epoch=100 packages=12 items=800 "
            "total=1234.50 ave=0.2469 delta=1234.50 ratio=0.000 allocs=7")
SOLVE = "total 794453812.39 over 1499519 item accesses — ave_cost 529.8058"
REF = {"requests": 1000000, "total": "927404393.72"}


class ParserTest(unittest.TestCase):
    def test_final_line(self):
        parsed = benchlib.parse_final_line(FINAL + "\n")
        self.assertEqual(parsed["requests"], 1000000)
        self.assertEqual(parsed["total"], "927404393.72")
        self.assertEqual(parsed["ave"], "618.4679")
        self.assertTrue(benchlib.output_matches(parsed, REF))

    def test_truncated_final_line(self):
        for cut in (len(FINAL) - 9, 40, 20, 6):
            self.assertIsNone(benchlib.parse_final_line(FINAL[:cut]), cut)
        self.assertIsNone(benchlib.parse_final_line("final requests=1 total="))
        self.assertFalse(benchlib.output_matches(None, REF))

    def test_final_line_with_inf_total(self):
        line = FINAL.replace("total=927404393.72", "total=inf")
        parsed = benchlib.parse_final_line(line)
        self.assertIsNotNone(parsed)
        self.assertTrue(math.isinf(float(parsed["total"])))
        self.assertFalse(benchlib.output_matches(parsed, REF))
        self.assertFalse(benchlib.output_matches(
            parsed, {"requests": 1000000, "total": "inf"}))

    def test_final_line_mismatch(self):
        parsed = benchlib.parse_final_line(
            FINAL.replace("total=927404393.72", "total=927404393.73"))
        self.assertFalse(benchlib.output_matches(parsed, REF))
        parsed = benchlib.parse_final_line(
            FINAL.replace("requests=1000000", "requests=999999"))
        self.assertFalse(benchlib.output_matches(parsed, REF))

    def test_snapshot_line(self):
        parsed = benchlib.parse_snapshot_line(SNAPSHOT)
        self.assertEqual(parsed["requests"], 5000)
        self.assertEqual(parsed["allocs"], "7")
        self.assertIsNone(benchlib.parse_snapshot_line(SNAPSHOT[:30]))
        self.assertIsNone(benchlib.parse_snapshot_line(
            SNAPSHOT.replace("requests=5000", "requests=5e3")))
        self.assertIsNone(benchlib.parse_snapshot_line(FINAL))
        inf = benchlib.parse_snapshot_line(SNAPSHOT.replace(
            "total=1234.50", "total=inf"))
        self.assertTrue(math.isinf(float(inf["total"])))

    def test_snapshots_consistent(self):
        final = benchlib.parse_final_line(
            "final requests=10000 total=1234.50 ave=0.2469 transfers=1 "
            "packs=1 unpacks=0 ratio=0.000 chunks=0")
        last = SNAPSHOT.replace("requests=5000", "requests=10000")
        self.assertTrue(benchlib.snapshots_consistent([SNAPSHOT, last], final))
        self.assertTrue(benchlib.snapshots_consistent([], final))
        self.assertFalse(benchlib.snapshots_consistent([SNAPSHOT], None))
        # Truncated, out of order, past the end, or a last total that
        # disagrees with the final line.
        self.assertFalse(benchlib.snapshots_consistent([SNAPSHOT[:40]], final))
        self.assertFalse(benchlib.snapshots_consistent([last, SNAPSHOT], final))
        self.assertFalse(benchlib.snapshots_consistent(
            [SNAPSHOT.replace("requests=5000", "requests=10001")], final))
        self.assertFalse(benchlib.snapshots_consistent(
            [last.replace("total=1234.50", "total=1234.51")], final))

    def test_solve_total_line(self):
        parsed = benchlib.parse_solve_total_line(SOLVE)
        self.assertEqual(parsed, {"total": "794453812.39", "ave": "529.8058",
                                  "accesses": 1499519})
        self.assertTrue(benchlib.output_matches(
            parsed, {"requests": 1000000, "total": "794453812.39"}))
        self.assertIsNone(benchlib.parse_solve_total_line(SOLVE[:25]))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 50), 50)
        self.assertEqual(benchlib.nearest_rank(values, 99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 100), 100)
        self.assertEqual(benchlib.nearest_rank([7], 99), 7)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 50), 2)
        self.assertEqual(benchlib.nearest_rank(list(range(10000)), 99.9), 9989)


class SpanTest(unittest.TestCase):
    # root [0, 100]
    #   a [10, 40]
    #     a1 [20, 30]
    #   b [50, 90]
    #     b1 [55, 70]   b2 [60, 80]   (overlap: union [55, 80])
    #   c [95, 120]     (runs past its parent: clipped to [95, 100])
    SPANS = [
        (0, -1, "replay", 0, 100, 0),
        (1, 0, "trace.a", 10, 40, 4),
        (2, 1, "engine.a1", 20, 30, 0),
        (3, 0, "trace.b", 50, 90, 6),
        (4, 3, "engine.b1", 55, 70, 0),
        (5, 3, "engine.b2", 60, 80, 0),
        (6, 0, "trace.c", 95, 120, 0),
    ]

    def test_self_times(self):
        own = benchlib.self_times(self.SPANS)
        self.assertEqual(own[0], 100 - 30 - 40 - 5)
        self.assertEqual(own[1], 30 - 10)
        self.assertEqual(own[2], 10)
        self.assertEqual(own[3], 40 - 25)
        self.assertEqual(own[4], 15)
        self.assertEqual(own[5], 20)
        self.assertEqual(own[6], 25)

    def test_layer_summary(self):
        summary = benchlib.layer_summary(self.SPANS)
        self.assertEqual(summary["trace.a"]["self_ns"], 20)
        self.assertEqual(summary["trace.a"]["count"], 4)
        self.assertEqual(summary["engine.b2"]["durations_ns"], [20])

    def test_unaccounted_serial_tree(self):
        serial = [(0, -1, "replay", 0, 100, 0),
                  (1, 0, "trace.a", 10, 40, 0),
                  (2, 1, "engine.a1", 20, 30, 0),
                  (3, 0, "trace.b", 50, 90, 0)]
        # Layers cover 30 + 40 of the 100 ns wall.
        self.assertAlmostEqual(benchlib.unaccounted_pct(serial), 30.0)

    def test_read_spans_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.tsv"
            path.write_text("id\tparent\tname\tstart_ns\tend_ns\tcount\n" + "".join(
                "\t".join(map(str, s)) + "\n" for s in self.SPANS))
            self.assertEqual(benchlib.read_spans(path), self.SPANS)


class AccountingTest(unittest.TestCase):
    def test_account(self):
        runs = [{"offered": 100, "ok": True},
                {"offered": 50, "ok": True},
                {"offered": 100, "ok": False}]
        self.assertEqual(benchlib.account(runs), (250, 100))
        self.assertEqual(benchlib.error_rate(runs), 0.4)

    def test_forced_reference_mismatch_fails_the_whole_run(self):
        # A child whose final line disagrees with the reference: every row it
        # was offered counts as failed, although it claims to serve them all.
        line = FINAL.replace("total=927404393.72", "total=1.00")
        with tempfile.TemporaryDirectory() as tmp:
            result = run.run_cli(["/bin/sh", "-c", f"echo '{line}'"],
                                 "serve_csv_1x1", REF, Path(tmp))
            self.assertFalse(result["ok"])
            self.assertEqual(benchlib.error_rate([result]), 1.0)
            good = run.run_cli(["/bin/sh", "-c", f"echo '{FINAL}'"],
                               "serve_csv_1x1", REF, Path(tmp))
            self.assertTrue(good["ok"])
            self.assertEqual(benchlib.error_rate([good]), 0.0)

    def test_nonzero_exit_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            result = run.run_cli(["/bin/sh", "-c", f"echo '{FINAL}'; exit 1"],
                                 "serve_csv_1x1", REF, Path(tmp))
            self.assertFalse(result["ok"])
            self.assertEqual(benchlib.error_rate([result]), 1.0)


if __name__ == "__main__":
    unittest.main()
