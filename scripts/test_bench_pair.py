#!/usr/bin/env python3
"""Unit tests for scripts/bench_pair.py on canned run.py outputs.

    python3 scripts/test_bench_pair.py
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pair  # noqa: E402

METRICS = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
]


def output(p50, ops, digest="0xe94c5448241851aa", correct=True, failed=0, attempted=2600):
    """What run.py prints for one untraced accel_conv run, trimmed."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"op_ms_p50": {"value": p50, "unit": "ms"},
                    "ops_per_s": {"value": ops, "unit": "1/s"}},
    }
    return "\n".join([
        f"metric op_ms_p50 {p50} ms (base: {attempted} ops)",
        "check outputs_agree ok",
        f"digest accel_conv {digest}",
        json.dumps(result),
    ])


def cells(line):
    """A table row's cells: columns are padded apart by two or more spaces."""
    return re.split(r"\s{2,}", line)


class Quartiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        # Ten serve_storm op_ms_p50 runs of one side, in run order.
        runs = [44.47, 44.82, 43.82, 44.36, 43.90, 44.88, 44.36, 43.83, 45.22, 43.29]
        q1, median, q3 = bench_pair.quartiles(runs)
        self.assertAlmostEqual(median, 44.36)
        self.assertAlmostEqual(q1, 43.8475)
        self.assertAlmostEqual(q3, 44.7325)

    def test_small_samples(self):
        self.assertEqual(bench_pair.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(bench_pair.quartiles([4.0, 2.0]), (2.5, 3.0, 3.5))
        self.assertEqual(bench_pair.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        with self.assertRaises(ValueError):
            bench_pair.quartiles([])


class Wins(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertEqual(bench_pair.wins([10, 10, 10, 10], [9, 11, 10, 8], "lower"), 2)

    def test_higher_is_better(self):
        self.assertEqual(bench_pair.wins([10, 10, 10, 10], [9, 11, 10, 12], "higher"), 2)

    def test_ties_count_for_neither(self):
        for better in ("lower", "higher"):
            self.assertEqual(bench_pair.wins([5, 5], [5, 5], better), 0)

    def test_unknown_direction(self):
        with self.assertRaises(ValueError):
            bench_pair.wins([1], [2], "sideways")


class Summary(unittest.TestCase):
    def runs(self, **change_kw):
        parent = [bench_pair.parse_run(output(11.0 + i / 10, 90.0)) for i in range(3)]
        change = [bench_pair.parse_run(output(9.5 + i / 10, 100.0 - i, **change_kw))
                  for i in range(3)]
        return {"parent": parent, "change": change}

    def test_clean_runs_print_the_table(self):
        lines, problems = bench_pair.summarize("accel_conv", METRICS, self.runs())
        self.assertEqual(problems, [])
        self.assertEqual(cells(lines[0]), ["metric", "parent median [q1, q3]",
                                           "change median [q1, q3]", "Δ", "wins"])
        # The change wins every pair of both metrics, each in its direction.
        self.assertEqual(cells(lines[1]), ["op_ms_p50 (ms, lower)", "11.1 [11.05, 11.15]",
                                           "9.6 [9.55, 9.65]", "-13.5%", "3/3"])
        self.assertEqual(cells(lines[2]), ["ops_per_s (1/s, higher)", "90 [90, 90]",
                                           "99 [98.5, 99.5]", "+10.0%", "3/3"])
        text = "\n".join(lines)
        self.assertIn("op_ms_p50    parent   11 11.1 11.2", text)
        self.assertIn("attempted    change   2600 2600 2600", text)
        self.assertIn("digests: parent 0xe94c5448241851aa; change 0xe94c5448241851aa (match)",
                      text)

    def test_an_incorrect_run_is_refused(self):
        runs = self.runs()
        runs["change"][1] = bench_pair.parse_run(output(9.6, 99.0, correct=False))
        _, problems = bench_pair.summarize("accel_conv", METRICS, runs)
        self.assertEqual(problems, ["accel_conv change run 2: correct is False"])

    def test_a_failed_operation_is_refused(self):
        runs = self.runs()
        runs["parent"][0] = bench_pair.parse_run(output(11.0, 90.0, failed=2, attempted=500))
        _, problems = bench_pair.summarize("accel_conv", METRICS, runs)
        self.assertEqual(problems, ["accel_conv parent run 1: 2 of 500 operations failed"])

    def test_a_digest_mismatch_is_reported(self):
        lines, problems = bench_pair.summarize(
            "accel_conv", METRICS, self.runs(digest="0x0000000000000001"))
        self.assertEqual(problems, [])
        self.assertIn("digests: parent 0xe94c5448241851aa; change 0x0000000000000001 (DIFFER)",
                      lines)

    def test_the_control_gap(self):
        runs = self.runs()
        runs["control"] = [bench_pair.parse_run(output(10.0, 100.0)) for _ in range(3)]
        lines, _ = bench_pair.summarize("accel_conv", METRICS, runs)
        self.assertEqual(cells(lines[0])[-2:], ["control median [q1, q3]", "control gap"])
        self.assertEqual(cells(lines[1])[-2:], ["10 [10, 10]", "-4.0%"])
        self.assertIn("(match)", lines[-1])

    def test_a_run_without_a_result_line(self):
        with self.assertRaises(bench_pair.PairError):
            bench_pair.parse_run("metric op_ms_p50 9.5 ms\n")


if __name__ == "__main__":
    unittest.main()
