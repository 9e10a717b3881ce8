#!/usr/bin/env python3
"""Tests for check_bench_regression.py on synthetic google-benchmark
reports. Each case writes a parent and a change report, runs the gate as
CI does, and checks its exit code.

  python3 tools/check_bench_regression_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "check_bench_regression.py")


def report(rows, num_cpus=4):
    """A google-benchmark report with one row per {name: rows_per_s}."""
    return {
        "context": {"num_cpus": num_cpus, "library_build_type": "release"},
        "benchmarks": [
            {"name": name, "run_type": "iteration", "real_time": 1.0,
             "rows_per_s": value}
            for name, value in rows.items()
        ],
    }


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def gate(self, parent, change, *flags):
        """Runs the gate on the two reports; returns its exit code."""
        paths = []
        for role, data in (("parent", parent), ("change", change)):
            path = os.path.join(self.dir.name, role + ".json")
            with open(path, "w") as f:
                json.dump(data, f)
            paths.append(path)
        done = subprocess.run(
            [sys.executable, GATE, "--baseline", paths[0],
             "--current", paths[1], *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return done.returncode

    def test_regression_past_the_bound_fails(self):
        self.assertEqual(
            self.gate(report({"a": 100.0, "b": 100.0}),
                      report({"a": 70.0, "b": 100.0})), 1)

    def test_slowdown_within_the_bound_passes(self):
        self.assertEqual(
            self.gate(report({"a": 100.0, "b": 100.0}),
                      report({"a": 90.0, "b": 100.0})), 0)

    def test_zero_current_value_fails(self):
        self.assertEqual(
            self.gate(report({"a": 100.0, "b": 100.0}),
                      report({"a": 0.0, "b": 100.0})), 1)

    def test_switched_metric_fails(self):
        change = report({"a": 100.0, "b": 100.0})
        # Without its counter the row falls back to real_time.
        del change["benchmarks"][0]["rows_per_s"]
        self.assertEqual(self.gate(report({"a": 100.0, "b": 100.0}),
                                   change), 1)

    def test_non_positive_baseline_is_skipped(self):
        self.assertEqual(
            self.gate(report({"a": 0.0, "b": 100.0}),
                      report({"a": 100.0, "b": 100.0})), 0)

    def test_dropped_row_fails_under_require_all(self):
        parent = report({"a": 100.0, "b": 100.0})
        change = report({"a": 100.0})
        self.assertEqual(self.gate(parent, change), 0)
        self.assertEqual(self.gate(parent, change, "--require-all"), 1)

    def test_num_cpus_mismatch_fails_under_require_same_context(self):
        parent = report({"a": 100.0}, num_cpus=1)
        change = report({"a": 100.0}, num_cpus=4)
        self.assertEqual(self.gate(parent, change), 0)
        self.assertEqual(
            self.gate(parent, change, "--require-same-context"), 1)


if __name__ == "__main__":
    unittest.main()
