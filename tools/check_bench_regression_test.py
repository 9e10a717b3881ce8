#!/usr/bin/env python3
"""Tests for check_bench_regression.py on synthetic google-benchmark
reports. Each case writes the parent's and the change's reports (one or
several per side), runs the gate as CI does, and checks its exit code.

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
        """Runs the gate on the reports, each side one report or a list of
        them; returns its exit code."""
        args = []
        for role, flag, data in (("parent", "--baseline", parent),
                                 ("change", "--current", change)):
            args.append(flag)
            for i, report_data in enumerate(
                    data if isinstance(data, list) else [data]):
                path = os.path.join(self.dir.name, f"{role}_{i}.json")
                with open(path, "w") as f:
                    json.dump(report_data, f)
                args.append(path)
        done = subprocess.run(
            [sys.executable, GATE, *args, *flags],
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

    def test_one_noisy_run_of_three_passes(self):
        parent = [report({"a": 100.0, "b": 100.0})] * 3
        change = [report({"a": 60.0, "b": 50.0}),
                  report({"a": 100.0, "b": 98.0}),
                  report({"a": 99.0, "b": 101.0})]
        self.assertEqual(self.gate(parent, change), 0)

    def test_host_slow_phase_spanning_runs_passes(self):
        # The host slows down from the change's 2nd run through the
        # parent's 3rd: each side's median is a slow run, but each pair
        # compares like with like.
        parent = [report({"a": 100.0}), report({"a": 100.0}),
                  report({"a": 60.0})]
        change = [report({"a": 100.0}), report({"a": 60.0}),
                  report({"a": 60.0})]
        self.assertEqual(self.gate(parent, change), 0)

    def test_unequal_report_counts_fail(self):
        self.assertEqual(
            self.gate([report({"a": 100.0})] * 3, [report({"a": 100.0})] * 2),
            1)

    def test_noisy_parent_run_does_not_hide_a_regression(self):
        parent = [report({"a": 100.0}), report({"a": 50.0}),
                  report({"a": 102.0})]
        change = [report({"a": 60.0})] * 3
        self.assertEqual(self.gate(parent, change), 1)

    def test_consistent_regression_over_three_runs_fails(self):
        parent = [report({"a": 100.0, "b": 100.0}),
                  report({"a": 102.0, "b": 99.0}),
                  report({"a": 98.0, "b": 101.0})]
        change = [report({"a": 70.0, "b": 100.0}),
                  report({"a": 71.4, "b": 99.0}),
                  report({"a": 68.6, "b": 101.0})]
        self.assertEqual(self.gate(parent, change), 1)

    def test_metric_switched_in_one_run_fails(self):
        parent = [report({"a": 100.0})] * 3
        change = [report({"a": 100.0}) for _ in range(3)]
        del change[1]["benchmarks"][0]["rows_per_s"]
        self.assertEqual(self.gate(parent, change), 1)

    def test_num_cpus_mismatch_in_any_run_fails(self):
        parent = [report({"a": 100.0})] * 3
        change = [report({"a": 100.0}), report({"a": 100.0}, num_cpus=1),
                  report({"a": 100.0})]
        self.assertEqual(self.gate(parent, change), 0)
        self.assertEqual(
            self.gate(parent, change, "--require-same-context"), 1)

    def test_missing_baseline_skips(self):
        path = os.path.join(self.dir.name, "change.json")
        with open(path, "w") as f:
            json.dump(report({"a": 100.0}), f)
        done = subprocess.run(
            [sys.executable, GATE, "--baseline",
             os.path.join(self.dir.name, "absent.json"), "--current", path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(done.returncode, 0)
        self.assertIn("SKIP", done.stdout)


if __name__ == "__main__":
    unittest.main()
