#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares google-benchmark JSON reports: --baseline from the parent commit
and --current from the change, both run on the same machine. Each side
takes the same number of reports, run interleaved (CI runs 3 of each):
the i-th report of each side form pair i. Each row is gated on the median
of its per-pair ratios, so one noisy run cannot fail or pass the gate by
itself, and a slow phase of the host that spans a pair cancels out. Fails
when any benchmark's throughput metric regressed by more than
--max-regression (default 25%).

Metric selection per benchmark, in order:
  1. the `rows_per_s` counter (bench_scan_kernel) — higher is better;
  2. the `qps` counter (bench_throughput) — higher is better;
  3. `real_time` — lower is better.

A row whose metric differs between any two reports fails, and so does a
higher-is-better row with a current value that is not positive; only a
row with a non-positive baseline value is skipped. A row counts as
present on a side when every report of that side has it. Benchmarks only
in the baseline are reported but do not fail the gate unless
--require-all is given.

Typical use (the CI Release job runs exactly this):

  python3 tools/check_bench_regression.py \
      --baseline parent_1.json parent_2.json parent_3.json \
      --current change_1.json change_2.json change_3.json \
      --require-same-context --require-all
"""

import argparse
import json
import os
import statistics
import sys


def load_report(path, role):
    """Loads a google-benchmark JSON report, failing with an actionable
    message (not a stack trace) on unreadable or malformed files."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"FAIL: cannot read {role} {path}: {e}")
        return None
    except json.JSONDecodeError as e:
        print(f"FAIL: {role} {path} is not valid JSON ({e}); write it with "
              "the bench's --benchmark_out and --benchmark_out_format=json")
        return None


def load_context(report):
    return report.get("context", {})


def check_context_mismatch(baseline, current):
    """Reports measured on different hardware (or a different build
    flavor) make absolute-throughput ratios meaningless: a slow-host
    baseline lets real regressions sail through, a fast-host baseline
    fails good code. Returns the mismatched keys so the caller can fail
    the gate (--require-same-context, what CI uses)."""
    base_ctx = load_context(baseline)
    cur_ctx = load_context(current)
    mismatched = []
    # mhz_per_cpu is a clock reading, not a hardware identity, so it only
    # warns; the structural keys are fatal under --require-same-context.
    for key, fatal in (("num_cpus", True), ("library_build_type", True),
                       ("mhz_per_cpu", False)):
        b, c = base_ctx.get(key), cur_ctx.get(key)
        if b is not None and c is not None and b != c:
            if fatal:
                mismatched.append(key)
            print(f"WARNING: baseline/current context mismatch on "
                  f"'{key}': {b} vs {c} — absolute throughput is not "
                  "comparable; run both sides on one machine")
    return mismatched


def load_benchmarks(report):
    """Returns {name: (metric_name, value, higher_is_better)}."""
    out = {}
    for bench in report.get("benchmarks", []):
        name = bench.get("name")
        if name is None or bench.get("run_type") == "aggregate":
            continue
        if "rows_per_s" in bench:
            out[name] = ("rows_per_s", float(bench["rows_per_s"]), True)
        elif "qps" in bench:
            out[name] = ("qps", float(bench["qps"]), True)
        elif "real_time" in bench:
            out[name] = ("real_time", float(bench["real_time"]), False)
    return out


def load_side(reports):
    """The rows every report of one side has:
    {name: [(metric_name, value, higher_is_better), one per report]}."""
    runs = [load_benchmarks(report) for report in reports]
    names = set.intersection(*(set(run) for run in runs))
    return {name: [run[name] for run in runs] for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", nargs="+", required=True,
                        help="the parent commit's JSON report(s)")
    parser.add_argument("--current", nargs="+", required=True,
                        help="the change's JSON report(s)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail when a row's median per-pair ratio "
                             "worsens by more than this fraction "
                             "(default 0.25)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a baseline benchmark is missing "
                             "from the current reports")
    parser.add_argument("--require-same-context", action="store_true",
                        help="fail when the reports were measured on "
                             "different hardware or build flavor (instead "
                             "of comparing meaningless ratios)")
    args = parser.parse_args()

    if not any(os.path.exists(path) for path in args.baseline):
        print(f"SKIP: baseline {' '.join(args.baseline)} does not exist — "
              "nothing to gate against.")
        return 0

    if len(args.baseline) != len(args.current):
        print(f"FAIL: {len(args.baseline)} baseline and {len(args.current)} "
              "current reports; give the same number per side, run "
              "interleaved (the i-th of each side form pair i)")
        return 1
    baseline_reports = [load_report(p, "baseline") for p in args.baseline]
    current_reports = [load_report(p, "current report")
                       for p in args.current]
    if None in baseline_reports or None in current_reports:
        return 1

    mismatched = set()
    for report in baseline_reports[1:] + current_reports:
        mismatched.update(check_context_mismatch(baseline_reports[0], report))
    if mismatched and args.require_same_context:
        print(f"FAIL: benchmark context mismatch "
              f"({', '.join(sorted(mismatched))}) — the reports come from "
              "different environments; run the parent and the change on "
              "the same machine.")
        return 1
    baseline = load_side(baseline_reports)
    current = load_side(current_reports)

    if not current:
        print(f"FAIL: current report(s) {' '.join(args.current)} have no "
              "benchmark section — the bench produced no measurements")
        return 1

    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    common = sorted(set(baseline) & set(current))
    if not common:
        print("FAIL: no benchmarks in common between baseline and current")
        return 1

    failures = []
    compared = 0
    width = max(len(n) for n in common)
    print(f"{len(baseline_reports)} pair(s); baseline and current are each "
          "side's median, ratio the median per-pair ratio")
    print(f"{'benchmark':<{width}}  {'metric':>10}  {'baseline':>12}  "
          f"{'current':>12}  {'ratio':>7}")
    for name in common:
        metrics = sorted({m for m, _, _ in baseline[name] + current[name]})
        if len(metrics) > 1:
            print(f"{name:<{width}}  metric changed: {' -> '.join(metrics)}"
                  "  << FAIL")
            failures.append(f"{name}: metric {' -> '.join(metrics)}")
            continue
        metric, higher_better = metrics[0], baseline[name][0][2]
        base_values = [value for _, value, _ in baseline[name]]
        cur_values = [value for _, value, _ in current[name]]
        if min(base_values) <= 0:
            print(f"{name:<{width}}  (skipped: non-positive baseline)")
            continue
        compared += 1
        # Normalize so ratio > 1 always means "got better". A
        # higher-is-better value that is not positive is a broken run, not
        # noise, and fails; a lower-is-better one cannot have regressed.
        if higher_better:
            ratios = [c / b for b, c in zip(base_values, cur_values)]
        else:
            ratios = [b / c if c > 0 else float("inf")
                      for b, c in zip(base_values, cur_values)]
        ratio = statistics.median(ratios)
        if higher_better and min(cur_values) <= 0:
            ratio = min(ratios)
        base_value = statistics.median(base_values)
        cur_value = statistics.median(cur_values)
        flag = ""
        if ratio < 1.0 - args.max_regression:
            flag = "  << REGRESSION"
            failures.append(f"{name}: {metric} {base_value:.4g} -> "
                            f"{cur_value:.4g} ({ratio:.2f}x)")
        print(f"{name:<{width}}  {metric:>10}  {base_value:>12.4g}  "
              f"{cur_value:>12.4g}  {ratio:>6.2f}x{flag}")

    for name in missing:
        print(f"WARNING: in baseline only: {name}")
    for name in added:
        print(f"NOTE: new benchmark (no baseline): {name}")

    if args.require_all and missing:
        print(f"FAIL: {len(missing)} baseline benchmark(s) missing from "
              "the current runs")
        return 1
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) changed metric or "
              f"regressed more than {args.max_regression:.0%}:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"\nOK: {compared} benchmark(s) within "
          f"{args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
