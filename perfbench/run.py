#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which builds the library
through the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that is unset. Every call then runs the
benchmark's self-tests and the named workload. Build and self-test output go
to stderr; the benchmark's report goes to stdout, whose last line is the JSON
result. The exit code is non-zero when the build, the self-tests or the run
fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def run_logged(cmd, cwd=None, timeout=None):
    """Runs cmd with its output on stderr; returns True on success."""
    try:
        return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"{cmd[0]}: {e}", file=sys.stderr)
        return False


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_logged(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                       "--target", "perfbench", "perfbench_selftest"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    selftest_dir = os.path.join(build_dir, "selftest")
    os.makedirs(selftest_dir, exist_ok=True)
    if not run_logged([os.path.join(build_dir, "perfbench_selftest")],
                      cwd=selftest_dir, timeout=60):
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "run")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
