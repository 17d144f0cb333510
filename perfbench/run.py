#!/usr/bin/env python3
"""Repo benchmark entry point: builds the driver from source, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload mdtest_write --seed 1 --seconds 20 --trace 0

Workloads: mdtest_write, stat_random, mega_hotdir (see perfbench/README.md).
The driver is built with CMake under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The exit code is non-zero when the build fails or an output check
fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mdtest_write", "stat_random", "mega_hotdir")
# Beyond --seconds the driver runs a warm-up, the repetition that crosses the
# budget and, with --trace 1, a traced repetition and the host probes.
RUN_MARGIN_S = 135


def build_driver():
    """Configures and builds the driver (both no-ops when current); returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    try:
        driver = build_driver()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {timeout_s:g} s", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
