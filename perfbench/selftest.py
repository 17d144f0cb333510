#!/usr/bin/env python3
"""Determinism self-test of the repo benchmark (run from the repository root).

    python3 perfbench/selftest.py

For every workload, at the benchmark's own sizes (--seconds 0 limits each
run to a warm-up and one timed repetition):
  * two runs with the same seed print byte-identical virtual values
    (virtual-clock metrics, counts, sim.events and the op-stream fingerprint);
  * a traced repetition gives the same virtual values as an untraced run;
  * a second seed changes the op stream and still passes every output check;
  * the printed metric names and units are exactly BENCHMARK.json's lists.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point; provides the build)

ROOT = run.ROOT


def values_line(lines, tag):
    """The JSON text after `# <tag> ` in the driver's output."""
    prefix = f"# {tag} "
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def drive(driver, workload, seed, trace):
    """Runs the driver once; returns (stdout lines, result object)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: output checks failed")
    if result["failed"] != 0:
        raise AssertionError(f"{workload} seed {seed}: {result['failed']} ops failed")
    return lines, result


def main():
    driver = run.build_driver()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in run.WORKLOADS:
        lines, result = drive(driver, workload, 1, 0)
        first = values_line(lines, "virtual")
        again = values_line(drive(driver, workload, 1, 0)[0], "virtual")
        assert first == again, f"{workload}: same-seed runs differ\n{first}\n{again}"
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expect[0], f"{workload}: end-to-end metrics differ from BENCHMARK.json"

        lines, result = drive(driver, workload, 1, 1)
        plain = json.loads(first)
        traced = json.loads(values_line(lines, "traced virtual"))
        # A --trace 1 run also reports the probes' interner sizes.
        changed = [k for k, v in plain.items() if traced.get(k) != v]
        assert not changed, f"{workload}: tracing changed {changed}"
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expect[1], f"{workload}: per-layer metrics differ from BENCHMARK.json"

        other = values_line(drive(driver, workload, 2, 0)[0], "virtual")
        assert json.loads(other)["op_stream"] != plain["op_stream"], \
            f"{workload}: seed 2 did not change the op stream"
        print(f"selftest: {workload} ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
