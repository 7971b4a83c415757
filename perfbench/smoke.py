"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke.py

Run from the root of a dvfsflow checkout.  For each workload it checks that
an untraced run emits every end-to-end metric of BENCHMARK.json with its
unit, that a traced run emits every per-layer metric with its unit, and that
an injected bad output is counted as a failure.  It also checks that the
benchmark refuses to run without the dvfsflow sources.  Exits 1 on any
failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS, layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAULT = {"dfm_default": "nan_synth", "model_free_long": "nan_runlog",
         "cli_pipeline": "nan_synth"}


def bench(workload, trace, inject=None, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def main():
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if want[0] != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    if want[1] != layer_units():
        problems.append("BENCHMARK.json per_layer differs from the tracer's metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, line = bench(workload, trace)
            if line is None:
                problems.append(f"{workload} trace {trace}: exit {code}")
                continue
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload} trace {trace}: clean run reported failures")
            if any(not isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a metric has no value")

        code, line = bench(workload, 1, FAULT[workload])
        if line is None or line["metrics"]["failed_frac"]["value"] <= 0 or line["correct"]:
            problems.append(f"{workload}: injected {FAULT[workload]} not counted as failed")

    bare = os.path.join(".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, line = bench(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0:
        problems.append("benchmark ran without the dvfsflow sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
