"""dvfsflow benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dfm_default --seed 0 --seconds 40 --trace 0

Run from the root of a dvfsflow checkout.  Every iteration runs in a fresh
child process (perfbench/child.py) with single-threaded BLAS; iterations are
repeated while the next one is expected to finish within ``--seconds``.
Untraced runs (``--trace 0``) report the end-to-end metrics: host metrics are
medians over the iterations (``setup_s`` over extra set-up-only processes as
well), simulated quality is that of the reference seed.  Times are in
reference-core seconds (see probe.py); plain wall times go to the full
record.  Traced runs (``--trace 1``) alternate untraced and traced iterations
and report the per-layer metrics of the traced ones plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(per-iteration numbers, output digests, environment, failures) is written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10           # set-up-only processes per untraced run
# Simulated quality varies by 20-40% (interquartile range over median) from
# one simulation seed to the next, more than any bound could allow, so it is
# taken at a fixed reference seed; --seed picks the seed of the other
# iterations, which are timed and checked like the reference ones.
REFERENCE_SEED = 0
DEADLINE_S = 170.0          # the whole run ends well inside 180 s
# One BLAS thread per workload process.  Outputs are bit-identical with any
# thread count, and on a shared two-core host two threads made one dfm run
# take 13.3-22.9 s against 13.0-13.9 s with one.
CHILD_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s", "host_s": "s", "peak_rss_mb": "MB", "mean_fps": "fps",
    "final_regret": "reward", "synth_w1": "std", "synth_reward_resid": "reward",
}


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="input size; 'tiny' is for the smoke test")
    p.add_argument("--inject", choices=workloads.FAULTS,
                   help="corrupt an output before it is checked (smoke test)")
    return p.parse_args(argv)


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": CHILD_THREADS,
    }


def iteration_seeds(seed):
    """Simulation seeds that untraced iterations cycle through."""
    return [REFERENCE_SEED, seed + 1]


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.workdir = os.path.join(root, ".bench_work", f"{tag}-{os.getpid()}")
        self.result_path = os.path.join(root, ".bench_work", "results", f"{tag}.json")
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS=CHILD_THREADS,
                        OMP_NUM_THREADS=CHILD_THREADS,
                        MKL_NUM_THREADS=CHILD_THREADS,
                        # The same dict and set layouts in every child.
                        PYTHONHASHSEED="0")
        self.started = time.monotonic()
        self.crashes = []
        self.count = 0

    def spawn(self, mode, seed, traced=False, inject=None):
        """Run one child; return its record, or None when it crashed."""
        self.count += 1
        out = os.path.join(self.workdir, f"child{self.count}.json")
        workdir = os.path.join(self.workdir, f"child{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(seed),
               "--size", self.args.size, "--mode", mode, "--trace", str(int(traced)),
               "--workdir", workdir, "--out", out]
        if inject:
            cmd += ["--inject", inject]
        budget = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} child {self.count}: timed out after {budget:.0f} s")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not os.path.exists(out):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.crashes.append(f"{mode} child {self.count}: exit {proc.returncode}: {tail[0]}")
            return None
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def iterate(self):
        """Run iterations while the next one should end inside --seconds.

        An untraced run alternates the reference seed and the seed drawn from
        --seed; a traced run alternates untraced and traced iterations on the
        drawn seed.  Returns a list of (traced, seed, record).
        """
        args = self.args
        sim_seeds = iteration_seeds(args.seed)
        records, durations = [], []
        begin = time.monotonic()
        while True:
            n = len(records)
            traced = bool(args.trace) and n % 2 == 1
            seed = sim_seeds[1] if args.trace else sim_seeds[n % len(sim_seeds)]
            t0 = time.monotonic()
            records.append((traced, seed, self.spawn("run", seed, traced, args.inject)))
            durations.append(time.monotonic() - t0)
            if len(records) < 2:
                continue
            elapsed = time.monotonic() - begin
            if elapsed + statistics.median(durations) > args.seconds:
                break
            if time.monotonic() - self.started + max(durations) > DEADLINE_S - 10:
                break
        return records


def _median(values):
    return statistics.median(values) if values else None


def summarize(args, setups, records, crashes):
    """Fold child records into the result line and the full record."""
    done = [(traced, seed, r) for traced, seed, r in records if r is not None]
    attempted = sum(r["attempted"] for _, _, r in done) + len(crashes)
    failures = [f for _, _, r in done for f in r["failures"]] + list(crashes)

    by_seed = {}
    for _, seed, r in done:
        by_seed.setdefault(seed, []).append(r)
    for seed, runs in by_seed.items():
        if len(runs) > 1:
            attempted += 1
            if any((r["quality"], r["digests"]) != (runs[0]["quality"], runs[0]["digests"])
                   for r in runs):
                failures.append(f"seed {seed}: simulated outcome differs between iterations")
    sim_seeds = iteration_seeds(args.seed)
    quality = by_seed[REFERENCE_SEED][0]["quality"] if REFERENCE_SEED in by_seed else None

    untraced = [r for traced, _, r in done if not traced]
    traced = [r for traced, _, r in done if traced]
    failed = len(failures)
    if args.trace:
        units = layer_units()
        metrics = {n: _median([r["per_layer"][n] for r in traced]) for n in units
                   if traced and n not in LAYER_EXTRAS}
        if traced and untraced:
            metrics["trace.overhead_s"] = (_median([r["host_s"] for r in traced])
                                           - _median([r["host_s"] for r in untraced]))
        metrics["failed_frac"] = failed / max(attempted, 1)
    else:
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": _median(setups),
            "host_s": _median([r["host_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
        for name in ("mean_fps", "final_regret", "synth_w1", "synth_reward_resid"):
            metrics[name] = quality[name] if quality else None
    correct = failed == 0 and all(metrics.get(n) is not None for n in units)
    line = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()}}
    full = {
        "workload": args.workload, "seed": args.seed, "sim_seeds": sim_seeds,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "inject": args.inject, "failed_frac": failed / max(attempted, 1),
        "failures": failures,
        "digests": {str(s): by_seed[s][0]["digests"] for s in sim_seeds if s in by_seed},
        "setup_samples": setups,
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "iterations": [dict(r or {}, traced=t, sim_seed=s) for t, s, r in records],
    }
    if args.trace:
        full["tracing_overhead_s"] = metrics.get("trace.overhead_s")
        full["host_s_untraced"] = [r["host_s"] for r in untraced]
        full["host_s_traced"] = [r["host_s"] for r in traced]
    return line, full


LAYER_EXTRAS = {"trace.overhead_s": "s", "failed_frac": "ratio"}


def layer_units():
    """Every per-layer metric with its unit, in report order."""
    from tracer import Tracer
    return dict({n: unit for n, (_, unit) in Tracer().metrics().items()}, **LAYER_EXTRAS)


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dvfsflow", "__init__.py")):
        print("run.py: no dvfsflow sources under ./src; run from a dvfsflow checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args, root)
    os.makedirs(runner.workdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                record = runner.spawn("setup", REFERENCE_SEED)
                if record is not None:
                    setups.append(record["setup_s"])
        records = runner.iterate()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    setups += [r["setup_s"] for traced, _, r in records if r is not None and not traced]

    line, full = summarize(args, setups, records, runner.crashes)
    full["environment"] = environment()
    full["environment"]["blas_threads"] = next(
        (r["blas_threads"] for _, _, r in records if r is not None), None)
    os.makedirs(os.path.dirname(runner.result_path), exist_ok=True)
    with open(runner.result_path, "w", encoding="utf-8") as fh:
        json.dump(dict(full, result=line), fh, indent=2, sort_keys=True)

    print(f"environment: {json.dumps(full['environment'], sort_keys=True)}")
    print(f"simulation seeds: {full['sim_seeds']} (quality at {REFERENCE_SEED})")
    print(f"digests: {json.dumps(full['digests'], sort_keys=True)}")
    if args.trace:
        print(f"tracing overhead: {full['tracing_overhead_s']} s "
              f"(traced {full['host_s_traced']}, untraced {full['host_s_untraced']})")
    print(f"wall_s (median, plain wall time): {full['wall_s']}")
    print(f"failed_frac: {full['failed_frac']:.4f} "
          f"({line['failed']} of {line['attempted']} operations)")
    for failure in full["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
