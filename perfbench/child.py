"""One iteration of one workload, in a fresh process.

Started by run.py, which passes the monotonic time at which it spawned this
process; set-up time runs from then to the first timed call.  Both set-up and
the timed call are reported in reference-core seconds (see probe.py), with
the plain wall times beside them.  Writes one JSON result to ``--out`` and
exits 0 even when the workload fails, so that the failure is reported rather
than dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject", choices=workloads.FAULTS)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None):
    # Set-up is scaled by the probe samples taken after the imports above.
    sampler = probe.Sampler()
    sampler.start()
    args = parse_args(argv)
    import dvfsflow  # noqa: F401  (import cost belongs to set-up)

    os.makedirs(args.workdir, exist_ok=True)
    inputs = workloads.prepare(args.workload, args.seed, args.size, args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    _, samples = sampler.stop()
    setup_wall = time.monotonic() - args.spawned_at
    record = {"setup_s": probe.reference_seconds(setup_wall, samples),
              "setup_wall_s": setup_wall, "setup_probe_s": _mean(samples)}
    if args.mode == "run":
        outcome = workloads.Outcome()
        sampler.start()
        result = workloads.execute(inputs, outcome)
        elapsed, samples = sampler.stop()
        record.update(host_s=probe.reference_seconds(elapsed, samples),
                      wall_s=elapsed, probe_s=_mean(samples))
        # Peak before the checks below, which allocate on their own.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.restore()
        if args.inject:
            workloads.inject(inputs, result, args.inject)
        quality, digests = workloads.evaluate(inputs, result, outcome)
        record.update(
            attempted=outcome.attempted, failures=outcome.failures,
            quality=quality if workloads.finite_quality(quality) else None,
            digests=digests, blas_threads=blas_threads())
        if tracer is not None:
            record["per_layer"] = {k: v for k, (v, _) in tracer.metrics().items()}
            record["spans"] = tracer.spans()
            record["unwrapped"] = tracer.missing
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def _mean(samples):
    return sum(samples) / len(samples) if samples else None


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
