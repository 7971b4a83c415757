"""Command-line entry point: run experiments, generate synthetic batches,
evaluate stored data and bundle reports.

All outputs land under the configured directory with a manifest file, and a
rerun from the same config and seeds reproduces every CSV byte for byte.

``run`` spreads its (method, seed) runs over the usable cores with
:func:`spread.spread`, forking a process per run in manifest order, at most N at
a time, where N is the usable cores divided by the BLAS threads of each process
(see ``run --help``).  The calling process collects their results in manifest
order, so every file and stdout are byte-identical to a one-core run.  A lone
run, like ``gen``, stays in the calling process.

``gen --method M`` trains the generator of method M, a row of
``orchestrate.METHODS``, on a memory dump and draws from it through the factory
a run uses, with ``--seed`` as the run seed and no retrain count in the
streams; ``gen`` itself knows no generator.

Every command reads and writes its files through :mod:`dvfsflow.files`, the
one module that holds their format; ``report`` is :func:`report.write_report`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import report
from .config import ExperimentConfig, config_to_dict, dump_config, load_config
from .errors import (ConfigurationError, DomainError, InsufficientDataError,
                     NumericError, StateError)
from .files import load_finite_batch, runlog_to_csv, save_batch_csv, write_json
from .flow import TransitionLayout, canonical_rows
from .orchestrate import METHODS, run_experiment, runlog_summary
from .spread import spread


def _parse_seeds(text: str) -> list[int]:
    """``lo..hi`` (inclusive) or a comma-separated list of integers."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--seeds must be lo..hi or a comma-separated list of integers, "
            f"got {text!r}") from None


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.methods is not None:        # an empty list fails validation, naming the field
        cfg.methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.seeds is not None:
        cfg.seeds = _parse_seeds(args.seeds)
    if args.output is not None:         # an empty directory fails validation too
        cfg.output_dir = args.output
    cfg.validate()
    return cfg


# ---------------------------------------------------------------- run

def _run_one(cfg: ExperimentConfig, job: tuple[str, int]) -> tuple[dict, str]:
    """One (method, seed) run: write its files under ``cfg.output_dir`` and
    return their names and the ``ran ...`` line."""
    method, seed = job
    out = cfg.output_dir
    log = run_experiment(method, cfg.env, cfg.agent, cfg.schedule, seed,
                         fm_config=cfg.flow, forest_config=cfg.forest)
    tag = f"{method}_seed{seed}"
    files = {"runlog": f"runlog_{tag}.csv", "summary": f"summary_{tag}.json",
             "real": f"real_{tag}.csv", "synth": None}
    summary = runlog_summary(log)
    runlog_to_csv(log, os.path.join(out, files["runlog"]))
    write_json(summary, os.path.join(out, files["summary"]))
    save_batch_csv(log.real_flat, os.path.join(out, files["real"]))
    if log.synth_raw is not None:
        files["synth"] = f"synth_{tag}.csv"
        save_batch_csv(log.synth_raw, os.path.join(out, files["synth"]))
    return files, (f"ran {method} seed {seed}: mean fps {summary['mean_fps']:.2f}, "
                   f"mean reward {summary['mean_reward']:.3f}")


def _why_never_retrains(sched) -> Optional[str]:
    """Why a generator method never retrains under schedule ``sched``, naming the
    fields at fault, or None if it does.  A run retrains at a multiple i of
    ``fm_retrain_period`` below ``horizon`` where ``can_train(i, min(i,
    real_capacity))`` holds, which only gets easier as i grows, so the last such
    multiple decides."""
    period, horizon = sched.fm_retrain_period, sched.horizon
    last = (horizon - 1) // period * period
    held = min(last, sched.real_capacity)
    if not last:
        return (f"schedule.fm_retrain_period = {period} has no multiple below "
                f"schedule.horizon = {horizon}")
    if sched.can_train(last, held):
        return None
    faults = []
    if last <= sched.batch_size:
        faults.append(f"has taken {last} transitions, not more than schedule.batch_size = "
                      f"{sched.batch_size}")
    if held < sched.fm_train_start:
        faults.append(f"holds {held} (schedule.real_capacity = {sched.real_capacity}), "
                      f"fewer than schedule.fm_train_start = {sched.fm_train_start}")
    return (f"at step {last}, the last multiple of schedule.fm_retrain_period = {period} "
            f"below schedule.horizon = {horizon}, the real memory " + " and ".join(faults))


def cmd_run(args) -> int:
    cfg = _load_experiment_config(args)
    if args.print_config:
        print(dump_config(cfg))
        return 0
    generators = [m for m in cfg.methods if METHODS[m]]
    why = _why_never_retrains(cfg.schedule) if generators else None
    if why:
        print(f"warning: {', '.join(generators)} will not retrain (they run as "
              f"model_free): {why}", file=sys.stderr)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    write_json(config_to_dict(cfg), os.path.join(out, "effective_config.json"))

    runs = []
    outputs = ["effective_config.json"]
    jobs = [(m, s) for m in cfg.methods for s in cfg.seeds]
    outcomes = spread(functools.partial(_run_one, cfg), jobs,
                      name=lambda job: f"run {job[0]} seed {job[1]}")
    for (files, line), (method, seed) in zip(outcomes, jobs):     # runs spread to its end
        runs.append({"method": method, "seed": seed, "files": files})
        outputs.extend(v for v in files.values() if v)
        print(line)
    manifest = {"version": 1, "config": config_to_dict(cfg), "runs": runs,
                "outputs": sorted(outputs + ["manifest.json"])}
    write_json(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote {len(outputs) + 1} files under {out}")
    return 0


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    factory = METHODS.get(args.method)
    if factory is None:
        raise DomainError(f"--method must be a method with a generator, one of "
                          f"{', '.join(m for m, f in METHODS.items() if f)}, "
                          f"got {args.method!r}")
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    layout = TransitionLayout(num_actions=cfg.env.num_actions,
                              ambient_temp=cfg.env.ambient_temp)
    data = load_finite_batch(args.memory, allow_empty=True)   # the floor below names the file
    sched = cfg.schedule
    if not sched.can_train(len(data), len(data)):     # a dump holds every row it took
        raise InsufficientDataError(
            f"generator training needs more than {sched.batch_size} transitions "
            f"(schedule.batch_size) and at least {sched.fm_train_start} "
            f"(schedule.fm_train_start), {args.memory} holds {len(data)}")
    real = canonical_rows(data, layout)     # clamped states, snapped actions
    refit = factory(cfg.flow, cfg.forest, args.seed, np.random.default_rng([args.seed, 3]))
    raw, loss_curve, _ = refit(real, args.n)
    save_batch_csv(raw, args.out)
    print(f"trained on {len(real)} transitions "
          f"(final loss {loss_curve[-1]:.4f}), wrote {args.n} samples to {args.out}")
    return 0


# ---------------------------------------------------------------- eval and report

def cmd_eval(args) -> int:
    real = load_finite_batch(args.real)
    synth = load_finite_batch(args.synth)
    result = report.eval_batches(real, synth)
    if args.out:
        write_json(result, args.out)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    print(f"report written under {report.write_report(args.run_dir)}")
    return 0


# ---------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dvfsflow",
        description="flow-matching DVFS RL workbench: run, generate, evaluate, report")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser(
        "run", help="execute methods x seeds and write run logs",
        description="Execute every (method, seed) run and write its run log, summary and "
                    "memory CSVs plus manifest.json.  Each run gets a forked process of "
                    "its own, with at most one per usable core at a time; this process "
                    "starts the runs and collects their results, and a lost run is named "
                    "with its exit code.  The files and stdout are byte-identical to a "
                    "one-core run.  Each process uses the BLAS thread count of its "
                    "environment, so set OPENBLAS_NUM_THREADS=1 to run one process per "
                    "core; with the count unset, BLAS takes every core and the runs stay "
                    "in one process.")
    pr.add_argument("--config", help="JSON experiment config (defaults if omitted)")
    pr.add_argument("--methods", help="comma-separated override, e.g. dfm,model_free")
    pr.add_argument("--seeds", help="override, e.g. 0..4 or 0,3,7")
    pr.add_argument("--output", help="output directory override")
    pr.add_argument("--print-config", action="store_true",
                    help="echo the effective config and exit")
    pr.set_defaults(func=cmd_run)

    pg = sub.add_parser("gen", help="train a method's generator on a memory dump and sample")
    pg.add_argument("--memory", required=True, help="11-column transition CSV")
    pg.add_argument("--out", required=True, help="output CSV for synthetic samples")
    pg.add_argument("--n", type=int, default=1000)
    pg.add_argument("--config", help="JSON experiment config for flow/forest settings")
    pg.add_argument("--method", default="dfm",
                    help="the method whose generator fills the batch, as in run: "
                         + ", ".join(m for m, f in METHODS.items() if f) + " (default dfm)")
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=cmd_gen)

    pe = sub.add_parser("eval", help="compare a synthetic batch against real data")
    pe.add_argument("--real", required=True)
    pe.add_argument("--synth", required=True)
    pe.add_argument("--out", help="write the JSON result here as well")
    pe.set_defaults(func=cmd_eval)

    pp = sub.add_parser("report", help="bundle metrics and SVG figures for a run dir")
    pp.add_argument("--run-dir", required=True)
    pp.set_defaults(func=cmd_report)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
    except (DomainError, InsufficientDataError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
    except StateError as exc:
        print(f"state error: {exc}", file=sys.stderr)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
    except OSError as exc:                  # a directory for a file, or the reverse
        print(f"file error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
