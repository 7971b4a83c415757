"""Command-line entry point: run experiments, generate synthetic batches,
evaluate stored data and bundle reports.

All outputs land under the configured directory with a manifest file, and a
rerun from the same config and seeds reproduces every CSV byte for byte.

``run`` spreads its (method, seed) runs over the usable cores with
:func:`spread.spread`: each run gets a process of its own, forked in manifest
order, with at most N running at a time, and writes its files there.  The
calling process starts the runs, collects their results and records them in
manifest order; a run whose process dies is named with its exit code.  Every
file, ``manifest.json`` and stdout are byte-identical to a one-core run.  Each
process uses the BLAS thread count of its environment, and N is the usable
cores divided by that count; unset, it is a thread per core and ``run`` stays
in one process, so set ``OPENBLAS_NUM_THREADS=1`` to run one process per core.
A lone run, like ``gen``, stays in the calling process.

``gen --method M`` trains the generator of method M, a row of
``orchestrate.METHODS``, on a memory dump and draws from it through the factory
a run uses, with ``--seed`` as the run seed and no retrain count in the
streams; ``gen`` itself knows no generator.

Every command reads and writes its batch CSVs and run logs through
:mod:`dvfsflow.files`, the one module that holds their format.  The functions
of the same names in ``flow`` and ``orchestrate`` only call it and remain for
the benchmark in ``perfbench/``; importing ``dvfsflow`` does not load ``files``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from . import report
from .config import (ExperimentConfig, config_from_dict, config_to_dict, dump_config,
                     load_config)
from .errors import (ConfigurationError, DomainError, InsufficientDataError,
                     NumericError, StateError)
from .evalkit import (corr_gap, corr_gap_excluded_count, early_fps_gain,
                      empirical_regret, pearson_matrix, qvalue_stability,
                      wasserstein1)
from .files import load_batch_csv, runlog_from_csv, runlog_to_csv, save_batch_csv
from .flow import TRANSITION_LABELS, TransitionLayout, canonical_rows, check_finite
from .orchestrate import METHODS, regret_oracle, run_experiment, runlog_summary
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


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    _write_json(summary, os.path.join(out, files["summary"]))
    save_batch_csv(log.real_flat, os.path.join(out, files["real"]))
    if log.synth_raw is not None:
        files["synth"] = f"synth_{tag}.csv"
        save_batch_csv(log.synth_raw, os.path.join(out, files["synth"]))
    return files, (f"ran {method} seed {seed}: mean fps {summary['mean_fps']:.2f}, "
                   f"mean reward {summary['mean_reward']:.3f}")


def cmd_run(args) -> int:
    cfg = _load_experiment_config(args)
    if args.print_config:
        print(dump_config(cfg))
        return 0
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "effective_config.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg) + "\n")

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
    _write_json(manifest, os.path.join(out, "manifest.json"))
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
    data = _load_finite_batch(args.memory, allow_empty=True)   # the floor below names the file
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


# ---------------------------------------------------------------- eval

def _eval_batches(real: np.ndarray, synth: np.ndarray) -> dict:
    """Correlation gap, per-feature W1 and spread ratios of a synthetic batch
    against real rows.  A real column has zero variance when all its values are
    equal (the NaN diagonal of its Pearson matrix); it is listed in
    ``zero_variance_real``, left out of the gap, and its ``std_ratio`` is None.
    A batch of fewer than 2 rows has no correlations, so ``corr_gap`` and
    ``corr_excluded_entries`` are None then, and one real row has no spread in
    any column."""
    m_real = pearson_matrix(real) if len(real) >= 2 else None
    m_synth = pearson_matrix(synth) if len(synth) >= 2 else None
    paired = m_real is not None and m_synth is not None
    per_feature_w1 = {lab: wasserstein1(real[:, i], synth[:, i])
                      for i, lab in enumerate(TRANSITION_LABELS)}
    zero = np.isnan(np.diag(m_real)) if m_real is not None else np.ones(real.shape[1], bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(zero, np.nan, synth.std(axis=0) / real.std(axis=0))
    return {
        "corr_gap": corr_gap(m_real, m_synth) if paired else None,
        "corr_excluded_entries": corr_gap_excluded_count(m_real, m_synth) if paired else None,
        "zero_variance_real": [lab for lab, z in zip(TRANSITION_LABELS, zero) if z],
        "per_feature_w1": per_feature_w1,
        "std_ratio": {lab: (None if not np.isfinite(r) else float(r))
                      for lab, r in zip(TRANSITION_LABELS, ratio)},
        "n_real": int(real.shape[0]),
        "n_synth": int(synth.shape[0]),
    }


def _load_finite_batch(path: str, allow_empty: bool = False) -> np.ndarray:
    """A batch CSV; a NaN/inf cell raises NumericError naming file and column(s),
    and a file without rows DomainError naming the file, unless ``allow_empty``."""
    batch = load_batch_csv(path)
    if not (len(batch) or allow_empty):
        raise DomainError(f"{path}: the batch holds no transition rows")
    check_finite(batch, path)
    return batch


def cmd_eval(args) -> int:
    real = _load_finite_batch(args.real)
    synth = _load_finite_batch(args.synth)
    result = _eval_batches(real, synth)
    if args.out:
        _write_json(result, args.out)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------- report

# per-run metrics: the per_run rows, the per-method medians and the metrics.csv columns
_RUN_METRICS = ("mean_fps", "mean_reward", "qvalue_stability", "final_regret")

# line figures of the first seed of each method: file, title, y-label, series
_LINE_FIGURES = (
    ("fps.svg", "frame rate per step", "fps", lambda log, regret: [s.fps for s in log.states]),
    ("max_q.svg", "max Q at visited state", "max Q", lambda log, regret: log.max_q),
    ("regret.svg", "cumulative empirical regret", "regret", lambda log, regret: regret.tolist()),
)


def _load_manifest(path: str) -> dict:
    """A run's manifest; a parse error, a missing key or a mistyped value raises
    DomainError naming it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"manifest parse error in {path} at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from None

    def need(obj, where: str, *keys) -> dict:
        for key in keys:
            if not (isinstance(obj, dict) and key in obj):
                raise DomainError(f"manifest {path}: {where} has no key {key!r}")
        return obj
    runs = need(manifest, "the root", "config", "runs")["runs"]
    if not (isinstance(runs, list) and runs):
        raise DomainError(f"manifest {path}: 'runs' must be a non-empty list")
    seen: dict[tuple[str, int], int] = {}       # (method, seed): its first index
    for i, run in enumerate(runs):
        files = need(need(run, f"runs[{i}]", "method", "seed", "files")["files"],
                     f"runs[{i}].files", "runlog", "real")
        method, seed = run["method"], run["seed"]
        if not (isinstance(method, str) and method in METHODS):
            raise DomainError(f"manifest {path}: runs[{i}].method must be one of "
                              f"{', '.join(METHODS)}, got {method!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise DomainError(f"manifest {path}: runs[{i}].seed must be an integer, "
                              f"got {seed!r}")
        for key in ("runlog", "real", "synth"):
            name = files.get(key)
            if not (isinstance(name, str) or (key == "synth" and name is None)):
                raise DomainError(f"manifest {path}: runs[{i}].files.{key} must be a file "
                                  f"name{' or null' if key == 'synth' else ''}, got {name!r}")
        first = seen.setdefault((method, seed), i)
        if first != i:
            raise DomainError(f"manifest {path}: runs[{i}] repeats runs[{first}]: "
                              f"method {method!r}, seed {seed}")
    return manifest


def cmd_report(args) -> int:
    run_dir = args.run_dir
    manifest = _load_manifest(os.path.join(run_dir, "manifest.json"))
    report_dir = os.path.join(run_dir, "report")

    env = config_from_dict(manifest["config"]).env
    oracle = regret_oracle(env)
    # each CSV is read and checked once; the figures reuse the batches
    batch = functools.cache(lambda name: _load_finite_batch(os.path.join(run_dir, name)))
    per_run = []
    logs = {}
    for entry in manifest["runs"]:
        method, seed = entry["method"], entry["seed"]
        files = entry["files"]
        log = runlog_from_csv(os.path.join(run_dir, files["runlog"]), method, seed)
        regret = empirical_regret(log, oracle)
        logs[(method, seed)] = (log, files, regret)
        try:
            stability = qvalue_stability(log)
        except InsufficientDataError:       # a run too short to estimate it
            stability = None
        metrics = (float(np.mean([s.fps for s in log.states])), float(np.mean(log.rewards)),
                   stability, float(regret[-1]))            # in _RUN_METRICS order
        row = {"method": method, "seed": seed, **dict(zip(_RUN_METRICS, metrics))}
        if files.get("synth"):
            row["eval"] = _eval_batches(batch(files["real"]), batch(files["synth"]))
        per_run.append(row)

    methods = sorted({r["method"] for r in per_run})
    medians: dict[str, dict] = {}
    for method in methods:
        rows = [r for r in per_run if r["method"] == method]
        medians[method] = {}
        for key in _RUN_METRICS:
            present = [r[key] for r in rows if r[key] is not None]
            medians[method][key] = float(np.median(present)) if present else None
        evals = [r["eval"] for r in rows if "eval" in r]
        if evals:
            gaps = [e["corr_gap"] for e in evals if e["corr_gap"] is not None]
            medians[method]["corr_gap"] = float(np.median(gaps)) if gaps else None

    gains = {}
    # the seeds both methods ran
    seeds = sorted({s for m, s in logs if m == "dfm"} & {s for m, s in logs if m == "model_free"})
    if seeds:
        window = min(50, min(len(logs[(m, s)][0].t) for m in ("dfm", "model_free")
                             for s in seeds))
        vals = [early_fps_gain(logs[("dfm", s)][0], logs[("model_free", s)][0],
                               window=window) for s in seeds]
        gains = {"window": window, "per_seed": vals, "median": float(np.median(vals))}

    # figures from the first seed of each method; a batch of one row has no
    # correlations, so its heatmap is skipped and listed in report.json
    first_seed = manifest["runs"][0]["seed"]
    firsts = {m: logs[(m, first_seed)] for m in methods if (m, first_seed) in logs}
    heatmaps = [(files["synth"], f"corr_{method}.svg", f"synthetic correlations: {method}")
                for method, (_, files, _) in firsts.items() if files.get("synth")]
    heatmaps.append((manifest["runs"][0]["files"]["real"], "corr_real.svg",
                     "real-data correlations"))
    # every file is read and checked before report/ exists, so a failed report leaves none
    heatmaps = [(name, batch(name), figure, title) for name, figure, title in heatmaps]
    os.makedirs(report_dir, exist_ok=True)
    skipped = []
    for name, rows, figure, title in heatmaps:
        if len(rows) < 2:
            skipped.append({"figure": figure, "reason": f"{name} holds {len(rows)} row(s); "
                                                        "correlations need at least 2"})
            continue
        report.svg_heatmap(pearson_matrix(rows), TRANSITION_LABELS,
                           os.path.join(report_dir, figure), title=title)
    for figure, title, ylabel, series in _LINE_FIGURES:
        report.svg_lines({m: series(log, regret) for m, (log, _, regret) in firsts.items()},
                         os.path.join(report_dir, figure), title=title, ylabel=ylabel)

    payload = {"per_run": per_run, "medians": medians, "early_fps_gain": gains}
    if skipped:
        payload["skipped_figures"] = skipped
    _write_json(payload, os.path.join(report_dir, "report.json"))

    columns = ["method", "seed", *_RUN_METRICS]
    with open(os.path.join(report_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")      # None becomes an empty cell
        writer.writerow(columns + ["corr_gap"])
        writer.writerows([r[k] for k in columns] + [r.get("eval", {}).get("corr_gap")]
                         for r in per_run)
    print(f"report written under {report_dir}")
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
