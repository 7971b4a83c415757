"""Command-line entry point: run experiments, generate synthetic batches,
evaluate stored data, bundle reports, and self-test the numerics.

All outputs land under the configured directory with a manifest file, and a
rerun from the same config and seeds reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import flow as flow_mod
from . import nets, report
from .agent import ReplayMemory
from .config import ExperimentConfig, config_to_dict, dump_config, load_config
from .errors import (ConfigurationError, DomainError, InsufficientDataError,
                     NumericError, StateError)
from .evalkit import (corr_gap, corr_gap_excluded_count, early_fps_gain,
                      empirical_regret, pearson_matrix, qvalue_stability,
                      wasserstein1)
from .flow import (FMConfig, TRANSITION_LABELS, TransitionLayout,
                   bootstrap_latents, flow_model_to_dict, generate_raw,
                   load_batch_csv, save_batch_csv, train_flow_model,
                   unflatten_transition)
from .forest import ForestConfig, transition_feature_weights
from .orchestrate import (regret_oracle, run_experiment, runlog_from_csv,
                          runlog_summary, runlog_to_csv)
from .simenv import EnvConfig


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s.strip()]


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "methods", None):
        cfg.methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if getattr(args, "seeds", None):
        cfg.seeds = _parse_seeds(args.seeds)
    if getattr(args, "output", None):
        cfg.output_dir = args.output
    cfg.validate()
    return cfg


# ---------------------------------------------------------------- run

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
    for method in cfg.methods:
        for seed in cfg.seeds:
            log = run_experiment(method, cfg.env, cfg.agent, cfg.schedule, seed,
                                 fm_config=cfg.flow, forest_config=cfg.forest)
            tag = f"{method}_seed{seed}"
            files = {"runlog": f"runlog_{tag}.csv", "summary": f"summary_{tag}.json",
                     "real": f"real_{tag}.csv", "synth": None}
            runlog_to_csv(log, os.path.join(out, files["runlog"]))
            _write_json(runlog_summary(log), os.path.join(out, files["summary"]))
            save_batch_csv(log.real_flat, os.path.join(out, files["real"]))
            if log.synth_raw is not None:
                files["synth"] = f"synth_{tag}.csv"
                save_batch_csv(log.synth_raw, os.path.join(out, files["synth"]))
            runs.append({"method": method, "seed": seed, "files": files})
            outputs.extend(v for v in files.values() if v)
            print(f"ran {method} seed {seed}: mean fps "
                  f"{np.mean([s.fps for s in log.states]):.2f}, "
                  f"mean reward {np.mean(log.rewards):.3f}")
    manifest = {"version": 1, "config": config_to_dict(cfg), "runs": runs,
                "outputs": sorted(outputs + ["manifest.json"])}
    _write_json(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote {len(outputs) + 1} files under {out}")
    return 0


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    layout = TransitionLayout(num_actions=cfg.env.num_actions,
                              ambient_temp=cfg.env.ambient_temp)
    data = load_batch_csv(args.memory)
    if data.shape[0] < cfg.schedule.fm_train_start:
        raise InsufficientDataError(
            f"flow training needs >= {cfg.schedule.fm_train_start} transitions "
            f"(schedule.fm_train_start), {args.memory} holds {data.shape[0]}")
    memory = ReplayMemory(capacity=data.shape[0])
    for row in data:
        memory.push(unflatten_transition(row, layout, source="real"))

    if args.uniform_lambda or len(memory) < cfg.forest.min_samples:
        lam = np.full(layout.dim, 1.0 / layout.dim)
    else:
        lam = transition_feature_weights(memory, cfg.forest,
                                         rng=np.random.default_rng([args.seed, 30]))
    model = train_flow_model(memory, lam, cfg.flow, layout, seed=[args.seed, 40])
    raw = generate_raw(model, args.n, np.random.default_rng([args.seed, 50]))
    save_batch_csv(raw, args.out)
    if args.checkpoint:
        _write_json(flow_model_to_dict(model), args.checkpoint)
    print(f"trained on {len(memory)} transitions "
          f"(final loss {model.loss_curve[-1]:.4f}), wrote {args.n} samples to {args.out}")
    return 0


# ---------------------------------------------------------------- eval

def _eval_batches(real: np.ndarray, synth: np.ndarray) -> dict:
    m_real = pearson_matrix(real)
    m_synth = pearson_matrix(synth)
    per_feature_w1 = {lab: wasserstein1(real[:, i], synth[:, i])
                      for i, lab in enumerate(TRANSITION_LABELS)}
    real_std = real.std(axis=0)
    synth_std = synth.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(real_std > 0, synth_std / real_std, np.nan)
    return {
        "corr_gap": corr_gap(m_real, m_synth),
        "corr_excluded_entries": corr_gap_excluded_count(m_real, m_synth),
        "zero_variance_real": [lab for lab, z in zip(TRANSITION_LABELS,
                                                     m_real.zero_variance) if z],
        "per_feature_w1": per_feature_w1,
        "std_ratio": {lab: (None if not np.isfinite(r) else float(r))
                      for lab, r in zip(TRANSITION_LABELS, ratio)},
        "n_real": int(real.shape[0]),
        "n_synth": int(synth.shape[0]),
    }


def cmd_eval(args) -> int:
    real = load_batch_csv(args.real)
    synth = load_batch_csv(args.synth)
    result = _eval_batches(real, synth)
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------- report

def cmd_report(args) -> int:
    run_dir = args.run_dir
    with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    report_dir = os.path.join(run_dir, "report")
    os.makedirs(report_dir, exist_ok=True)

    env = EnvConfig(**manifest["config"]["env"])
    oracle = regret_oracle(env)
    per_run = []
    logs = {}
    for entry in manifest["runs"]:
        method, seed = entry["method"], entry["seed"]
        files = entry["files"]
        log = runlog_from_csv(os.path.join(run_dir, files["runlog"]), method, seed)
        logs[(method, seed)] = (log, files)
        regret = empirical_regret(log, oracle)
        row = {
            "method": method, "seed": seed,
            "mean_fps": float(np.mean([s.fps for s in log.states])),
            "mean_reward": float(np.mean(log.rewards)),
            "qvalue_stability": qvalue_stability(log),
            "final_regret": float(regret[-1]),
        }
        if files.get("synth"):
            real = load_batch_csv(os.path.join(run_dir, files["real"]))
            synth = load_batch_csv(os.path.join(run_dir, files["synth"]))
            row["eval"] = _eval_batches(real, synth)
        per_run.append(row)

    methods = sorted({r["method"] for r in per_run})
    medians: dict[str, dict] = {}
    for method in methods:
        rows = [r for r in per_run if r["method"] == method]
        medians[method] = {
            "mean_fps": float(np.median([r["mean_fps"] for r in rows])),
            "mean_reward": float(np.median([r["mean_reward"] for r in rows])),
            "qvalue_stability": float(np.median([r["qvalue_stability"] for r in rows])),
            "final_regret": float(np.median([r["final_regret"] for r in rows])),
        }
        gaps = [r["eval"]["corr_gap"] for r in rows if "eval" in r]
        if gaps:
            medians[method]["corr_gap"] = float(np.median(gaps))

    gains = {}
    if "dfm" in methods and "model_free" in methods:
        seeds = sorted({r["seed"] for r in per_run if r["method"] == "dfm"})
        window = min(50, min(len(logs[(m, s)][0].t) for m in ("dfm", "model_free")
                             for s in seeds))
        vals = [early_fps_gain(logs[("dfm", s)][0], logs[("model_free", s)][0],
                               window=window) for s in seeds
                if ("model_free", s) in logs]
        if vals:
            gains = {"window": window, "per_seed": vals,
                     "median": float(np.median(vals))}

    payload = {"per_run": per_run, "medians": medians, "early_fps_gain": gains}
    _write_json(payload, os.path.join(report_dir, "report.json"))

    with open(os.path.join(report_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("method,seed,mean_fps,mean_reward,qvalue_stability,final_regret,corr_gap\n")
        for r in per_run:
            gap = r.get("eval", {}).get("corr_gap", "")
            fh.write(f"{r['method']},{r['seed']},{r['mean_fps']},{r['mean_reward']},"
                     f"{r['qvalue_stability']},{r['final_regret']},{gap}\n")

    # figures from the first seed of each method
    first_seed = manifest["runs"][0]["seed"]
    fps_series, maxq_series, regret_series = {}, {}, {}
    for method in methods:
        if (method, first_seed) not in logs:
            continue
        log, files = logs[(method, first_seed)]
        fps_series[method] = [s.fps for s in log.states]
        maxq_series[method] = log.max_q
        regret_series[method] = empirical_regret(log, oracle).tolist()
        if files.get("synth"):
            synth = load_batch_csv(os.path.join(run_dir, files["synth"]))
            m = pearson_matrix(synth)
            report.svg_heatmap(m.values, m.labels,
                               os.path.join(report_dir, f"corr_{method}.svg"),
                               title=f"synthetic correlations: {method}")
    real0 = load_batch_csv(os.path.join(run_dir,
                                        manifest["runs"][0]["files"]["real"]))
    m_real = pearson_matrix(real0)
    report.svg_heatmap(m_real.values, m_real.labels,
                       os.path.join(report_dir, "corr_real.svg"),
                       title="real-data correlations")
    report.svg_lines(fps_series, os.path.join(report_dir, "fps.svg"),
                     title="frame rate per step", ylabel="fps")
    report.svg_lines(maxq_series, os.path.join(report_dir, "max_q.svg"),
                     title="max Q at visited state", ylabel="max Q")
    report.svg_lines(regret_series, os.path.join(report_dir, "regret.svg"),
                     title="cumulative empirical regret", ylabel="regret")
    print(f"report written under {report_dir}")
    return 0


# ---------------------------------------------------------------- selftest

def _selftest_checks():
    rng = np.random.default_rng(0)

    def check_grads():
        worst = 0.0
        for sizes in ([4, 6, 6, 12], [12, 64, 64, 11], [5, 32, 32, 6]):
            p = nets.init_mlp(sizes, seed=3)
            x = rng.normal(size=(6, sizes[0]))
            y = rng.normal(size=(6, sizes[-1]))
            w = rng.uniform(0.1, 1.0, size=sizes[-1])
            worst = max(worst, nets.grad_check(p, x, y, w, rng=rng))
        return worst < 1e-4, f"max rel err {worst:.2e}"

    def check_pearson():
        data = rng.normal(size=(50, 11))
        m = pearson_matrix(data).values
        worst = 0.0
        for i in range(11):
            for j in range(11):
                xi, xj = data[:, i] - data[:, i].mean(), data[:, j] - data[:, j].mean()
                ref = np.sum(xi * xj) / np.sqrt(np.sum(xi ** 2) * np.sum(xj ** 2))
                worst = max(worst, abs(m[i, j] - ref))
        return worst < 1e-12, f"max abs err {worst:.2e}"

    def check_bootstrap():
        pool = np.arange(2000, dtype=np.float64)[:, None]
        reps = bootstrap_latents(pool, 8, rng)
        frac = np.mean([len(np.unique(r[:, 0])) / 2000 for r in reps])
        return abs(frac - (1 - 1 / np.e)) < 0.02, f"distinct fraction {frac:.4f}"

    def check_wasserstein():
        a = rng.uniform(0, 1, size=10_000)
        b = rng.uniform(0, 2, size=10_000)
        w = wasserstein1(a, b)
        return abs(w - 0.5) < 0.03, f"W1(U[0,1], U[0,2]) = {w:.4f}"

    def check_adam():
        p = nets.init_mlp([1, 1], seed=0)
        p.weights[0][:] = 0.0
        adam = nets.adam_init(p, lr=0.05)
        new, _ = nets.adam_step(p, [np.array([[3.0]])], [np.array([0.0])], adam)
        return abs(new.weights[0][0, 0] + 0.05) < 1e-6, \
            f"first step {new.weights[0][0, 0]:+.6f}"

    return [("gradient_check", check_grads), ("pearson_oracle", check_pearson),
            ("bootstrap_fraction", check_bootstrap),
            ("wasserstein_oracle", check_wasserstein),
            ("adam_first_step", check_adam)]


def cmd_selftest(args) -> int:
    ok = True
    for name, fn in _selftest_checks():
        passed, detail = fn()
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if ok else 1


# ---------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dvfsflow",
        description="flow-matching DVFS RL workbench: run, generate, evaluate, report")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="execute methods x seeds and write run logs")
    pr.add_argument("--config", help="JSON experiment config (defaults if omitted)")
    pr.add_argument("--methods", help="comma-separated override, e.g. dfm,model_free")
    pr.add_argument("--seeds", help="override, e.g. 0..4 or 0,3,7")
    pr.add_argument("--output", help="output directory override")
    pr.add_argument("--print-config", action="store_true",
                    help="echo the effective config and exit")
    pr.set_defaults(func=cmd_run)

    pg = sub.add_parser("gen", help="train the generator on a memory dump and sample")
    pg.add_argument("--memory", required=True, help="11-column transition CSV")
    pg.add_argument("--out", required=True, help="output CSV for synthetic samples")
    pg.add_argument("--n", type=int, default=1000)
    pg.add_argument("--config", help="JSON experiment config for flow/forest settings")
    pg.add_argument("--uniform-lambda", action="store_true",
                    help="skip forest weighting (plain conditional flow matching)")
    pg.add_argument("--checkpoint", help="optional path for the model checkpoint JSON")
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

    ps = sub.add_parser("selftest", help="gradient checks and metric oracles")
    ps.set_defaults(func=cmd_selftest)
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
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
