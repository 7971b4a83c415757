"""The benchmark's workloads: inputs, the timed call, output checks, quality.

Each workload is driven through dvfsflow's public API only.  ``prepare``
builds and validates the inputs (the set-up phase), ``execute`` is the timed
section, and ``evaluate`` checks the outputs and computes the simulated
quality metrics after the clock has stopped.

Why these three (see also BENCHMARK.json):
  dfm_default      the paper's headline method at its default config; flow
                   training and the forest dominate host time.
  model_free_long  no generator at all, a horizon four times the real memory
                   so FIFO eviction runs; Q-updates, replay memory and the
                   simulator dominate.  Flow and forest changes should not
                   move it.
  cli_pipeline     `dvfsflow run` + `dvfsflow report` with short flow training
                   and wide planning, so sampling, the codec, CSV I/O, the
                   model_based planner and reporting dominate.  The forest
                   does no work here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("dfm_default", "model_free_long", "cli_pipeline")
CLI_METHODS = ("pure_fm", "model_based", "model_free")

# Section overrides on top of dvfsflow's defaults.  "tiny" is the smoke-test size.
SIZES = {
    "full": {
        "dfm_default": {},
        "model_free_long": {"schedule": {"horizon": 8000, "real_capacity": 2000}},
        "cli_pipeline": {"flow": {"epochs": 40}, "schedule": {"planning_breadth": 5000}},
    },
    "tiny": {
        "dfm_default": {"schedule": {"horizon": 100}, "flow": {"epochs": 3},
                        "forest": {"n_trees": 3}},
        "model_free_long": {"schedule": {"horizon": 400, "real_capacity": 100}},
        "cli_pipeline": {"flow": {"epochs": 3},
                         "schedule": {"horizon": 100, "planning_breadth": 200}},
    },
}

# Faults the smoke test injects into an output before it is checked.
FAULTS = ("nan_synth", "nan_runlog")

NOT_APPLICABLE = 1.0    # synth_* on a workload without a generator


class Outcome:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name, fn, *args):
        """Call ``fn``; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark reports, it does not stop
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def prepare(workload, seed, size, workdir):
    """Set-up phase: build and validate the config, write input files."""
    from dvfsflow.config import config_from_dict

    payload = json.loads(json.dumps(SIZES[size][workload]))
    inputs = {"workload": workload, "seed": seed, "config": config_from_dict(payload),
              "workdir": workdir}
    if workload == "cli_pipeline":
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = os.path.join(workdir, "run")
        inputs["output_dir"] = out
        inputs["commands"] = [
            ["run", "--config", path, "--methods", ",".join(CLI_METHODS),
             "--seeds", f"{2 * seed},{2 * seed + 1}", "--output", out],
            ["report", "--run-dir", out],
        ]
    return inputs


def execute(inputs, outcome):
    """The timed section; returns what ``evaluate`` needs."""
    from dvfsflow import cli, orchestrate

    if inputs["workload"] == "cli_pipeline":
        for argv in inputs["commands"]:
            code = outcome.run(argv[0], cli.main, argv)
            outcome.check(f"dvfsflow {argv[0]} exit code", code == 0, f"exit {code}")
        return inputs["output_dir"]
    cfg = inputs["config"]
    method = "dfm" if inputs["workload"] == "dfm_default" else "model_free"
    return outcome.run(f"run_experiment({method})", orchestrate.run_experiment,
                       method, cfg.env, cfg.agent, cfg.schedule, inputs["seed"],
                       cfg.flow, cfg.forest)


def inject(inputs, result, fault):
    """Corrupt one output the way a defective program would."""
    from dvfsflow.flow import load_batch_csv, save_batch_csv

    tag = f"{CLI_METHODS[0]}_seed{2 * inputs['seed']}"
    if fault == "nan_runlog":
        if inputs["workload"] == "cli_pipeline":
            with open(os.path.join(result, f"runlog_{tag}.csv"), "a", encoding="utf-8") as fh:
                fh.write("999,nan,nan,nan,nan,0,nan,nan,nan,,\n")
        else:
            result.rewards[-1] = float("nan")
    elif fault == "nan_synth":
        if inputs["workload"] == "cli_pipeline":
            path = os.path.join(result, f"synth_{tag}.csv")
            batch = load_batch_csv(path)
            batch[0, 0] = np.nan
            save_batch_csv(batch, path)
        elif result.synth_raw is not None:
            result.synth_raw[0, 0] = np.nan


# ---------------------------------------------------------------- checks

def _check_runlog(outcome, tag, log, horizon):
    outcome.check(f"{tag}: run log has horizon rows", len(log.t) == horizon,
                  f"{len(log.t)} rows, horizon {horizon}")
    values = [v for s in log.states for v in (s.fps, s.freq, s.power, s.temp)]
    values += log.rewards + log.epsilons + log.max_q
    values += [v for v in log.agent_loss + log.fm_loss if v is not None]
    outcome.check(f"{tag}: run log is finite", bool(np.all(np.isfinite(values))))


def _check_synth(outcome, tag, batch, breadth):
    shape = None if batch is None else tuple(batch.shape)
    outcome.check(f"{tag}: synthetic batch shape", shape == (breadth, 11),
                  f"got {shape}, want ({breadth}, 11)")
    outcome.check(f"{tag}: synthetic batch is finite",
                  batch is not None and bool(np.all(np.isfinite(batch))))


def _check_phi(outcome, tag, phi_real, phi_synth, retrains, schedule):
    outcome.check(f"{tag}: phi_M counts every real push", phi_real == schedule.horizon,
                  f"phi_M {phi_real}, pushes {schedule.horizon}")
    want = retrains * schedule.planning_breadth
    outcome.check(f"{tag}: phi_M' counts every synthetic push", phi_synth == want,
                  f"phi_M' {phi_synth}, pushes {want}")


def _check_lambda(outcome, tag, lam):
    lam = np.asarray(lam if lam is not None else [np.nan], dtype=np.float64)
    ok = lam.shape == (11,) and bool(np.all(lam >= 0)) and abs(lam.sum() - 1.0) < 1e-9
    outcome.check(f"{tag}: lambda >= 0 and sums to 1", ok, f"lambda {lam.tolist()}")


# ---------------------------------------------------------------- quality

def _synth_quality(env, layout, real, synth):
    """(synth_w1, synth_reward_resid) of one synthetic batch against real M."""
    from dvfsflow.evalkit import wasserstein1
    from dvfsflow.flow import unflatten_transition
    from dvfsflow.simenv import reward_components

    scaled = [wasserstein1(real[:, i], synth[:, i]) / real[:, i].std()
              for i in range(real.shape[1]) if real[:, i].std() > 0]
    resid = [abs(row[9] - reward_components(unflatten_transition(row, layout).s_next,
                                            env).total) for row in synth]
    return float(np.mean(scaled)), float(np.median(resid))


def _run_quality(env, log):
    from dvfsflow.evalkit import empirical_regret
    from dvfsflow.orchestrate import regret_oracle

    mean_fps = float(np.mean([s.fps for s in log.states]))
    return mean_fps, float(empirical_regret(log, regret_oracle(env))[-1])


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def evaluate(inputs, result, outcome):
    """Check outputs; return (quality metrics, output digests)."""
    from dvfsflow.flow import TransitionLayout

    if result is None:
        return None, {}
    cfg = inputs["config"]
    layout = TransitionLayout(num_actions=cfg.env.num_actions,
                              ambient_temp=cfg.env.ambient_temp)
    if inputs["workload"] == "cli_pipeline":
        return _evaluate_cli(cfg, layout, result, outcome)
    return _evaluate_run(inputs, cfg, layout, result, outcome)


def _evaluate_run(inputs, cfg, layout, log, outcome):
    from dvfsflow.flow import save_batch_csv
    from dvfsflow.orchestrate import runlog_to_csv

    workload = inputs["workload"]
    sched = cfg.schedule
    _check_runlog(outcome, workload, log, sched.horizon)
    retrains = len(log.fm_train_steps)
    _check_phi(outcome, workload, log.phi_real[-1], log.phi_synth[-1], retrains, sched)
    mean_fps, regret = _run_quality(cfg.env, log)
    quality = {"mean_fps": mean_fps, "final_regret": regret,
               "synth_w1": NOT_APPLICABLE, "synth_reward_resid": NOT_APPLICABLE}
    digests = {}
    path = os.path.join(inputs["workdir"], "runlog.csv")
    runlog_to_csv(log, path)
    digests["runlog.csv"] = _sha256(path)
    if workload == "dfm_default":
        _check_lambda(outcome, workload, log.lambda_weights)
        _check_synth(outcome, workload, log.synth_raw, sched.planning_breadth)
        outcome.check("dfm_default: flow retrained", retrains > 0)
        if log.synth_raw is not None and np.all(np.isfinite(log.synth_raw)):
            quality["synth_w1"], quality["synth_reward_resid"] = _synth_quality(
                cfg.env, layout, log.real_flat, log.synth_raw)
        path = os.path.join(inputs["workdir"], "synth.csv")
        if log.synth_raw is not None:
            save_batch_csv(log.synth_raw, path)
            digests["synth.csv"] = _sha256(path)
    return quality, digests


def _evaluate_cli(cfg, layout, out, outcome):
    from dvfsflow.flow import load_batch_csv
    from dvfsflow.orchestrate import runlog_from_csv

    sched = cfg.schedule
    manifest_path = os.path.join(out, "manifest.json")
    if not outcome.check("cli_pipeline: manifest.json written",
                         os.path.exists(manifest_path)):
        return None, {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    written = sorted(f for f in os.listdir(out) if os.path.isfile(os.path.join(out, f)))
    outcome.check("cli_pipeline: manifest lists every written file",
                  written == sorted(manifest["outputs"]),
                  f"written {written}, listed {sorted(manifest['outputs'])}")
    outcome.check("cli_pipeline: report.json written",
                  os.path.exists(os.path.join(out, "report", "report.json")))

    per_run = []
    digests = {}
    for entry in manifest["runs"]:
        method, seed, files = entry["method"], entry["seed"], entry["files"]
        tag = f"cli_pipeline {method} seed {seed}"
        log = runlog_from_csv(os.path.join(out, files["runlog"]), method, seed)
        digests[files["runlog"]] = _sha256(os.path.join(out, files["runlog"]))
        _check_runlog(outcome, tag, log, sched.horizon)
        with open(os.path.join(out, files["summary"]), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        _check_phi(outcome, tag, summary["phi_real_final"], summary["phi_synth_final"],
                   len(summary["fm_train_steps"]), sched)
        synth = None
        if method != "model_free":
            outcome.check(f"{tag}: synthetic batch written", bool(files.get("synth")))
            if files.get("synth"):
                synth = load_batch_csv(os.path.join(out, files["synth"]))
                digests[files["synth"]] = _sha256(os.path.join(out, files["synth"]))
                _check_synth(outcome, tag, synth, sched.planning_breadth)
        if method == "pure_fm" and synth is not None and np.all(np.isfinite(synth)):
            real = load_batch_csv(os.path.join(out, files["real"]))
            per_run.append(_run_quality(cfg.env, log)
                           + _synth_quality(cfg.env, layout, real, synth))
    if not per_run:
        return None, digests
    cols = np.mean(np.array(per_run), axis=0)
    names = ("mean_fps", "final_regret", "synth_w1", "synth_reward_resid")
    return {n: float(v) for n, v in zip(names, cols)}, digests


def finite_quality(quality):
    return quality is not None and all(math.isfinite(v) for v in quality.values())
