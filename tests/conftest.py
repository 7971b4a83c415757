"""Helpers shared by the test modules."""

import json
import os
from dataclasses import replace
from typing import Optional

import numpy as np

from dvfsflow.config import ExperimentConfig, config_to_dict
from dvfsflow.files import runlog_to_csv, save_batch_csv
from dvfsflow.flow import TRANSITION_DIM
from dvfsflow.nets import MlpParams, loss_and_grads
from dvfsflow.orchestrate import RunLog
from dvfsflow.simenv import EnvConfig, ProcessorState, level_table


def noiseless(config: EnvConfig) -> EnvConfig:
    """Copy of ``config`` with observation noise switched off."""
    return replace(config, noise_std_fps=0.0, noise_std_temp=0.0)


def frequency_levels(config: EnvConfig) -> np.ndarray:
    """The k discrete normalized frequencies, uniformly spaced in [min_freq, 1]."""
    return np.array(level_table(config).freq)


def steady_state_temp(freq: float, config: EnvConfig) -> float:
    """Fixed point of the noise-free thermal update for a held frequency."""
    p_dyn = config.dyn_coeff * freq ** config.eta
    denom = 1.0 - config.thermal_resistance * config.static_coeff
    return (config.ambient_temp + config.thermal_resistance * p_dyn) / denom


def usable_cores(monkeypatch, n: int, blas_threads="1") -> None:
    """Make ``n`` cores usable, at ``blas_threads`` BLAS threads per process
    (None leaves the count unset: a thread per core)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)


def grad_check(params: MlpParams, x: np.ndarray, y: np.ndarray, weights: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between analytic and central-difference gradients
    (step 1e-5) over 50 random parameters, or all of them in smaller nets.
    Informational: never raises on mismatch."""
    rng = np.random.default_rng(0) if rng is None else rng
    h = 1e-5
    _, gw, gb = loss_and_grads(params, x, y, weights)
    flat_analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])
    total = flat_analytic.size
    n_check = min(total, 50)
    idx = rng.choice(total, size=n_check, replace=False)

    max_rel = 0.0
    for i in idx:
        i = int(i)
        params.flat[i] += h             # same order as the analytic vector
        lp, _, _ = loss_and_grads(params, x, y, weights)
        params.flat[i] -= 2 * h
        lm, _, _ = loss_and_grads(params, x, y, weights)
        params.flat[i] += h
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(flat_analytic[i]) + abs(numeric), 1e-8)
        max_rel = max(max_rel, abs(flat_analytic[i] - numeric) / denom)
    return max_rel


def write_run_dir(path, runs) -> None:
    """Fabricate a ``dvfsflow run`` directory under ``path`` for ``report``: for
    each (method, seed, steps, real_rows, synth_rows) of ``runs``, a run log of
    ``steps`` random steps and random batches of those sizes (no synthetic batch
    where ``synth_rows`` is None), named as ``run`` names them, and a manifest
    that lists the runs in order under the default config."""
    os.makedirs(path, exist_ok=True)
    manifest = {"version": 1, "config": config_to_dict(ExperimentConfig()), "runs": []}
    for k, (method, seed, steps, real_rows, synth_rows) in enumerate(runs):
        rng = np.random.default_rng([seed, k])
        tag = f"{method}_seed{seed}"
        files = {"runlog": f"runlog_{tag}.csv", "real": f"real_{tag}.csv", "synth": None}
        log = RunLog(method, seed, {}, t=list(range(1, steps + 1)),
                     states=[ProcessorState(*row) for row in
                             rng.uniform([5.0, 0.3, 1.0, 30.0], [60.0, 1.0, 9.0, 90.0],
                                         size=(steps, 4)).tolist()],
                     actions=rng.integers(0, 12, size=steps).tolist(),
                     rewards=rng.normal(size=steps).tolist(),
                     epsilons=rng.uniform(size=steps).tolist(),
                     max_q=rng.normal(size=steps).tolist(),
                     agent_loss=[None] * (steps // 2)
                                + rng.uniform(size=steps - steps // 2).tolist(),
                     fm_loss=[None] * steps)
        runlog_to_csv(log, os.path.join(path, files["runlog"]))
        save_batch_csv(rng.uniform(size=(real_rows, TRANSITION_DIM)),
                       os.path.join(path, files["real"]))
        if synth_rows is not None:
            files["synth"] = f"synth_{tag}.csv"
            save_batch_csv(rng.uniform(size=(synth_rows, TRANSITION_DIM)),
                           os.path.join(path, files["synth"]))
        manifest["runs"].append({"method": method, "seed": seed, "files": files})
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
