"""Helpers shared by the test modules."""

import os
from dataclasses import replace
from typing import Optional

import numpy as np

from dvfsflow.nets import MlpParams, loss_and_grads
from dvfsflow.simenv import EnvConfig, level_table


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
