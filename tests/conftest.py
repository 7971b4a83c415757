"""Helpers shared by the test modules."""

import os
from dataclasses import replace

import numpy as np

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

