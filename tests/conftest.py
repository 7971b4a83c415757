"""Helpers shared by the test modules."""

import os
from dataclasses import replace

import numpy as np

from dvfsflow.errors import ConfigurationError
from dvfsflow.flow import FLOW_CHECKPOINT_VERSION, FlowModel, FMConfig, Normalizer
from dvfsflow.nets import CHECKPOINT_VERSION, MlpParams
from dvfsflow.simenv import EnvConfig, _level_table


def noiseless(config: EnvConfig) -> EnvConfig:
    """Copy of ``config`` with observation noise switched off."""
    return replace(config, noise_std_fps=0.0, noise_std_temp=0.0)


def frequency_levels(config: EnvConfig) -> np.ndarray:
    """The k discrete normalized frequencies, uniformly spaced in [min_freq, 1]."""
    return np.array(_level_table(config.min_freq, config.num_actions))


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


def params_from_dict(payload: dict) -> MlpParams:
    """Read back a net checkpoint written by ``nets.params_to_dict``."""
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {payload.get('version')!r}")
    sizes = [int(s) for s in payload["layer_sizes"]]
    if payload["activation"] != "tanh":
        raise ConfigurationError(f"unknown activation tag {payload['activation']!r}")
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = np.array(payload["weights"][l], dtype=np.float64)
        b = np.array(payload["biases"][l], dtype=np.float64)
        if w.shape != (fan_out * fan_in,) or b.shape != (fan_out,):
            raise ConfigurationError("checkpoint weight or bias shape mismatch")
        weights.append(w)
        biases.append(b)
    return MlpParams(layer_sizes=sizes, flat=np.concatenate(weights + biases))


def flow_model_from_dict(payload: dict) -> FlowModel:
    """Read back a flow checkpoint written by ``flow.flow_model_to_dict``
    (``dvfsflow gen --checkpoint``)."""
    if payload.get("version") != FLOW_CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported flow checkpoint version {payload.get('version')!r}, "
            f"expected {FLOW_CHECKPOINT_VERSION}")
    return FlowModel(
        params=params_from_dict(payload["net"]),
        normalizer=Normalizer(mean=np.array(payload["normalizer"]["mean"]),
                              std=np.array(payload["normalizer"]["std"])),
        weights=np.array(payload["weights"]),
        config=FMConfig(**payload["config"]),
        loss_curve=list(payload["loss_curve"]),
    )
