"""Evaluation metrics: correlation fidelity, distribution diversity,
early frame-rate gain, Q-value stability, and empirical regret.

Each quantity has one formula, computed on arrays.  :func:`wasserstein1` is
the exact W1 = integral of |F_a - F_b| of the two samples' empirical CDFs, a
finite sum over their merged sorted support, for any two sample sizes.
:func:`empirical_regret` takes an oracle that maps a sequence of states to the
array of their best one-step expected rewards, such as
:func:`orchestrate.regret_oracle` (one :func:`simenv.law` call for them all).

All functions are pure; the same inputs always give the same outputs.
Zero-variance columns produce NaN correlation rows/columns which are flagged
rather than dropped, and excluded from the correlation gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError
from .flow import TRANSITION_LABELS


@dataclass
class CorrelationMatrix:
    values: np.ndarray                 # (d, d), symmetric, unit diagonal
    labels: list[str]
    zero_variance: list[bool] = field(default_factory=list)

    def __post_init__(self):
        if not self.zero_variance:
            self.zero_variance = [False] * len(self.labels)


def pearson_matrix(data: np.ndarray, labels: Sequence[str] | None = None) -> CorrelationMatrix:
    """Pairwise Pearson coefficients of the columns of ``data`` (n >= 2 rows).

    Columns with zero variance yield NaN rows/columns and are flagged in the
    result's metadata instead of being silently dropped.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DomainError("data must be a 2-d matrix")
    n, d = data.shape
    if n < 2:
        raise InsufficientDataError("pearson_matrix needs at least 2 rows")
    labels = list(labels) if labels is not None else list(TRANSITION_LABELS[:d])
    if len(labels) != d:
        raise DomainError("label count must match column count")

    centered = data - data.mean(axis=0)
    ssq = np.sum(centered * centered, axis=0)
    zero = ssq == 0.0
    denom = np.sqrt(np.outer(ssq, ssq))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (centered.T @ centered) / denom
    corr[zero, :] = np.nan
    corr[:, zero] = np.nan
    np.fill_diagonal(corr, np.where(zero, np.nan, 1.0))
    return CorrelationMatrix(values=corr, labels=labels, zero_variance=zero.tolist())


def corr_gap(real: CorrelationMatrix, synth: CorrelationMatrix) -> float:
    """Mean absolute off-diagonal difference over entries finite in both matrices."""
    if real.labels != synth.labels:
        raise DomainError("correlation matrices have mismatched labels")
    a, b = real.values, synth.values
    mask = np.isfinite(a) & np.isfinite(b)
    np.fill_diagonal(mask, False)
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(a[mask] - b[mask])))


def corr_gap_excluded_count(real: CorrelationMatrix, synth: CorrelationMatrix) -> int:
    """Off-diagonal entries dropped from the gap because either side is NaN."""
    a, b = real.values, synth.values
    mask = np.isfinite(a) & np.isfinite(b)
    d = a.shape[0]
    return int(d * (d - 1) - (mask.sum() - np.trace(mask)))


def wasserstein1(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-d earth-mover distance of two empirical distributions, of any
    sizes: the sum of |F_a - F_b| dx over the steps of their merged sorted
    support, in O((n + m) log(n + m)).  NaN in either sample gives NaN."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise DomainError("wasserstein1 needs non-empty samples")
    x = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, x[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, x[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(x)))


def empirical_regret(runlog, oracle: Callable[[Sequence], np.ndarray]) -> np.ndarray:
    """Cumulative regret trace: Reg(T') = sum_{t<=T'} (mu*(s_t) - r_t), with
    ``oracle`` called once on all of the run's visited states."""
    return np.cumsum(oracle(runlog.states) - np.asarray(runlog.rewards, dtype=np.float64))


def early_fps_gain(runlog_a, runlog_b, window: int = 50) -> float:
    """Ratio of mean fps over the first ``window`` steps of the two runs."""
    if len(runlog_a.states) < window or len(runlog_b.states) < window:
        raise InsufficientDataError(f"both logs must cover {window} steps")
    fps_a = np.array([s.fps for s in runlog_a.states[:window]])
    fps_b = np.array([s.fps for s in runlog_b.states[:window]])
    return float(fps_a.mean() / fps_b.mean())


def qvalue_stability(runlog) -> float:
    """Population std of per-step max-Q over the final quarter of the run."""
    n = len(runlog.max_q)
    if n < 8:
        raise InsufficientDataError("run log too short for a stability estimate")
    tail = np.asarray(runlog.max_q[int(np.floor(n * 0.75)):])
    return float(np.std(tail))
