"""Evaluation metrics: correlation fidelity, distribution diversity,
early frame-rate gain, Q-value stability, and empirical regret.

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


def _sorted_quantile(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(s, q)`` (method 'linear') of a sorted 1-d array, float for
    float: the same virtual indices, gamma and two-branch lerp, minus the
    partition that ``np.quantile`` runs first."""
    virtual = (s.size - 1) * q
    prev = np.floor(virtual)
    nxt = prev + 1
    last = virtual >= s.size - 1
    prev[last] = nxt[last] = -1
    gamma = virtual - prev
    a, b = s[prev.astype(np.intp)], s[nxt.astype(np.intp)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return np.full_like(out, np.nan) if np.isnan(s[-1]) else out   # NaN sorts last


def wasserstein1(a: np.ndarray, b: np.ndarray) -> float:
    """1-d earth-mover distance via averaged quantile differences.

    Equal-length samples reduce to the mean absolute difference of the sorted
    arrays; otherwise both empirical quantile functions are evaluated on a
    common mid-point grid with numpy's 'linear' quantile, read off the sorted
    arrays without a partition.  NaN in either sample gives NaN.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise DomainError("wasserstein1 needs non-empty samples")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    m = max(a.size, b.size)
    q = (np.arange(m) + 0.5) / m
    qa = _sorted_quantile(a, q)
    qb = _sorted_quantile(b, q)
    return float(np.mean(np.abs(qa - qb)))


def empirical_regret(runlog, oracle: Callable[[object], float]) -> np.ndarray:
    """Cumulative regret trace: Reg(T') = sum_{t<=T'} (mu*(s_t) - r_t).

    ``oracle`` maps a visited state to the best noise-free one-step expected
    reward for the run's environment config: orchestrate.regret_oracle, the max
    of one simenv.law call over the state's actions.
    """
    per_step = np.array([oracle(s) - r for s, r in zip(runlog.states, runlog.rewards)])
    return np.cumsum(per_step)


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
