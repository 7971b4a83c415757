"""Evaluation metrics: correlation fidelity, distribution diversity,
early frame-rate gain, Q-value stability, and empirical regret.

Each quantity has one formula, computed on arrays.  :func:`wasserstein1` is
the exact W1 = integral of |F_a - F_b| of the two samples' empirical CDFs, a
finite sum over their merged sorted support, for any two sample sizes.
:func:`empirical_regret` takes an oracle that maps a sequence of states to the
array of their best one-step expected rewards, such as
:func:`orchestrate.regret_oracle` (one :func:`simenv.law` call for them all).
:func:`median` is ``np.median`` of a list of floats without its ``numpy.ma``
import.

All functions are pure; the same inputs always give the same outputs.
A correlation matrix is a plain (d, d) array.  A column has zero variance when
all its values are equal; its row, column and diagonal entry are NaN, so the
NaN diagonal entries are the zero-variance flags, and those entries are left
out of the correlation gap.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError


def pearson_matrix(data: np.ndarray) -> np.ndarray:
    """The (d, d) Pearson coefficients of the columns of ``data`` (n >= 2 rows):
    symmetric with a unit diagonal, except that a column whose values are all
    equal has NaN in its row, its column and its diagonal entry."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DomainError("data must be a 2-d matrix")
    if data.shape[0] < 2:
        raise InsufficientDataError("pearson_matrix needs at least 2 rows")
    # exact: a constant column's mean may be an ulp off its value
    zero = np.all(data == data[0], axis=0)
    centered = data - data.mean(axis=0)
    ssq = np.sum(centered * centered, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = (centered.T @ centered) / np.sqrt(np.outer(ssq, ssq))
    corr[zero, :] = np.nan
    corr[:, zero] = np.nan
    np.fill_diagonal(corr, np.where(zero, np.nan, 1.0))
    return corr


def _finite_off_diagonal(real: np.ndarray, synth: np.ndarray) -> np.ndarray:
    if real.shape != synth.shape:
        raise DomainError(f"correlation matrices have mismatched shapes "
                          f"{real.shape} and {synth.shape}")
    mask = np.isfinite(real) & np.isfinite(synth)
    np.fill_diagonal(mask, False)
    return mask


def corr_gap(real: np.ndarray, synth: np.ndarray) -> float:
    """Mean absolute off-diagonal difference of two :func:`pearson_matrix`
    results, over the entries finite in both; 0.0 when there are none."""
    mask = _finite_off_diagonal(real, synth)
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(real[mask] - synth[mask])))


def corr_gap_excluded_count(real: np.ndarray, synth: np.ndarray) -> int:
    """Off-diagonal entries dropped from the gap because either side is NaN."""
    d = real.shape[0]
    return int(d * (d - 1) - _finite_off_diagonal(real, synth).sum())


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


def early_fps_gain(fps_a: Sequence[float], fps_b: Sequence[float], window: int = 50) -> float:
    """Ratio of mean fps over the first ``window`` steps of two runs, given the
    per-step frame rates of each (at least ``window`` of them)."""
    if len(fps_a) < window or len(fps_b) < window:
        raise InsufficientDataError(f"both logs must cover {window} steps")
    return float(np.array(fps_a[:window]).mean() / np.array(fps_b[:window]).mean())


def median(values: Sequence[float]) -> float:
    """``float(np.median(values))`` of a non-empty sequence of floats, bit for bit
    and NaN if any value is NaN: the same partition and mean, but without the
    ``numpy.ma`` import that ``np.median``'s NaN check makes on its first call."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("median needs a non-empty 1-d sequence")
    half = a.size // 2
    if a.size % 2:
        part = np.partition(a, [half, -1])          # np.median's kth, NaNs sort last
        middle = part[half:half + 1]
    else:
        part = np.partition(a, [half - 1, half, -1])
        middle = part[half - 1:half + 1]
    mid = middle.mean()
    return float(part[-1] if np.isnan(part[-1]) else mid)


def qvalue_stability(runlog) -> float:
    """Population std of per-step max-Q over the final quarter of the run."""
    n = len(runlog.max_q)
    if n < 8:
        raise InsufficientDataError("run log too short for a stability estimate")
    tail = np.asarray(runlog.max_q[int(np.floor(n * 0.75)):])
    return float(np.std(tail))
