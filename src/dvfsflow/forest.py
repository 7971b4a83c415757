"""Random-forest feature importances and the normalized weights they supply.

The forest exists only for its importances: trees are grown on bootstrap
resamples, split on variance reduction with sqrt(d) features considered per
split, and keep no thresholds or leaf values.  Each split contributes
(node_samples / total_samples) * variance_reduction to its feature; a tree
sums its splits in a fixed order (preorder, right subtree first), raw
importances are averaged over trees, then normalized to sum 1.  The
transition weighting fits one forest per next-state column of the (n, 11)
transition array and mirrors the input weights onto all 11 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError, InsufficientDataError, NumericError


@dataclass
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 6
    min_leaf: int = 5
    min_samples: int = 50               # floor for transition_feature_weights

    def validate(self) -> None:
        for name in ("n_trees", "max_depth", "min_leaf"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.min_samples < 2 * self.min_leaf:
            raise ConfigurationError(
                f"min_samples must be >= 2 * min_leaf = {2 * self.min_leaf}, "
                f"got {self.min_samples}")


def _best_splits(block: np.ndarray, y: np.ndarray,
                 min_leaf: int) -> list[tuple[float, float]]:
    """Best (gain, threshold) for each column of the (n, k) candidate block, or
    (-inf, 0) for a column with no valid split.

    Gain is the variance reduction var(parent) - (nL/n) var(L) - (nR/n) var(R),
    evaluated at midpoints between consecutive distinct sorted values.  Every
    column gets the float64 arithmetic a one-column scan would do.
    """
    n, k = block.shape
    lo, hi = min_leaf, n - min_leaf
    if hi < lo:
        return [(-np.inf, 0.0)] * k
    cols = np.arange(k)
    order = block.argsort(axis=0, kind="stable")
    xs = block[order, cols]
    ys = y[order]
    csum = ys.cumsum(axis=0)
    ys *= ys
    csum2 = ys.cumsum(axis=0)
    # Scalar arithmetic per column, on purpose: NumPy's scalar ``x ** 2`` goes
    # through libm pow, which differs in the last bit from the array square
    # for about 80 in 100,000 values.  As one array expression, total_var
    # moves some split choices and with them the forest weights and run outputs.
    total_var = np.array([csum2[-1, j] / n - (csum[-1, j] / n) ** 2 for j in range(k)])

    sizes_l = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    sum_l = csum[lo - 1:hi]
    sum2_l = csum2[lo - 1:hi]
    var_l = sum2_l / sizes_l - (sum_l / sizes_l) ** 2
    sizes_r = n - sizes_l
    var_r = (csum2[-1] - sum2_l) / sizes_r - ((csum[-1] - sum_l) / sizes_r) ** 2
    gains = total_var - (sizes_l * var_l + sizes_r * var_r) / n
    gains[xs[lo:hi + 1] <= xs[lo - 1:hi]] = -np.inf   # split only between distinct values
    at = gains.argmax(axis=0)
    best = gains[at, cols]
    thresholds = 0.5 * (xs[lo - 1 + at, cols] + xs[lo + at, cols])
    found = np.isfinite(best) & (best > 0)
    return [(g, t) if ok else (-np.inf, 0.0)
            for g, t, ok in zip(best.tolist(), thresholds.tolist(), found.tolist())]


def _impurity(ys: np.ndarray) -> float:
    """The targets' variance, reduced exactly as ``np.var`` reduces it."""
    n = ys.size
    dev = ys - np.add.reduce(ys) / n
    dev *= dev
    return float(np.add.reduce(dev) / n)


def _grow(x: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int, n_sub: int,
          rng: np.random.Generator) -> np.ndarray:
    """Grow one tree on (x, y) and return its raw importance per feature.

    Nodes are split in preorder, left subtree first, so every node's feature
    draw comes from ``rng`` in the order a recursive build would make it.  A
    node is known by its path from the root (1 = left, 0 = right), and each
    split is recorded as (path, feature, node share * variance reduction).
    """
    n_root = y.size
    splits = []
    stack = [((), np.arange(n_root), y)]
    while stack:
        path, rows, ys = stack.pop()
        if len(path) >= max_depth or ys.size < 2 * min_leaf or _impurity(ys) <= 1e-15:
            continue
        features = rng.choice(x.shape[1], size=n_sub, replace=False)
        block = x[rows[:, None], features]
        best_gain, best_col, best_thr = 0.0, -1, 0.0
        for j, (gain, thr) in enumerate(_best_splits(block, ys, min_leaf)):
            if gain > best_gain:
                best_gain, best_col, best_thr = gain, j, thr
        if best_col < 0:
            continue
        splits.append((path, int(features[best_col]), ys.size / n_root * best_gain))
        left = block[:, best_col] <= best_thr
        right = ~left
        stack.append((path + (0,), rows[right], ys[right]))
        stack.append((path + (1,), rows[left], ys[left]))
    imp = np.zeros(x.shape[1])
    # Preorder, right subtree first: the pinned λ depends on this order to the last bit.
    for _, feature, value in sorted(splits):
        imp[feature] += value
    return imp


def fit_forest(x: np.ndarray, y: np.ndarray, n_trees: int = 50, max_depth: int = 6,
               min_leaf: int = 5, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Raw importances of a variance-reduction forest fit on bootstrap
    resamples, averaged over trees; deterministic per seed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DomainError("x must be (n, d) and y (n,) with matching n")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("NaN/inf in forest training data")
    n, d = x.shape
    if n < 2 * min_leaf:
        raise InsufficientDataError(f"need at least {2 * min_leaf} samples, got {n}")
    if n_trees < 1:
        raise DomainError("n_trees must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    n_sub = max(1, int(np.ceil(np.sqrt(d))))

    importances = np.zeros(d)
    for child in rng.spawn(n_trees):
        boot = child.integers(0, n, size=n)
        importances += _grow(x[boot], y[boot], max_depth, min_leaf, n_sub, child)
    importances /= n_trees
    return importances


def normalized_importances(importances: np.ndarray) -> np.ndarray:
    """Importances scaled to sum 1; uniform fallback when every importance is zero."""
    total = importances.sum()
    if total <= 0:
        return np.full(importances.size, 1.0 / importances.size)
    return importances / total


def transition_feature_weights(data: np.ndarray,
                               config: Optional[ForestConfig] = None,
                               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Per-dimension loss weights for the flattened (n, 11) transition array.

    Fits one forest per next-state field (columns 5-8) on the state and the
    encoded action (columns 0-4), averages the normalized input importances
    across the four forests (so each prediction target counts equally
    regardless of its variance scale), then mirrors the state weights onto the
    next-state dims; reward and done receive the mean state weight.  The full
    11-vector is renormalized to sum 1.  Splits depend only on the order of a
    feature's values, which a / (num_actions - 1) keeps, so the encoded action
    gives the same weights as the raw action index.
    """
    config = config or ForestConfig()
    if data.ndim != 2 or data.shape[1] != 11:
        raise DomainError(f"transitions must be an (n, 11) array, got shape {data.shape}")
    if data.shape[0] < config.min_samples:
        raise InsufficientDataError(
            f"feature weighting needs >= {config.min_samples} transitions, "
            f"got {data.shape[0]}")
    rng = np.random.default_rng(0) if rng is None else rng
    x, targets = data[:, :5], data[:, 5:9]

    acc = np.zeros(5)
    for j, child in enumerate(rng.spawn(4)):
        f = fit_forest(x, targets[:, j], n_trees=config.n_trees,
                       max_depth=config.max_depth, min_leaf=config.min_leaf, rng=child)
        acc += normalized_importances(f)
    total = acc.sum()
    w_in = np.full(5, 1.0 / 5) if total <= 0 else acc / total

    state_mean = float(w_in[:4].mean())
    full = np.concatenate([w_in[:4], w_in[4:5], w_in[:4], [state_mean, state_mean]])
    return full / full.sum()
