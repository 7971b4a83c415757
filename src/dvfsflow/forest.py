"""Random-forest feature importances and the normalized weights they supply.

The forest exists only for its importances: trees are grown on bootstrap
resamples, split on variance reduction with sqrt(d) features considered per
split, and keep no thresholds or leaf values.  Each split contributes
(node_samples / total_samples) * variance_reduction to its feature; a tree
sums its splits in a fixed order (preorder, right subtree first), raw
importances are averaged over trees, then normalized to sum 1.  The
transition weighting fits one forest per next-state column of the (n, 11)
transition array and mirrors the input weights onto all 11 columns.  Its four
forests go through :func:`spread.spread`, so some may grow in forked helper
processes; each draws only on its own generator, and their normalized
importances are added in target order 0..3 wherever they grew.

Every setting comes from :class:`ForestConfig` and every draw from the caller's
generator: ``fit_forest(x, y, config, rng)`` and
``transition_feature_weights(data, config, rng)`` have no defaults.

A forest grows its trees in lockstep rounds.  Each tree keeps its own
generator, node stack and split records; in a round every unfinished tree
takes its next splittable node in its own preorder and draws that node's
features, so each generator's draws match a tree grown alone.  The round's
candidate columns are then scored together on blocks padded to the largest
node (x with +inf, y with 0), which leaves every real row's sorted order and
cumulative sums bit-identical to a one-node scan.  The fixed sum order of
each tree's records keeps λ bit-identical to a tree grown alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, InsufficientDataError, NumericError,
                     check_domains, domain)
from .spread import spread


@dataclass
class ForestConfig:
    n_trees: int = domain(">= 1", default=50)
    max_depth: int = domain(">= 1", default=6)
    min_leaf: int = domain(">= 1", default=5)
    min_samples: int = 50               # floor for transition_feature_weights

    def validate(self) -> None:
        check_domains("forest", self)
        if self.min_samples < 2 * self.min_leaf:
            raise ConfigurationError(
                f"forest.min_samples must be >= 2 * forest.min_leaf = {2 * self.min_leaf}, "
                f"got {self.min_samples}")


# Most cells (rows x columns) of one padded block.  Nodes are sorted by size,
# so a block pads little, and the cap bounds the scorer's temporaries however
# many trees grow together.  Fitting one forest of 50 trees on 200 rows peaked
# 0.4 MB above a forest grown one tree at a time at this cap, and 2.3 MB with
# blocks of 32 nodes whatever their size.
_BLOCK_CELLS = 4096


def _best_splits(x: np.ndarray, y: np.ndarray, nodes: list[tuple[np.ndarray, np.ndarray]],
                 min_leaf: int) -> list[list[tuple[float, float]]]:
    """Best (gain, threshold) for each candidate feature of each node, or
    (-inf, 0) for a feature with no valid split.  A node is (rows, features):
    the rows of (x, y) it holds and the columns of x it considers.

    Gain is the variance reduction var(parent) - (nL/n) var(L) - (nR/n) var(R),
    evaluated at midpoints between consecutive distinct sorted values.  The
    nodes are scored together, up to ``_BLOCK_CELLS`` cells at a time, on one
    block padded to the largest node: x with +inf and y with 0 below each node's
    rows, so the stable sort and the sequential cumulative sums give every
    real row the bits a one-column scan of that node would give it.
    """
    out: list[list[tuple[float, float]]] = [[] for _ in nodes]
    chunks: list[list[int]] = []
    width = 0                           # columns in the last chunk
    for i in sorted(range(len(nodes)), key=lambda i: nodes[i][0].size):
        rows, features = nodes[i]
        if chunks and rows.size * (width + features.size) <= _BLOCK_CELLS:
            chunks[-1].append(i)
            width += features.size
        else:
            chunks.append([i])
            width = features.size
    for chunk in chunks:
        n = [nodes[i][0].size for i in chunk for _ in nodes[i][1]]   # real rows per column
        k = len(n)
        lo, hi = min_leaf, max(n) - min_leaf
        if hi < lo:
            for i in chunk:
                out[i] = [(-np.inf, 0.0)] * nodes[i][1].size
            continue
        block = np.full((max(n), k), np.inf)
        y_block = np.zeros(block.shape)
        col = 0
        for i in chunk:
            rows, features = nodes[i]
            block[:rows.size, col:col + features.size] = x[rows[:, None], features]
            y_block[:rows.size, col:col + features.size] = y[rows, None]
            col += features.size
        cols = np.arange(k)
        order = block.argsort(axis=0, kind="stable")
        xs = block[order, cols]
        ys = y_block[order, cols]
        del block, y_block, order           # each buffer is freed once read: they set peak memory
        csum = ys.cumsum(axis=0)
        ys *= ys
        csum2 = ys.cumsum(axis=0)
        del ys
        last = np.array(n) - 1
        total, total2 = csum[last, cols], csum2[last, cols]
        # Scalar arithmetic per column, on purpose: NumPy's scalar ``x ** 2`` goes
        # through libm pow, which differs in the last bit from the array square
        # for about 80 in 100,000 values.  As one array expression, total_var
        # moves some split choices and with them the forest weights and run outputs.
        total_var = np.array([total2[j] / n[j] - (total[j] / n[j]) ** 2 for j in range(k)])

        n_col = np.array(n, dtype=np.float64)
        sizes_l = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
        sum_l = csum[lo - 1:hi]
        sum2_l = csum2[lo - 1:hi]
        var_l = sum2_l / sizes_l - (sum_l / sizes_l) ** 2
        sizes_r = n_col - sizes_l
        with np.errstate(divide="ignore", invalid="ignore"):   # padding rows, masked below
            var_r = (total2 - sum2_l) / sizes_r - ((total - sum_l) / sizes_r) ** 2
            del csum, csum2, sum_l, sum2_l
            # gains = total_var - (sizes_l * var_l + sizes_r * var_r) / n, in place
            var_l *= sizes_l
            var_r *= sizes_r
            var_l += var_r
            var_l /= n_col
            gains = np.subtract(total_var, var_l, out=var_l)
        del var_r
        gains[xs[lo:hi + 1] <= xs[lo - 1:hi]] = -np.inf   # split only between distinct values
        gains[sizes_r < min_leaf] = -np.inf               # right child too small or padding
        at = gains.argmax(axis=0)
        best = gains[at, cols]
        thresholds = 0.5 * (xs[lo - 1 + at, cols] + xs[lo + at, cols])
        found = np.isfinite(best) & (best > 0)
        scores = [(g, t) if ok else (-np.inf, 0.0)
                  for g, t, ok in zip(best.tolist(), thresholds.tolist(), found.tolist())]
        col = 0
        for i in chunk:
            out[i] = scores[col:col + nodes[i][1].size]
            col += nodes[i][1].size
    return out


def _impurity(ys: np.ndarray) -> float:
    """The targets' variance, reduced exactly as ``np.var`` reduces it."""
    n = ys.size
    dev = ys - np.add.reduce(ys) / n
    dev *= dev
    return float(np.add.reduce(dev) / n)


def _grow_trees(x: np.ndarray, y: np.ndarray, boots: list[np.ndarray], max_depth: int,
                min_leaf: int, n_sub: int,
                rngs: list[np.random.Generator]) -> list[np.ndarray]:
    """Grow one tree per bootstrap row index ``boots[t]`` of (x, y), all in
    lockstep, and return each tree's raw importance per feature.

    Every tree splits its nodes in preorder, left subtree first, and draws a
    node's features from its own ``rngs[t]`` just before the node is scored,
    so each generator's draws come in the order a recursive build of that tree
    alone would make them.  A round takes the next splittable node of every
    unfinished tree (leaf checks draw nothing) and scores all their candidate
    features in one :func:`_best_splits` call.  A node is known by its path from
    the root (1 = left, 0 = right), and each split is recorded as (path,
    feature, node share * variance reduction).
    """
    d = x.shape[1]
    stacks = [[((), boot)] for boot in boots]
    splits: list[list[tuple[tuple[int, ...], int, float]]] = [[] for _ in boots]
    live = range(len(boots))
    while live:
        nodes = []
        for t in live:
            stack = stacks[t]
            while stack:
                path, rows = stack.pop()
                if (len(path) < max_depth and rows.size >= 2 * min_leaf
                        and _impurity(y[rows]) > 1e-15):
                    nodes.append((t, path, rows, rngs[t].choice(d, size=n_sub, replace=False)))
                    break
        live = [t for t, _, _, _ in nodes]
        scores = _best_splits(x, y, [(rows, features) for _, _, rows, features in nodes],
                              min_leaf)
        for (t, path, rows, features), columns in zip(nodes, scores):
            best_gain, best_col, best_thr = 0.0, -1, 0.0
            for j, (gain, thr) in enumerate(columns):
                if gain > best_gain:
                    best_gain, best_col, best_thr = gain, j, thr
            if best_col < 0:
                continue
            feature = int(features[best_col])
            splits[t].append((path, feature, rows.size / boots[t].size * best_gain))
            left = x[rows, feature] <= best_thr
            stacks[t].append((path + (0,), rows[~left]))
            stacks[t].append((path + (1,), rows[left]))
    importances = []
    for records in splits:
        imp = np.zeros(d)
        # Preorder, right subtree first: the pinned λ depends on this order to the last bit.
        for _, feature, value in sorted(records):
            imp[feature] += value
        importances.append(imp)
    return importances


def fit_forest(x: np.ndarray, y: np.ndarray, config: ForestConfig,
               rng: np.random.Generator) -> np.ndarray:
    """Raw importances of a variance-reduction forest of ``config.n_trees``
    trees fit on bootstrap resamples, averaged over trees; deterministic per
    seed.  ``config.min_samples`` plays no part here."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.size:
        raise DomainError("x must be (n, d) and y (n,) with matching n")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("NaN/inf in forest training data")
    config.validate()
    n, d = x.shape
    if n < 2 * config.min_leaf:
        raise InsufficientDataError(f"need at least {2 * config.min_leaf} samples, got {n}")
    n_sub = max(1, int(np.ceil(np.sqrt(d))))

    children = rng.spawn(config.n_trees)
    boots = [child.integers(0, n, size=n) for child in children]
    importances = np.zeros(d)
    for imp in _grow_trees(x, y, boots, config.max_depth, config.min_leaf, n_sub, children):
        importances += imp
    importances /= config.n_trees
    return importances


def normalized_importances(importances: np.ndarray) -> np.ndarray:
    """Importances scaled to sum 1; uniform fallback when every importance is zero."""
    total = importances.sum()
    if total <= 0:
        return np.full(importances.size, 1.0 / importances.size)
    return importances / total


def transition_feature_weights(data: np.ndarray, config: ForestConfig,
                               rng: np.random.Generator) -> np.ndarray:
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
    if data.ndim != 2 or data.shape[1] != 11:
        raise DomainError(f"transitions must be an (n, 11) array, got shape {data.shape}")
    if data.shape[0] < config.min_samples:
        raise InsufficientDataError(
            f"feature weighting needs >= {config.min_samples} transitions, "
            f"got {data.shape[0]}")
    x, targets = data[:, :5], data[:, 5:9]

    children = rng.spawn(4)
    acc = np.zeros(5)
    for lam in spread(lambda j: normalized_importances(
            fit_forest(x, targets[:, j], config, children[j])), range(4)):
        acc += lam                  # in target order 0..3, wherever each forest grew
    w_in = acc / acc.sum()          # each forest's weights sum to 1

    state_mean = float(w_in[:4].mean())
    full = np.concatenate([w_in[:4], w_in[4:5], w_in[:4], [state_mean, state_mean]])
    return full / full.sum()
