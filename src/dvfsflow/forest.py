"""Random-forest regression and the normalized feature weights it supplies.

Trees split on variance reduction with sqrt(d) features considered per split
and are fit on bootstrap resamples.  Importances are impurity-based: each
split contributes (node_samples / total_samples) * variance_reduction to its
feature, raw importances are averaged over trees, then normalized to sum 1.
The transition-prediction weighting fits one forest per next-state field and
mirrors the resulting input weights onto the full flattened transition vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agent import ReplayMemory
from .errors import ConfigurationError, DomainError, InsufficientDataError, NumericError


@dataclass
class TreeNode:
    n_samples: int
    impurity: float                     # variance of targets at this node
    value: float                        # mean target (prediction if leaf)
    feature: int = -1                   # -1 marks a leaf
    threshold: float = 0.0
    gain: float = 0.0                   # variance reduction of the split
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class RegressionTree:
    root: TreeNode
    n_features: int
    seed: int


@dataclass
class Forest:
    trees: list[RegressionTree]
    n_features: int
    importances: np.ndarray             # raw (unnormalized), averaged over trees


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


def _best_split(x_col: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[float, float]:
    """Best (gain, threshold) for one feature, or (-inf, 0) if nothing valid.

    Gain is the variance reduction var(parent) - (nL/n) var(L) - (nR/n) var(R),
    evaluated at midpoints between consecutive distinct sorted values.
    """
    n = y.size
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    total_var = csum2[-1] / n - (csum[-1] / n) ** 2

    best_gain, best_thr = -np.inf, 0.0
    lo, hi = min_leaf, n - min_leaf
    if hi < lo:
        return best_gain, best_thr
    sizes_l = np.arange(lo, hi + 1, dtype=np.float64)
    sum_l = csum[lo - 1:hi]
    sum2_l = csum2[lo - 1:hi]
    var_l = sum2_l / sizes_l - (sum_l / sizes_l) ** 2
    sizes_r = n - sizes_l
    var_r = (csum2[-1] - sum2_l) / sizes_r - ((csum[-1] - sum_l) / sizes_r) ** 2
    gains = total_var - (sizes_l * var_l + sizes_r * var_r) / n
    valid = xs[lo:hi + 1] > xs[lo - 1:hi]      # split only between distinct values
    gains = np.where(valid, gains, -np.inf)
    if gains.size:
        i = int(np.argmax(gains))
        if np.isfinite(gains[i]) and gains[i] > 0:
            best_gain = float(gains[i])
            best_thr = float(0.5 * (xs[lo - 1 + i] + xs[lo + i]))
    return best_gain, best_thr


def _grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_leaf: int,
          n_sub: int, rng: np.random.Generator) -> TreeNode:
    n = y.size
    mean = float(y.mean())
    var = float(y.var())
    node = TreeNode(n_samples=n, impurity=var, value=mean)
    if depth >= max_depth or n < 2 * min_leaf or var <= 1e-15:
        return node
    features = rng.choice(x.shape[1], size=n_sub, replace=False)
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for f in features:
        gain, thr = _best_split(x[:, f], y, min_leaf)
        if gain > best_gain:
            best_gain, best_feat, best_thr = gain, int(f), thr
    if best_feat < 0:
        return node
    mask = x[:, best_feat] <= best_thr
    node.feature = best_feat
    node.threshold = best_thr
    node.gain = best_gain
    node.left = _grow(x[mask], y[mask], depth + 1, max_depth, min_leaf, n_sub, rng)
    node.right = _grow(x[~mask], y[~mask], depth + 1, max_depth, min_leaf, n_sub, rng)
    return node


def _tree_importances(tree: RegressionTree, n_root: int) -> np.ndarray:
    imp = np.zeros(tree.n_features)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        imp[node.feature] += (node.n_samples / n_root) * node.gain
        stack.append(node.left)
        stack.append(node.right)
    return imp


def fit_forest(x: np.ndarray, y: np.ndarray, n_trees: int = 50, max_depth: int = 6,
               min_leaf: int = 5, rng: Optional[np.random.Generator] = None) -> Forest:
    """Fit a variance-reduction forest on bootstrap resamples; deterministic per seed."""
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

    trees = []
    importances = np.zeros(d)
    for t, child in enumerate(rng.spawn(n_trees)):
        boot = child.integers(0, n, size=n)
        root = _grow(x[boot], y[boot], 0, max_depth, min_leaf, n_sub, child)
        tree = RegressionTree(root=root, n_features=d, seed=t)
        trees.append(tree)
        importances += _tree_importances(tree, n)
    importances /= n_trees
    return Forest(trees=trees, n_features=d, importances=importances)


def _predict_one(root: TreeNode, row: np.ndarray) -> float:
    node = root
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def forest_predict(forest: Forest, x: np.ndarray) -> float:
    """Mean of per-tree leaf values for a single input row."""
    row = np.asarray(x, dtype=np.float64)
    if row.shape != (forest.n_features,):
        raise DomainError(f"expected input of dim {forest.n_features}, got {row.shape}")
    return float(np.mean([_predict_one(t.root, row) for t in forest.trees]))


def normalized_importances(forest: Forest) -> np.ndarray:
    """Importances scaled to sum 1; uniform fallback when every importance is zero."""
    total = forest.importances.sum()
    if total <= 0:
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return forest.importances / total


def transition_feature_weights(memory: ReplayMemory,
                               config: Optional[ForestConfig] = None,
                               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Per-dimension loss weights for the flattened transition vector.

    Fits one forest per next-state field on inputs (state 4 dims, action 1 dim),
    averages the normalized input importances across the four forests (so each
    prediction target counts equally regardless of its variance scale), then
    mirrors the state weights onto the next-state dims; reward and done receive
    the mean state weight.  The full 11-vector is renormalized to sum 1.
    """
    config = config or ForestConfig()
    if len(memory) < config.min_samples:
        raise InsufficientDataError(
            f"feature weighting needs >= {config.min_samples} transitions, "
            f"memory holds {len(memory)}")
    rng = np.random.default_rng(0) if rng is None else rng
    x = np.array([[t.s.fps, t.s.freq, t.s.power, t.s.temp, float(t.a)]
                  for t in memory.items])
    targets = np.array([[t.s_next.fps, t.s_next.freq, t.s_next.power, t.s_next.temp]
                        for t in memory.items])

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
