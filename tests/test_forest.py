"""Forest importances and the normalized importance weighting."""

import numpy as np
import pytest

from dvfsflow.errors import DomainError, InsufficientDataError
from dvfsflow.flow import TransitionLayout, encode_transition
from dvfsflow.forest import (ForestConfig, fit_forest, normalized_importances,
                             transition_feature_weights)
from dvfsflow.simenv import DvfsEnv, EnvConfig


def test_constant_targets_give_single_leaf_trees():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = np.full(40, 2.5)
    # no tree splits its root, so no feature gains importance
    imp = fit_forest(x, y, n_trees=5, rng=np.random.default_rng(1))
    assert imp.tolist() == [0.0, 0.0, 0.0]


def test_root_split_matches_exhaustive_gain_oracle():
    # depth-1 stump on y = step(x1 > 0): the oracle enumerates every split of
    # the bootstrap sample over both features and picks the best gain
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 2))
    y = (x[:, 0] > 0).astype(float)

    imp = fit_forest(x, y, n_trees=1, max_depth=1, min_leaf=1,
                     rng=np.random.default_rng(7))

    # rebuild the same bootstrap sample the tree saw (same spawn order)
    child = np.random.default_rng(7).spawn(1)[0]
    boot = child.integers(0, 60, size=60)
    xb, yb = x[boot], y[boot]

    best_gain, best_feat = -1.0, -1
    n = yb.size
    for f in range(2):
        order = np.argsort(xb[:, f], kind="stable")
        xs, ys = xb[order, f], yb[order]
        for i in range(1, n):
            if xs[i] <= xs[i - 1]:
                continue
            gain = ys.var() - (i * ys[:i].var() + (n - i) * ys[i:].var()) / n
            if gain > best_gain:
                best_gain, best_feat = gain, f
    assert best_feat == 0
    # the root holds every row, so its importance is its gain
    assert imp[0] == pytest.approx(best_gain, rel=1e-12)
    assert imp[1] == 0.0


def test_same_seed_identical_forests():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 4))
    y = x @ np.array([1.0, 0.0, -2.0, 0.5])

    def fingerprint(seed):
        return [float(v).hex() for v in fit_forest(x, y, n_trees=10,
                                                   rng=np.random.default_rng(seed))]

    assert fingerprint(11) == fingerprint(11)
    assert fingerprint(11) != fingerprint(12)


def test_importances_normalized_and_concentrated():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, size=(400, 2))
    y = 3.0 * x[:, 0] + 0.01 * rng.normal(size=400)
    lam = normalized_importances(fit_forest(x, y, n_trees=30, rng=np.random.default_rng(4)))
    assert lam.sum() == pytest.approx(1.0)
    assert np.all(lam >= 0)
    assert lam[0] > 0.8


def test_uniform_importances_on_constant_target():
    x = np.random.default_rng(1).normal(size=(50, 4))
    imp = fit_forest(x, np.zeros(50), n_trees=5, rng=np.random.default_rng(1))
    assert np.allclose(normalized_importances(imp), 0.25)


def test_importance_stable_under_irrelevant_permutation():
    rng = np.random.default_rng(21)
    x = rng.uniform(-1, 1, size=(200, 3))
    y = 2.0 * x[:, 0] + 0.05 * rng.normal(size=200)
    lam_a = normalized_importances(fit_forest(x, y, rng=np.random.default_rng(6)))
    x_perm = x.copy()
    x_perm[:, 2] = x_perm[rng.permutation(200), 2]   # shuffle an irrelevant column
    lam_b = normalized_importances(fit_forest(x_perm, y, rng=np.random.default_rng(6)))
    assert np.max(np.abs(lam_a - lam_b)) < 0.05


def test_duplicated_top_feature_does_not_gain_importance():
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = 3.0 * x[:, 0] + 0.1 * rng.normal(size=300)
    lam = normalized_importances(fit_forest(x, y, rng=np.random.default_rng(8)))
    x_dup = np.column_stack([x, x[:, 0]])
    lam_dup = normalized_importances(fit_forest(x_dup, y, rng=np.random.default_rng(8)))
    assert lam_dup[0] <= lam[0] + 1e-9


def _fill_memory(n, seed=0):
    """n noise-free simulator transitions, flattened."""
    cfg = EnvConfig().noiseless()
    env = DvfsEnv(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    layout = TransitionLayout(num_actions=cfg.num_actions)
    rows = []
    for i in range(n):
        s = env.state
        a = int(rng.integers(cfg.num_actions))
        nxt, r, done = env.step(a)
        rows.append(encode_transition(s, a, r, nxt, done, layout))
        if done:
            env.reset(seed=seed + i + 1)
    return np.stack(rows)


def test_transition_weights_shape_and_normalization():
    lam = transition_feature_weights(_fill_memory(120), ForestConfig(n_trees=20))
    assert lam.shape == (11,)
    assert lam.sum() == pytest.approx(1.0)
    assert np.all(lam >= 0)
    # state dims are mirrored onto next-state dims
    assert np.allclose(lam[0:4], lam[5:9])
    assert lam[9] == pytest.approx(lam[0:4].mean())
    assert lam[10] == pytest.approx(lam[0:4].mean())


def test_transition_weights_frequency_command_dominates_inputs():
    # noise-free simulator: the commanded frequency level (the action input)
    # drives next fps, power and temperature, so it gets the top input weight
    lam = transition_feature_weights(_fill_memory(200, seed=3),
                                     ForestConfig(n_trees=30),
                                     rng=np.random.default_rng(3))
    inputs = np.concatenate([lam[0:4], lam[4:5]])   # fps, freq, power, temp, action
    assert int(np.argmax(inputs)) == 4


def test_transition_weights_insufficient_data():
    with pytest.raises(InsufficientDataError):
        transition_feature_weights(_fill_memory(10), ForestConfig())


def test_transition_weights_reject_other_shapes():
    with pytest.raises(DomainError, match=r"\(n, 11\)"):
        transition_feature_weights(_fill_memory(60)[:, :9], ForestConfig())
