"""The flow, forest, codec, replay memory, Q-step, ODE sampler, W1, simulator-law and
regret-oracle hot paths against plain loop versions of the same arithmetic, the
CLI's CSV files against the csv-module functions they replace (their readers read
no file those reject), and the one-pass report against the report that held every
run.

The references below are straightforward per-layer, per-column and recursive
implementations.  The production code batches them into fewer numpy calls
but must do the same float64 operations in the same order, so every
comparison here is bitwise, never approximate, except W1's: the exact W1 is
one sum over the merged support, which numpy adds pairwise and the loop
reference (and scipy) in other orders, so they agree to 1e-12 relative.
"""

import argparse
import csv
import functools
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import noiseless, usable_cores, write_run_dir
from dvfsflow import agent, cli, files, forest, nets, report
from dvfsflow.agent import AgentConfig, ReplayMemory
from dvfsflow.files import load_finite_batch, runlog_from_csv, write_json
from dvfsflow.report import _LINE_FIGURES, _load_manifest, eval_batches
from dvfsflow.config import config_from_dict
from dvfsflow.errors import ConfigurationError, DomainError, InsufficientDataError, NumericError
from dvfsflow.evalkit import empirical_regret, pearson_matrix, qvalue_stability, wasserstein1
from dvfsflow.flow import (TRANSITION_DIM, TRANSITION_LABELS, CfmBatches, FMConfig,
                           Normalizer, TransitionLayout, canonical_rows, check_finite,
                           encode_transition, generate_raw, init_flow_model,
                           unflatten_transition)
from dvfsflow.forest import (ForestConfig, _best_splits, _grow_trees, fit_forest,
                             normalized_importances, transition_feature_weights)
from dvfsflow.orchestrate import (RUNLOG_COLUMNS, RunLog, ScheduleConfig, regret_oracle,
                                  run_experiment)
from dvfsflow.simenv import (DvfsEnv, EnvConfig, ProcessorState, dynamics, initial_state,
                             law, reward_components, state_scales)


# ---------------------------------------------------------------- references

def _ref_loss_and_grads(params, x, y, weights):
    n, d = y.shape
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 1:
        w = np.broadcast_to(w, (n, d))
    acts = [x]
    a = x
    last = len(params.weights) - 1
    for l, (wl, bl) in enumerate(zip(params.weights, params.biases)):
        z = a @ wl.T + bl
        a = z if l == last else np.tanh(z)
        acts.append(a)
    err = acts[-1] - y
    loss = float(np.mean(np.sum(w * err * err, axis=1)))
    delta = 2.0 * w * err / n
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for l in range(last, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l]) * (1.0 - acts[l] * acts[l])
    return loss, grads_w, grads_b


def _zero_adam(params, lr):
    """The Adam state a fresh trainer starts from."""
    return nets.AdamState(lr=float(lr), step=0, m=np.zeros_like(params.flat),
                          v=np.zeros_like(params.flat))


def _ref_adam_step(weights, biases, grads_w, grads_b, adam, m_w, v_w, m_b, v_b):
    """Per-layer Adam; returns new (weights, biases, m_w, v_w, m_b, v_b) lists."""
    t = adam.step + 1
    b1, b2, eps = nets.ADAM_B1, nets.ADAM_B2, nets.ADAM_EPS
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    out = ([], [], [], [], [], [])
    for l in range(len(weights)):
        mw = b1 * m_w[l] + (1 - b1) * grads_w[l]
        vw = b2 * v_w[l] + (1 - b2) * grads_w[l] ** 2
        mb = b1 * m_b[l] + (1 - b1) * grads_b[l]
        vb = b2 * v_b[l] + (1 - b2) * grads_b[l] ** 2
        out[0].append(weights[l] - adam.lr * (mw / c1) / (np.sqrt(vw / c2) + eps))
        out[1].append(biases[l] - adam.lr * (mb / c1) / (np.sqrt(vb / c2) + eps))
        for k, arr in enumerate((mw, vw, mb, vb)):
            out[2 + k].append(arr)
    return out


def _ref_train_step(params, adam, x, y, weights):
    """One Adam step: the reference loss and gradients, then the reference
    per-layer Adam.  Returns fresh (params, Adam state, loss), the moments
    laid out like ``MlpParams.flat``."""
    loss, gw, gb = _ref_loss_and_grads(params, x, y, weights)
    m_w, m_b = nets._layer_views(adam.m, params.layer_sizes)
    v_w, v_b = nets._layer_views(adam.v, params.layer_sizes)
    new_w, new_b, m_w, v_w, m_b, v_b = _ref_adam_step(params.weights, params.biases, gw, gb,
                                                      adam, m_w, v_w, m_b, v_b)

    def flat(ws, bs):
        return np.concatenate([a.ravel() for a in ws + bs])

    new = nets.MlpParams(list(params.layer_sizes), flat(new_w, new_b))
    return new, replace(adam, step=adam.step + 1, m=flat(m_w, m_b), v=flat(v_w, v_b)), loss


def _ref_fit(params, adam, n, epochs, batch_size, rng, make_batch):
    """Minibatch Adam as a loop of pure reference train steps."""
    loss_curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            params, adam, loss = _ref_train_step(params, adam,
                                                 *make_batch(order[start:start + batch_size]))
            losses.append(loss)
        loss_curve.append(float(np.mean(losses)))
    return params, loss_curve


def _ref_best_split(x_col, y, min_leaf):
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
    valid = xs[lo:hi + 1] > xs[lo - 1:hi]
    gains = np.where(valid, gains, -np.inf)
    if gains.size:
        i = int(np.argmax(gains))
        if np.isfinite(gains[i]) and gains[i] > 0:
            best_gain = float(gains[i])
            best_thr = float(0.5 * (xs[lo - 1 + i] + xs[lo + i]))
    return best_gain, best_thr


@dataclass
class _RefNode:
    n_samples: int
    impurity: float
    feature: int = -1                   # -1 marks a leaf
    gain: float = 0.0
    left: Optional["_RefNode"] = None
    right: Optional["_RefNode"] = None


def _ref_grow(x, y, depth, max_depth, min_leaf, n_sub, rng):
    n = y.size
    node = _RefNode(n_samples=n, impurity=float(y.var()))
    if depth >= max_depth or n < 2 * min_leaf or node.impurity <= 1e-15:
        return node
    features = rng.choice(x.shape[1], size=n_sub, replace=False)
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for f in features:
        gain, thr = _ref_best_split(x[:, f], y, min_leaf)
        if gain > best_gain:
            best_gain, best_feat, best_thr = gain, int(f), thr
    if best_feat < 0:
        return node
    mask = x[:, best_feat] <= best_thr
    node.feature, node.gain = best_feat, best_gain
    node.left = _ref_grow(x[mask], y[mask], depth + 1, max_depth, min_leaf, n_sub, rng)
    node.right = _ref_grow(x[~mask], y[~mask], depth + 1, max_depth, min_leaf, n_sub, rng)
    return node


def _ref_importances(root, n_features):
    """Walk the node graph and add each split's share * gain to its feature."""
    imp = np.zeros(n_features)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.feature < 0:
            continue
        imp[node.feature] += (node.n_samples / root.n_samples) * node.gain
        stack.append(node.left)
        stack.append(node.right)
    return imp


def _ref_fit_forest(x, y, n_trees, max_depth, min_leaf, rng):
    n, d = x.shape
    n_sub = max(1, int(np.ceil(np.sqrt(d))))
    imp = np.zeros(d)
    for child in rng.spawn(n_trees):
        boot = child.integers(0, n, size=n)
        imp += _ref_importances(
            _ref_grow(x[boot], y[boot], 0, max_depth, min_leaf, n_sub, child), d)
    imp /= n_trees
    return imp


def _ref_cfm_batch(batch, lam, sigma_min, count, rng):
    m, d = batch.shape
    pool = rng.standard_normal((m, d))
    x0 = pool[rng.integers(0, m, size=(count, m))]
    x1 = np.stack([batch[rng.permutation(m)] for _ in range(count)])
    x0 = x0.reshape(count * m, d)
    x1 = x1.reshape(count * m, d)
    t = rng.uniform(0.0, 1.0, size=(count * m, 1))
    xt = (1.0 - (1.0 - sigma_min) * t) * x0 + t * x1
    target = x1 - (1.0 - sigma_min) * x0
    return np.concatenate([xt, t], axis=1), target, lam


def _ref_sample_vector_field(model, n, rng, ode_steps=10):
    """All n rows through each midpoint step at once."""
    d = model.params.out_dim
    if n == 0:
        return np.empty((0, d))
    x = rng.standard_normal((n, d))
    dt = 1.0 / ode_steps

    def v(x, t):
        return nets.forward_batch(model.params, np.concatenate([x, np.full((n, 1), t)], axis=1))

    for step in range(ode_steps):
        x_mid = x + v(x, step * dt) * (0.5 * dt)
        x = x + v(x_mid, (step + 0.5) * dt) * dt
    return model.normalizer.denormalize(x)


def _ref_wasserstein1_loop(a, b):
    """Integrate |F_a - F_b| step by step: walk the merged sorted support,
    count each sample's points up to the current one, and add the gap of the
    two empirical CDFs times the step to the next point."""
    a, b = sorted(map(float, a)), sorted(map(float, b))
    support = sorted(a + b)
    i = j = 0
    total = 0.0
    for x, nxt in zip(support, support[1:]):
        while i < len(a) and a[i] <= x:
            i += 1
        while j < len(b) and b[j] <= x:
            j += 1
        total += abs(i / len(a) - j / len(b)) * (nxt - x)
    return total


def _ref_normalize_state(state, env_config):
    """One state as the Q-net's (4,) input, on its own."""
    return np.array([state.fps, state.freq, state.power, state.temp]) / state_scales(env_config)


def _ref_train_q_step(qnet, target_net, batch, agent_config, env_config, adam):
    """Per-transition Q-step: every state normalized on its own, and the online
    net's own predictions as targets for the actions not taken."""
    n = len(batch)
    k = env_config.num_actions
    x = np.stack([_ref_normalize_state(t.s, env_config) for t in batch])
    x_next = np.stack([_ref_normalize_state(t.s_next, env_config) for t in batch])
    q_next = nets.forward_batch(target_net, x_next)
    rewards = np.array([t.r for t in batch])
    not_done = np.array([0.0 if t.done else 1.0 for t in batch])
    y_taken = rewards + agent_config.discount * not_done * q_next.max(axis=1)
    actions = np.array([t.a for t in batch], dtype=int)
    targets = nets.forward_batch(qnet, x)
    targets[np.arange(n), actions] = y_taken
    weights = np.zeros((n, k))
    weights[np.arange(n), actions] = 1.0
    return _ref_train_step(qnet, adam, x, targets, weights)


@dataclass(frozen=True)
class _RefTransition:
    """A transition as an object, with the provenance tag memories once checked."""
    s: ProcessorState
    a: int
    r: float
    s_next: ProcessorState
    done: bool
    source: str = "real"


class _RefReplayMemory:
    """List FIFO: one transition object per push, the oldest deleted beyond capacity."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.phi = 0

    def push(self, transition):
        self.items.append(transition)
        if len(self.items) > self.capacity:
            del self.items[0]
        self.phi += 1

    def sample_batch(self, n, rng):
        if n > len(self.items):
            raise InsufficientDataError(f"asked for {n}, holds {len(self.items)}")
        if n == 0:
            return []
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]


def _ref_decode_state(fps, freq, power, temp, layout):
    return ProcessorState(fps=max(fps, 0.0), freq=min(max(freq, 0.0), 1.0),
                          power=max(power, 1e-6), temp=max(temp, layout.ambient_temp))


def _ref_unflatten_transition(vec, layout, source="synth"):
    """Per-row decoder on numpy scalars."""
    v = np.asarray(vec, dtype=np.float64)
    k = layout.num_actions
    action = int(np.clip(np.rint(v[4] * (k - 1)), 0, k - 1))
    return _RefTransition(s=_ref_decode_state(v[0], v[1], v[2], v[3], layout), a=action,
                          r=float(v[9]),
                          s_next=_ref_decode_state(v[5], v[6], v[7], v[8], layout),
                          done=bool(v[10] > 0.5), source=source)


def _ref_unflatten_rows(raw, layout, source="synth"):
    """Batch decoder to objects: clamps on the whole array, Python floats out."""
    v = np.asarray(raw, dtype=np.float64)
    check_finite(v)
    lo = np.array([0.0, 0.0, 1e-6, layout.ambient_temp] * 2)
    hi = np.array([np.inf, 1.0, np.inf, np.inf] * 2)
    states = v[:, [0, 1, 2, 3, 5, 6, 7, 8]]
    cols = np.minimum(np.where(states < lo, lo, states), hi).T.tolist()
    k1 = layout.num_actions - 1
    actions = np.rint(np.clip(v[:, 4], 0.0, 1.0) * k1).astype(int).tolist()
    return [_RefTransition(s, a, r, s_next, d, source)
            for s, a, r, s_next, d in zip(map(ProcessorState, *cols[:4]), actions,
                                          v[:, 9].tolist(), map(ProcessorState, *cols[4:]),
                                          (v[:, 10] > 0.5).tolist())]


def _ref_flatten_transition(t, layout):
    a_enc = t.a / (layout.num_actions - 1)
    return np.array([t.s.fps, t.s.freq, t.s.power, t.s.temp, a_enc,
                     t.s_next.fps, t.s_next.freq, t.s_next.power, t.s_next.temp,
                     t.r, 1.0 if t.done else 0.0], dtype=np.float64)


def _ref_flatten_memory(transitions, layout):
    return np.array([_ref_flatten_transition(t, layout) for t in transitions],
                    dtype=np.float64).reshape(-1, 11)


def _ref_transition_feature_weights(transitions, config, rng):
    """Forest weights from transition objects, with the raw action index as input."""
    x = np.array([[t.s.fps, t.s.freq, t.s.power, t.s.temp, float(t.a)] for t in transitions])
    targets = np.array([[t.s_next.fps, t.s_next.freq, t.s_next.power, t.s_next.temp]
                        for t in transitions])
    acc = np.zeros(5)
    for j, child in enumerate(rng.spawn(4)):
        acc += normalized_importances(fit_forest(x, targets[:, j], config, child))
    total = acc.sum()
    w_in = np.full(5, 1.0 / 5) if total <= 0 else acc / total
    state_mean = float(w_in[:4].mean())
    full = np.concatenate([w_in[:4], w_in[4:5], w_in[:4], [state_mean, state_mean]])
    return full / full.sum()


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


# ---------------------------------------------------------------- nets

def _one_hot_rows(rng, n, d):
    w = np.zeros((n, d))
    w[np.arange(n), rng.integers(0, d, size=n)] = 1.0
    return w


# Every net is a tanh MLP; the "tanh" label names the hidden activation in the case ids.
NET_CASES = [
    ([12, 64, 64, 11], "tanh", "lambda", 256),     # flow vector field
    ([12, 64, 64, 11], "tanh", "lambda", 72),      # short last CFM batch
    ([4, 16, 16, 12], "tanh", "one_hot", 32),      # Q-network update
    ([5, 32, 32, 6], "tanh", "lambda", 7),         # planner, short last batch
]


def _net_case(sizes, weighting, n, seed):
    rng = np.random.default_rng(seed)
    params = nets.init_mlp(sizes, seed=seed)
    params.flat[:] = rng.normal(scale=0.7, size=params.flat.size)   # non-zero biases too
    x = rng.normal(size=(n, sizes[0]))
    y = rng.normal(size=(n, sizes[-1]))
    if weighting == "lambda":
        lam = rng.uniform(0.0, 1.0, size=sizes[-1])
        w = lam / lam.sum()
    else:
        w = _one_hot_rows(rng, n, sizes[-1])
    return params, x, y, w


@pytest.mark.parametrize("sizes,activation,weighting,n", NET_CASES)
def test_loss_and_grads_bitwise_equal_reference(sizes, activation, weighting, n):
    params, x, y, w = _net_case(sizes, weighting, n, seed=n)
    x_before = x.copy()
    loss, gw, gb = nets.loss_and_grads(params, x, y, w)
    ref_loss, ref_gw, ref_gb = _ref_loss_and_grads(params, x, y, w)
    assert loss == ref_loss
    for a, b in zip(gw + gb, ref_gw + ref_gb):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert np.array_equal(x, x_before)             # the caller's inputs stay untouched


@pytest.mark.parametrize("sizes,activation,weighting,n", NET_CASES)
def test_adam_steps_bitwise_equal_reference(sizes, activation, weighting, n):
    params, x, y, w = _net_case(sizes, weighting, n, seed=n + 1)
    trainer = nets.Trainer(params, lr=0.01)
    ref_w = [a.copy() for a in params.weights]
    ref_b = [a.copy() for a in params.biases]
    ref_m = [[np.zeros_like(a) for a in ref_w], [np.zeros_like(a) for a in ref_w],
             [np.zeros_like(a) for a in ref_b], [np.zeros_like(a) for a in ref_b]]
    for step in range(1, 5):
        # the reference Adam on the gradients of the batch at the trainer's params
        _, gw, gb = nets.loss_and_grads(trainer.params, x, y, w)
        ref_w, ref_b, *ref_m = _ref_adam_step(ref_w, ref_b, gw, gb, trainer.adam, *ref_m)
        trainer.step(x, y, w)

        trained = trainer.params
        for a, b in zip(trained.weights + trained.biases, ref_w + ref_b):
            assert np.array_equal(a, b)
        m_w, m_b = nets._layer_views(trainer.adam.m, params.layer_sizes)
        v_w, v_b = nets._layer_views(trainer.adam.v, params.layer_sizes)
        for got, want in zip((m_w, v_w, m_b, v_b), ref_m):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert trainer.adam.step == step


def test_trainer_step_matches_reference_loss_then_adam():
    params, x, y, w = _net_case([12, 64, 64, 11], "lambda", 256, seed=3)
    trainer = nets.Trainer(params, lr=1e-3)
    loss = trainer.step(x, y, w)
    ref_loss, gw, gb = _ref_loss_and_grads(params, x, y, w)
    zeros_w = [np.zeros_like(a) for a in params.weights]
    zeros_b = [np.zeros_like(a) for a in params.biases]
    ref_w, ref_b, *_ = _ref_adam_step(params.weights, params.biases, gw, gb,
                                      _zero_adam(params, 1e-3),
                                      zeros_w, zeros_w, zeros_b, zeros_b)
    assert loss == ref_loss
    for a, b in zip(trainer.params.weights + trainer.params.biases, ref_w + ref_b):
        assert np.array_equal(a, b)


def _fit_case(sizes, weighting, n, seed):
    """A net and a make_batch over n fixed rows."""
    params, x, y, w = _net_case(sizes, weighting, n, seed)
    if weighting == "lambda":
        return params, lambda rows: (x[rows], y[rows], w)
    return params, lambda rows: (x[rows], y[rows], w[rows])


@pytest.mark.parametrize("activation", ["tanh"])               # the case-id label, as above
@pytest.mark.parametrize("weighting", ["lambda", "one_hot"])   # per-dim and per-row weights
@pytest.mark.parametrize("n,batch_size", [(75, 16), (40, 40), (9, 32)])
def test_fit_bytes_equal_train_step_loop(activation, weighting, n, batch_size):
    # 75 rows in batches of 16 end in an 11-row batch; 9 rows fit in one short batch
    params, make_batch = _fit_case([5, 16, 8, 4], weighting, n, seed=n)
    got, got_curve = nets.fit(params, 0.01, n, 6, batch_size, np.random.default_rng(1),
                              make_batch)
    want, want_curve = _ref_fit(params, _zero_adam(params, 0.01), n, 6, batch_size,
                                np.random.default_rng(1), make_batch)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert _hex(got_curve) == _hex(want_curve)
    assert got.layer_sizes == want.layer_sizes


def test_fit_leaves_its_arguments_untouched():
    params, make_batch = _fit_case([5, 16, 8, 4], "lambda", 50, seed=2)
    before = params.flat.tobytes()
    trained, _ = nets.fit(params, 0.01, 50, 3, 16, np.random.default_rng(0), make_batch)
    assert params.flat.tobytes() == before
    assert not np.shares_memory(trained.flat, params.flat)
    assert trained.flat.tobytes() != params.flat.tobytes()


@pytest.mark.parametrize("column", ["x", "y"])
def test_fit_nan_batch_mid_run_raises(column):
    params, make_batch = _fit_case([5, 16, 8, 4], "lambda", 50, seed=3)
    calls = []

    def poisoned(rows):
        calls.append(len(rows))
        x, y, w = make_batch(rows)
        if len(calls) == 6:                     # second epoch, third batch
            x, y = x.copy(), y.copy()
            (x if column == "x" else y)[1, 2] = np.nan
        return x, y, w

    flat_before = params.flat.tobytes()
    with pytest.raises(NumericError):
        nets.fit(params, 0.01, 50, 3, 16, np.random.default_rng(0), poisoned)
    assert len(calls) == 6
    assert params.flat.tobytes() == flat_before


def test_layer_views_share_the_flat_vector():
    p = nets.init_mlp([3, 4, 2], seed=0)
    assert p.flat.size == 3 * 4 + 4 * 2 + 4 + 2
    p.weights[1][:] = 7.0                          # in-place write reaches the vector
    assert np.all(p.flat[12:20] == 7.0)
    p.flat[-2:] = [1.0, 2.0]
    assert p.biases[1].tolist() == [1.0, 2.0]
    q = p.copy()
    q.flat[:] = 0.0
    assert np.all(p.weights[1] == 7.0)             # copies do not share storage


# ---------------------------------------------------------------- flow

def _one_cfm_batch(batch, lam, sigma_min, count, rng):
    """A fresh builder over ``batch``, called once on all of its rows."""
    return CfmBatches(batch, lam, sigma_min, count, rng)(np.arange(batch.shape[0]))


@pytest.mark.parametrize("m,count", [(32, 8), (5, 8), (1, 1), (17, 3)])
def test_cfm_batch_bitwise_equal_reference(m, count):
    batch = np.random.default_rng(m).normal(size=(m, 11))
    lam = np.full(11, 1.0 / 11)
    got = _one_cfm_batch(batch, lam, 0.01, count, np.random.default_rng(4))
    want = _ref_cfm_batch(batch, lam, 0.01, count, np.random.default_rng(4))
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_cfm_batch_one_permuted_call_equals_per_replicate_permutations():
    # Generator.permuted shuffles each row of the tiled index block as
    # Generator.permutation would shuffle it on its own, in the same order;
    # a numpy release that changed this must fail here.
    lam = np.full(3, 1.0 / 3)
    for m in list(range(1, 40)) + [100, 256, 1000]:
        batch = np.arange(3.0 * m).reshape(m, 3)
        for count in (1, 2, 8, 13):
            for seed in range(2):
                rng, ref_rng = np.random.default_rng([seed, m]), np.random.default_rng([seed, m])
                got = _one_cfm_batch(batch, lam, 0.01, count, rng)
                want = _ref_cfm_batch(batch, lam, 0.01, count, ref_rng)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (m, count)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("count", [8, 1])
def test_cfm_batches_one_builder_bytes_equal_reference(count):
    # One builder over a data matrix, as train_flow_model drives it: batch
    # sizes come back after others, and each call must equal a fresh
    # reference batch and leave the generator in the reference's state.
    rng_data = np.random.default_rng(9)
    data = rng_data.normal(size=(60, 11))
    lam = rng_data.dirichlet(np.ones(11))
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    batches = CfmBatches(data, lam, 0.01, count, rng)
    for m in (32, 18, 32, 4, 1, 32):
        rows = rng_data.permutation(60)[:m]
        got = batches(rows)
        want = _ref_cfm_batch(data[rows], lam, 0.01, count, ref_rng)
        assert [a.shape for a in got] == [b.shape for b in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), m
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------- codec

LAYOUT = TransitionLayout(num_actions=12, ambient_temp=25.0)
_TIES = [(j + 0.5) / 11 for j in range(-1, 12)]       # rint ties below, inside and above [0, 1]
_EDGE_VALUES = [
    [0.0, -0.0, -1e-300, -5.0, 5e-324, 61.5],                                 # fps
    [0.0, -0.0, -0.1, 1.0, np.nextafter(1.0, 2.0), 1.5, np.nextafter(1.0, 0.0)],  # freq
    [1e-6, np.nextafter(1e-6, 0.0), 0.0, -0.0, -2.0, 7.25],                   # power
    [25.0, np.nextafter(25.0, 0.0), 0.0, -0.0, -40.0, 300.0, 37.5],           # temp
    _TIES + [0.0, -0.0, 1.0, -1.0, 1.5, 1e300, -1e300, 3 / 11],               # action
    [0.0, -0.0, -3.0, 120.0],                                                 # next_fps
    [-0.0, 0.0, 1.0, 1.25, -2.0, 0.4],                                        # next_freq
    [-0.0, 1e-6, 5e-7, 16.0],                                                 # next_power
    [-0.0, 25.0, 24.999999, 80.0, -1.0],                                      # next_temp
    [-0.0, 0.0, -2.5, 1.75],                                                  # reward
    [0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), -0.0, 0.0, 1.0, 2.0, -1.0],  # done
]


def _edge_rows():
    """Every edge value of every column at least once, cycled against the others."""
    n = max(len(v) for v in _EDGE_VALUES)
    rows = np.array([[vals[i % len(vals)] for vals in _EDGE_VALUES] for i in range(3 * n)])
    rng = np.random.default_rng(5)
    noise = rng.uniform(-0.2, 1.2, size=(40, 11)) * [120, 1, 20, 80, 1, 120, 1, 20, 80, 2, 1]
    return np.concatenate([rows, noise])


def _fields(t):
    return ([float(v).hex() for s in (t.s, t.s_next) for v in (s.fps, s.freq, s.power, s.temp)]
            + [type(t.a), t.a, float(t.r).hex(), type(t.done), t.done])


LAYOUTS = [(12, 25.0), (2, 0.0), (5, -10.0)]


@pytest.mark.parametrize("num_actions,ambient", LAYOUTS)
def test_unflatten_rows_field_equal_reference(num_actions, ambient):
    # the batch decoder and unflatten_transition (canonical_rows on one row)
    # against the per-row decoder on numpy scalars
    layout = TransitionLayout(num_actions=num_actions, ambient_temp=ambient)
    rows = _edge_rows()
    got = _ref_unflatten_rows(rows, layout, source="model")
    assert len(got) == len(rows)
    for row, t in zip(rows, got):
        want = _fields(_ref_unflatten_transition(row, layout, source="model"))
        assert _fields(t) == want and t.source == "model"
        assert _fields(unflatten_transition(row, layout)) == want


@pytest.mark.parametrize("num_actions,ambient", LAYOUTS)
def test_canonical_rows_bytes_equal_decode_then_encode(num_actions, ambient):
    layout = TransitionLayout(num_actions=num_actions, ambient_temp=ambient)
    rows = _edge_rows()
    want = _ref_flatten_memory(_ref_unflatten_rows(rows, layout), layout)
    assert canonical_rows(rows, layout).tobytes() == want.tobytes()
    assert canonical_rows(rows[:0], layout).shape == (0, 11)


def _edge_transitions():
    decoded_np = [_ref_unflatten_transition(row, LAYOUT) for row in _edge_rows()]
    decoded_py = _ref_unflatten_rows(_edge_rows(), LAYOUT)
    rng = np.random.default_rng(2)
    plain = [_RefTransition(_random_state(rng), a, float(rng.normal()), _random_state(rng),
                            bool(a % 2)) for a in range(12)]
    neg = ProcessorState(fps=-0.0, freq=-0.0, power=-0.0, temp=-0.0)
    plain.append(_RefTransition(neg, 0, -0.0, neg, False))
    return decoded_np + decoded_py + plain


def _encode_all(transitions, layout):
    """Rows as the run loop builds M: encode_transition once per transition."""
    return np.array([encode_transition(t.s, t.a, t.r, t.s_next, t.done, layout)
                     for t in transitions]).reshape(-1, 11)


def test_flatten_memory_bytes_equal_reference():
    ts = _edge_transitions()
    assert _encode_all(ts, LAYOUT).tobytes() == _ref_flatten_memory(ts, LAYOUT).tobytes()
    for k in (2, 5):
        layout = TransitionLayout(num_actions=k, ambient_temp=LAYOUT.ambient_temp)
        small = [t for t in ts if t.a < k]
        assert (_encode_all(small, layout).tobytes()
                == _ref_flatten_memory(small, layout).tobytes())


def _sim_transitions(env_config, n, seed):
    env = DvfsEnv(env_config, seed=seed)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        s = env.state
        a = int(rng.integers(env_config.num_actions))
        nxt, r, done = env.step(a)
        out.append(_RefTransition(s, a, r, nxt, done))
        if done:
            env.reset(seed=seed + 100 + i)
    return out


@pytest.mark.parametrize("num_actions,quiet,seed", [(12, False, 0), (12, True, 1),
                                                         (3, False, 2), (7, True, 3)])
def test_transition_feature_weights_hex_equal_reference(num_actions, quiet, seed):
    env = EnvConfig(num_actions=num_actions, episode_horizon=60)
    env = noiseless(env) if quiet else env
    layout = TransitionLayout(num_actions=num_actions, ambient_temp=env.ambient_temp)
    ts = _sim_transitions(env, 150, seed)
    # canonical synthetic rows too: clamped states, snapped actions
    raw = np.random.default_rng(seed).uniform(-0.1, 1.1, size=(60, 11)) \
        * [120, 1, 20, 80, 1, 120, 1, 20, 80, 2, 1]
    rows = np.concatenate([_encode_all(ts, layout), canonical_rows(raw, layout)])
    ts += _ref_unflatten_rows(raw, layout)
    cfg = ForestConfig(n_trees=6, max_depth=5)
    got = transition_feature_weights(rows, cfg, np.random.default_rng([seed, 30]))
    want = _ref_transition_feature_weights(ts, cfg, np.random.default_rng([seed, 30]))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


# ---------------------------------------------------------------- forest

def _split_data(seed, n, k):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    x[:, 0] = np.round(x[:, 0], 1)                 # ties: splits only between distinct values
    if k > 1:
        x[:, 1] = rng.integers(0, 12, size=n) / 11  # action-like column
    # a large mean offset: total_var is a small difference of large numbers
    y = 2.0 * x[:, -1] + 4.0 + 0.3 * rng.normal(size=n)
    return x, y


@pytest.mark.parametrize("seed,n,min_leaf", [(0, 200, 5), (1, 50, 5), (2, 11, 5),
                                             (3, 10, 5), (4, 9, 5), (5, 37, 1)])
def test_best_splits_bitwise_equal_reference(seed, n, min_leaf):
    x, y = _split_data(seed, n, 3)
    got = _best_splits(x, y, [(np.arange(n), np.arange(3))], min_leaf)   # one node: no padding
    want = [_ref_best_split(x[:, j], y, min_leaf) for j in range(3)]
    assert got == [want]


def test_best_splits_many_offset_targets():
    # many draws with a large mean offset, where a vectorised total variance
    # would round differently from the scalar one
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(10, 120))
        x = rng.normal(size=(n, 3))
        y = 2.0 * x[:, int(rng.integers(3))] + 4.0 + rng.normal(size=n)
        assert (_best_splits(x, y, [(np.arange(n), np.arange(3))], 5)
                == [[_ref_best_split(x[:, j], y, 5) for j in range(3)]])


@pytest.mark.parametrize("seed,n,max_depth,min_leaf", [(0, 200, 6, 5), (1, 60, 3, 2),
                                                      (2, 120, 12, 1)])
def test_grow_builds_the_reference_tree(seed, n, max_depth, min_leaf):
    # the split records sum to the importances of the reference node graph
    x, y = _split_data(seed, n, 5)
    for t in range(5):
        (got,) = _grow_trees(x, y, [np.arange(n)], max_depth, min_leaf, 3,
                             [np.random.default_rng([seed, t])])
        want = _ref_grow(x, y, 0, max_depth, min_leaf, 3, np.random.default_rng([seed, t]))
        assert _hex(got) == _hex(_ref_importances(want, 5))


def _tied_case(rng):
    """Random (x, y) with tied x and y values and random tree settings."""
    n = int(rng.integers(10, 160))
    d = int(rng.integers(1, 8))
    x = rng.normal(size=(n, d))
    rounded = rng.random(d) < 0.5
    x[:, rounded] = np.round(x[:, rounded], 1)
    x[:, 0] = rng.integers(0, int(rng.integers(2, 12)), size=n)
    y = x @ rng.normal(size=d) + rng.normal(scale=float(rng.uniform(0.0, 2.0)), size=n)
    if rng.random() < 0.5:
        y = np.round(y, 1)
    min_leaf = int(rng.integers(1, max(2, min(8, n // 2 + 1))))
    return x, y, int(rng.integers(1, 12)), min_leaf


def test_grow_hex_equal_reference_on_random_tied_cases():
    rng = np.random.default_rng(17)
    for case in range(240):
        x, y, max_depth, min_leaf = _tied_case(rng)
        n_sub = max(1, int(np.ceil(np.sqrt(x.shape[1]))))
        (got,) = _grow_trees(x, y, [np.arange(y.size)], max_depth, min_leaf, n_sub,
                             [np.random.default_rng([case, 1])])
        want = _ref_grow(x, y, 0, max_depth, min_leaf, n_sub, np.random.default_rng([case, 1]))
        assert _hex(got) == _hex(_ref_importances(want, x.shape[1])), case


def test_fit_forest_importances_match_reference_trees():
    x, y = _split_data(9, 150, 5)
    got = fit_forest(x, y, ForestConfig(n_trees=8), np.random.default_rng(2))
    assert _hex(got) == _hex(_ref_fit_forest(x, y, 8, 6, 5, np.random.default_rng(2)))
    rng = np.random.default_rng(23)
    for case in range(200):
        x, y, max_depth, min_leaf = _tied_case(rng)
        n_trees = int(rng.integers(1, 6))
        got = fit_forest(x, y, ForestConfig(n_trees, max_depth, min_leaf),
                         np.random.default_rng(case))
        want = _ref_fit_forest(x, y, n_trees, max_depth, min_leaf,
                               np.random.default_rng(case))
        assert _hex(got) == _hex(want), case


def test_best_splits_pads_mixed_size_blocks_like_single_scans():
    # more nodes than one padded block holds, of every size from a single row
    # up, some too small to split, with tied x and y values
    rng = np.random.default_rng(29)
    x = rng.normal(size=(300, 6))
    x[:, :3] = np.round(x[:, :3], 1)
    y = np.round(3.0 * x[:, 0] + 4.0 + rng.normal(size=300), 1)
    for min_leaf in (1, 3, 5):
        nodes = []
        for _ in range(71):
            # rows repeat, as in a bootstrap sample
            rows = rng.integers(0, 300, size=int(rng.integers(1, 180)))
            nodes.append((rows, rng.choice(6, size=int(rng.integers(1, 4)), replace=False)))
        assert sum(rows.size * features.size for rows, features in nodes) > 2 * forest._BLOCK_CELLS
        got = _best_splits(x, y, nodes, min_leaf)
        want = [[_ref_best_split(x[rows, f], y[rows], min_leaf) for f in features]
                for rows, features in nodes]
        assert got == want


def test_fit_forest_lockstep_rounds_mix_node_sizes(monkeypatch):
    # enough deep trees that rounds hold more nodes than one padded block and
    # nodes of many sizes (a tree's root next to another tree's small node)
    rounds = []

    def spy(x, y, nodes, min_leaf):
        rounds.append([rows.size for rows, _ in nodes])
        return _best_splits(x, y, nodes, min_leaf)

    monkeypatch.setattr(forest, "_best_splits", spy)
    rng = np.random.default_rng(31)
    for case in range(4):
        x, y, _, _ = _tied_case(rng)
        x = np.concatenate([x, x + 0.5])[:200]
        y = np.concatenate([y, y[::-1]])[:200]
        n_trees = 45
        got = fit_forest(x, y, ForestConfig(n_trees, 9, 1 + case % 3),
                         np.random.default_rng([case, 5]))
        want = _ref_fit_forest(x, y, n_trees, 9, 1 + case % 3,
                               np.random.default_rng([case, 5]))
        assert _hex(got) == _hex(want), case
    assert any(len(sizes) * min(sizes) > forest._BLOCK_CELLS for sizes in rounds)
    assert any(len(sizes) > 1 and max(sizes) > 4 * min(sizes) for sizes in rounds)


# ---------------------------------------------------------------- replay memory

@pytest.mark.parametrize("capacity", [1, 3, 7, 64])
def test_ring_memory_bytes_equal_list_fifo(capacity):
    # single rows, one of them growing the storage of a ring that holds rows,
    # a block longer than the capacity into a partly full ring, empty blocks,
    # blocks that straddle the end of the ring, a block that ends exactly at
    # its last slot and blocks longer than the capacity, then the run loop's
    # one-row pushes into the full ring, wrapping it at least three times;
    # every state sampled at n = 0, 1, half and all, with the generators
    # compared after each draw, and every drawn batch left as it was by the
    # later pushes
    rng = np.random.default_rng(capacity)
    ring, ref = ReplayMemory(capacity), _RefReplayMemory(capacity)
    draw, ref_draw = np.random.default_rng(11), np.random.default_rng(11)
    pos, straddled, longer, wraps = 0, False, False, 0
    grown_by_a_row = longer_into_partial = ends_at_last_slot = False
    drawn = []
    for k in [1, 1, capacity + 2, capacity - 1, capacity - 1, 2, capacity + 3, 0, 1,
              2 * capacity + 1, capacity, capacity // 2 + 1, 5] + [1] * (3 * capacity + 2):
        rows, ts = _synthetic(k, rng)
        held, storage = len(ring), len(ring._buf)
        full = held == capacity
        ring.push(rows[0] if k == 1 else rows)
        for t in ts:
            ref.push(t)
        kept = min(k, capacity)
        straddled |= 0 < kept < capacity and pos + kept > capacity
        longer |= k > capacity
        wraps += full and k == 1 and pos + 1 == capacity
        grown_by_a_row |= k == 1 and held > 0 and len(ring._buf) > storage
        longer_into_partial |= k > capacity and 0 < held < capacity
        ends_at_last_slot |= k > 1 and 0 < pos and pos + kept == capacity
        pos = (pos + kept) % capacity
        assert ring.phi == ref.phi and len(ring) == len(ref.items)
        assert ring.rows().tobytes() == _ref_flatten_memory(ref.items, Q_LAYOUT).tobytes()
        for n in sorted({0, 1, len(ring) // 2, len(ring)}):
            got = ring.sample(n, draw)
            want = _ref_flatten_memory(ref.sample_batch(n, ref_draw), Q_LAYOUT)
            assert got.tobytes() == want.tobytes()
            assert draw.bit_generator.state == ref_draw.bit_generator.state
            drawn.append((got, want.tobytes()))
    assert longer and (straddled or capacity == 1) and wraps >= 3
    # a one-slot ring is never partly full, never grows while it holds a row and
    # always writes at slot 0
    assert (grown_by_a_row and longer_into_partial and ends_at_last_slot) or capacity == 1
    assert all(got.tobytes() == want for got, want in drawn)
    with pytest.raises(InsufficientDataError):
        ring.sample(len(ring) + 1, draw)


def test_ring_memory_rows_is_a_copy():
    ring = ReplayMemory(3)
    ring.push(_synthetic(3, np.random.default_rng(0))[0])
    before = ring.rows()
    ring.push(_synthetic(2, np.random.default_rng(1))[0])
    assert not np.shares_memory(before, ring.rows())
    assert before.tobytes() != ring.rows().tobytes()
    assert before[2].tobytes() == ring.rows()[0].tobytes()


# ---------------------------------------------------------------- Q-step

Q_ENV = EnvConfig()
Q_LAYOUT = TransitionLayout(num_actions=Q_ENV.num_actions, ambient_temp=Q_ENV.ambient_temp)
Q_SCALES = state_scales(Q_ENV)


def _random_state(rng):
    return ProcessorState(fps=float(rng.uniform(0.0, 120.0)), freq=float(rng.uniform(0.2, 1.0)),
                          power=float(rng.uniform(1.0, 20.0)), temp=float(rng.uniform(25.0, 80.0)))


def _transitions(n, rng, source="real"):
    return [_RefTransition(_random_state(rng), int(rng.integers(Q_ENV.num_actions)),
                           float(rng.normal()), _random_state(rng), bool(rng.random() < 0.3),
                           source) for _ in range(n)]


def _synthetic(n, rng):
    """Raw generator-like rows: the canonical rows and the decoded objects."""
    raw = rng.uniform(0.0, 1.0, size=(n, 11)) * [120, 1, 20, 80, 1, 120, 1, 20, 80, 2, 1]
    return canonical_rows(raw, Q_LAYOUT), _ref_unflatten_rows(raw, Q_LAYOUT)


def _q_batch(kind, rng):
    """(rows, the same batch as transition objects) of one Q-step."""
    if kind == "decoded":
        return _synthetic(32, rng)
    if kind == "mixed":                      # 16 real rows, then 16 synthetic ones
        real = _transitions(16, rng)
        synth_rows, synth = _synthetic(16, rng)
        return np.concatenate([_encode_all(real, Q_LAYOUT), synth_rows]), real + synth
    batch = _transitions(1 if kind == "single" else 32, rng)
    if kind == "done_and_live":
        assert {t.done for t in batch} == {True, False}
    return _encode_all(batch, Q_LAYOUT), batch


@pytest.mark.parametrize("kind", ["done_and_live", "single", "mixed", "decoded"])
def test_train_q_step_bitwise_equal_reference(kind):
    rng = np.random.default_rng(7)
    cfg = AgentConfig()
    qnet = agent.init_qnet(Q_ENV, cfg, seed=1)
    target = agent.init_qnet(Q_ENV, cfg, seed=2)
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    ref_qnet, ref_adam = qnet, _zero_adam(qnet, cfg.learning_rate)
    for _ in range(5):
        rows, batch = _q_batch(kind, rng)
        loss = agent.train_q_step(trainer, target, rows, cfg, Q_SCALES)
        ref_qnet, ref_adam, ref_loss = _ref_train_q_step(ref_qnet, target, batch, cfg,
                                                         Q_ENV, ref_adam)
        assert loss == ref_loss
        assert trainer.params.flat.tobytes() == ref_qnet.flat.tobytes()
        assert trainer.adam.m.tobytes() == ref_adam.m.tobytes()
        assert trainer.adam.v.tobytes() == ref_adam.v.tobytes()
        assert trainer.adam.step == ref_adam.step


def test_train_q_step_reads_every_action_level_back():
    # a / (k - 1) * (k - 1) falls one ulp short of a for some levels (k = 23,
    # a = 15), so the Q-step must round the encoded action, not truncate it
    env = EnvConfig(num_actions=23)
    layout = TransitionLayout(num_actions=23, ambient_temp=env.ambient_temp)
    assert 15 / 22 * 22 < 15
    rng = np.random.default_rng(29)
    batch = [_RefTransition(_random_state(rng), a, float(rng.normal()), _random_state(rng),
                            a % 3 == 0) for a in range(23)]
    cfg = AgentConfig()
    qnet = agent.init_qnet(env, cfg, seed=8)
    target = agent.init_qnet(env, cfg, seed=9)
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    loss = agent.train_q_step(trainer, target, _encode_all(batch, layout), cfg,
                              state_scales(env))
    ref_qnet, ref_adam, ref_loss = _ref_train_q_step(
        qnet, target, batch, cfg, env, _zero_adam(qnet, cfg.learning_rate))
    assert loss == ref_loss
    assert trainer.params.flat.tobytes() == ref_qnet.flat.tobytes()
    assert trainer.adam.v.tobytes() == ref_adam.v.tobytes()


def _fresh_q_values(qnet, state):
    """Q(state, .) of the state normalized on its own: the reference for the greedy forward."""
    return nets.forward_batch(qnet, _ref_normalize_state(state, Q_ENV)[None])[0]


def test_trainer_q_chain_bytes_equal_pure_train_step_chain():
    # The run loop's schedule, shortened: Adam resets after every 10th update,
    # target syncs after every 4th, and 32 real rows alternate with 16 real
    # plus 16 synthetic ones and with lone 16-row batches.  A 16-row batch
    # with a NaN reward fails in the middle of the chain; the next 16-row
    # step must not see what it left behind.
    rng = np.random.default_rng(19)
    cfg = AgentConfig(target_sync_period=4)
    reset_period, nan_step = 10, 17
    qnet = agent.init_qnet(Q_ENV, cfg, seed=5)
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    target = ref_target = qnet.copy()
    ref_qnet, ref_adam = qnet, _zero_adam(qnet, cfg.learning_rate)
    resets = syncs = 0
    sizes = set()
    for step in range(1, 36):
        if step == nan_step:
            rows = _encode_all(_transitions(16, rng), Q_LAYOUT)
            rows[5, 9] = np.nan
            before = (trainer.params.flat.tobytes(), trainer.adam.m.tobytes(),
                      trainer.adam.v.tobytes(), trainer.adam.step)
            with pytest.raises(NumericError, match="Q targets"):
                agent.train_q_step(trainer, target, rows, cfg, Q_SCALES)
            assert (trainer.params.flat.tobytes(), trainer.adam.m.tobytes(),
                    trainer.adam.v.tobytes(), trainer.adam.step) == before
        if step % 3 == 0:
            rows, batch = _q_batch("done_and_live", rng)
        elif step % 3 == 1:
            rows, batch = _q_batch("mixed", rng)
        else:
            batch = _transitions(16, rng)
            rows = _encode_all(batch, Q_LAYOUT)
        sizes.add(len(batch))
        loss = agent.train_q_step(trainer, target, rows, cfg, Q_SCALES)
        ref_qnet, ref_adam, ref_loss = _ref_train_q_step(ref_qnet, ref_target, batch, cfg,
                                                         Q_ENV, ref_adam)
        assert _hex(loss) == _hex(ref_loss), step
        assert trainer.params.flat.tobytes() == ref_qnet.flat.tobytes(), step
        assert trainer.adam.m.tobytes() == ref_adam.m.tobytes(), step
        assert trainer.adam.v.tobytes() == ref_adam.v.tobytes(), step
        assert trainer.adam.step == ref_adam.step, step
        s, s_next = batch[0].s, batch[0].s_next
        first = agent.q_values(trainer.params, s, Q_SCALES)
        assert first.tobytes() == _fresh_q_values(ref_qnet, s).tobytes(), step
        second = agent.q_values(trainer.params, s_next, Q_SCALES)
        assert second.tobytes() == _fresh_q_values(ref_qnet, s_next).tobytes(), step
        if step % reset_period == 0:
            trainer.reset_adam()
            ref_adam = _zero_adam(ref_qnet, cfg.learning_rate)
            resets += 1
        if step % cfg.target_sync_period == 0:
            target = trainer.params.copy()
            ref_target = ref_qnet.copy()
            syncs += 1
    assert resets == 3 and syncs == 8 and sizes == {16, 32}
    assert nan_step % 3 == 2        # the failed batch's size is the next step's


def test_trainer_leaves_the_params_it_was_built_from_untouched():
    rng = np.random.default_rng(23)
    cfg = AgentConfig()
    qnet = agent.init_qnet(Q_ENV, cfg, seed=6)
    target = agent.init_qnet(Q_ENV, cfg, seed=7)
    before = qnet.flat.tobytes()
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    for _ in range(3):
        agent.train_q_step(trainer, target, _q_batch("done_and_live", rng)[0], cfg, Q_SCALES)
    trainer.reset_adam()
    agent.train_q_step(trainer, target, _q_batch("mixed", rng)[0][:16], cfg, Q_SCALES)
    assert qnet.flat.tobytes() == before
    assert not np.shares_memory(trainer.params.flat, qnet.flat)
    assert (trainer.adam.step, trainer.adam.lr) == (1, cfg.learning_rate)


def test_train_q_step_rejects_nan_online_net_before_updating():
    rng = np.random.default_rng(3)
    cfg = AgentConfig()
    qnet = agent.init_qnet(Q_ENV, cfg, seed=1)
    target = qnet.copy()    # finite targets: only the online net is bad
    qnet.weights[1][2, 3] = np.nan
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    flat_before = trainer.params.flat.tobytes()
    with pytest.raises(NumericError):
        agent.train_q_step(trainer, target, _q_batch("done_and_live", rng)[0], cfg, Q_SCALES)
    assert trainer.params.flat.tobytes() == flat_before
    adam = trainer.adam
    assert adam.step == 0 and not adam.m.any() and not adam.v.any()


def test_one_trainer_takes_q_steps_of_any_size():
    # a run's Q-steps all have its batch size, but nothing in the Q-step is
    # sized for one: a single trainer steps on batches of 1, 7, 32 and 16 rows
    # in turn, each bit-equal to the reference
    rng = np.random.default_rng(37)
    cfg = AgentConfig()
    qnet = agent.init_qnet(Q_ENV, cfg, seed=10)
    target = agent.init_qnet(Q_ENV, cfg, seed=11)
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    ref_qnet, ref_adam = qnet, _zero_adam(qnet, cfg.learning_rate)
    for rows in (1, 7, 32, 16):
        batch = _transitions(rows, rng)
        loss = agent.train_q_step(trainer, target, _encode_all(batch, Q_LAYOUT), cfg, Q_SCALES)
        ref_qnet, ref_adam, ref_loss = _ref_train_q_step(ref_qnet, target, batch, cfg,
                                                         Q_ENV, ref_adam)
        assert _hex(loss) == _hex(ref_loss), rows
        assert trainer.params.flat.tobytes() == ref_qnet.flat.tobytes(), rows
        assert trainer.adam.m.tobytes() == ref_adam.m.tobytes(), rows
        assert trainer.adam.v.tobytes() == ref_adam.v.tobytes(), rows
        assert trainer.adam.step == ref_adam.step, rows
    # each greedy forward returns an array of its own
    s, s_next = batch[0].s, batch[0].s_next
    first = agent.q_values(trainer.params, s, Q_SCALES)
    kept = first.tobytes()
    second = agent.q_values(trainer.params, s_next, Q_SCALES)
    assert first.tobytes() == kept == _fresh_q_values(ref_qnet, s).tobytes()
    assert second.tobytes() == _fresh_q_values(ref_qnet, s_next).tobytes() != kept


# ---------------------------------------------------------------- ODE sampler

def _random_flow():
    """The default 12-64-64-11 flow with random params and normalizer."""
    rng = np.random.default_rng(11)
    model = init_flow_model(FMConfig(), np.full(11, 1.0 / 11), seed=4)
    model.params.flat[:] = rng.normal(scale=0.5, size=model.params.flat.size)
    model.normalizer = Normalizer(mean=rng.normal(size=11), std=rng.uniform(0.5, 2.0, size=11))
    model.loss_curve = [0.0]        # marks it trained, so generate_raw samples it
    return model


@pytest.fixture(scope="module")
def random_flow():
    return _random_flow()


def _with_ode_steps(model, k):
    return replace(model, config=replace(model.config, ode_steps=k))


# n rows go in k = ceil(n / 512) blocks: every block but the last has the even
# 2 * (n // 2k) rows, and the last takes the rest.  Cut into 512-row slices, 1026
# and 1133 would end in a 2- and a 109-row slice, whose rows differ in the last
# bits (small dgemm calls use other kernels); here they are 342 x 3 and
# 376 x 2 + 381.  Near-equal blocks would put an odd block before the last of
# 513 (257 + 256), 1100 (367 x 2 + 366) and 1539 (385 x 3 + 384), whose rows
# differ under the Haswell kernel; here they are 256 + 257, 366 x 2 + 368 and
# 384 x 3 + 387.
@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1000, 1026, 1100, 1133, 1539, 5000])
@pytest.mark.parametrize("ode_steps", [1, 7, 10, 100])
def test_sample_vector_field_bytes_equal_reference(random_flow, n, ode_steps):
    got = generate_raw(_with_ode_steps(random_flow, ode_steps), n, np.random.default_rng(n))
    want = _ref_sample_vector_field(random_flow, n, np.random.default_rng(n), ode_steps)
    assert got.shape == want.shape == (n, 11)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("n", [513, 1000, 5000])
def test_sample_blocks_on_any_core_count_bytes_equal_one_block(random_flow, monkeypatch,
                                                               cores, n):
    # the default 12-64-64-11 net; 2, 2 and 10 blocks, whatever the core count
    usable_cores(monkeypatch, cores)
    assert random_flow.params.layer_sizes == [12, 64, 64, 11]
    model = _with_ode_steps(random_flow, 20)
    got = generate_raw(model, n, np.random.default_rng([n, 2]))
    want = _ref_sample_vector_field(random_flow, n, np.random.default_rng([n, 2]), 20)
    assert got.tobytes() == want.tobytes()


def test_sample_vector_field_repeat_calls_bytes_equal_reference(random_flow):
    # 1, 2 and 9 blocks, then the same call again: nothing one call leaves
    # behind may reach the next
    for n in (300, 1100, 4700, 4700, 300):
        got = generate_raw(_with_ode_steps(random_flow, 5), n, np.random.default_rng([n, 1]))
        want = _ref_sample_vector_field(random_flow, n, np.random.default_rng([n, 1]), 5)
        assert got.tobytes() == want.tobytes(), n


_KERNEL_CHECK = """
import numpy as np
from blas_kernel import corename
from dvfsflow.flow import generate_raw
from test_reference_equality import _random_flow, _ref_sample_vector_field
print(corename())
model = _random_flow()
for n in (513, 1100):
    got = generate_raw(model, n, np.random.default_rng(n))
    want = _ref_sample_vector_field(model, n, np.random.default_rng(n))
    print(n, got.tobytes() == want.tobytes())
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Zen"])
def test_sample_blocks_bytes_equal_one_call_under_avx2_kernels(kernel):
    # Under these kernels a dgemm call with an odd row count gives its last row
    # other bits than a larger call does, so only even blocks before the last keep
    # the one-call bits.  One BLAS thread, as OpenBLAS's thread split of a call's
    # rows moves bits too.  OPENBLAS_CORETYPE takes effect only in a new process.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _KERNEL_CHECK], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    if out[0] != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} runs OpenBLAS's {out[0]} kernel here")
    assert out[1:] == ["513 True", "1100 True"]


# ---------------------------------------------------------------- W1

def _w1_sample(kind, n, rng):
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "ties":
        return rng.integers(-3, 4, size=n).astype(np.float64)
    if kind == "negative_zero":                 # -0.0 but no +0.0 among the ties
        return rng.choice([-0.0, -1.5, 2.0, 1e300], size=n)
    return rng.normal(size=n) * 1e-310          # subnormal


W1_SIZES = [(200, 5000), (5000, 200), (1, 3), (2, 1), (37, 37), (199, 200)]


def _w1_pairs(na, nb):
    """Each sample kind against a shifted, scaled normal sample, both ways round."""
    rng = np.random.default_rng(na * 7919 + nb)
    for kind in ("normal", "ties", "negative_zero", "tiny"):
        a = _w1_sample(kind, na, rng)
        b = _w1_sample("normal", nb, rng) * 3.0 + 1.0
        yield a, b
        yield b, a


def _rel_close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("na,nb", W1_SIZES)
def test_wasserstein1_matches_loop_reference(na, nb):
    for a, b in _w1_pairs(na, nb):
        assert _rel_close(wasserstein1(a, b), _ref_wasserstein1_loop(a, b))


@pytest.mark.parametrize("na,nb", W1_SIZES)
def test_wasserstein1_matches_scipy(na, nb):
    stats = pytest.importorskip("scipy.stats")
    for a, b in _w1_pairs(na, nb):
        assert _rel_close(wasserstein1(a, b), stats.wasserstein_distance(a, b))


def test_wasserstein1_equal_sizes_is_mean_sorted_gap():
    rng = np.random.default_rng(8)
    for n in (1, 37, 5000):
        a, b = rng.normal(size=n), rng.exponential(size=n)
        want = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
        assert _rel_close(wasserstein1(a, b), want)


def test_wasserstein1_mixed_signed_zeros_give_plus_zero():
    # a -0.0 that sorts after a +0.0 makes a -0.0 step, yet W1 is +0.0 whatever the order
    for a, b in (([0.0], [-0.0]), ([-0.0], [0.0]), ([0.0, -0.0], [-0.0, 0.0, -0.0])):
        assert wasserstein1(a, b).hex() == wasserstein1(b, a).hex() == "0x0.0p+0"
    rng = np.random.default_rng(5)
    for n in (2, 200, 5000):
        s = rng.choice([-0.0, 0.0], size=n)
        assert wasserstein1(s, rng.permutation(s)).hex() == "0x0.0p+0"
        other = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n + 7)
        assert _rel_close(wasserstein1(s, other), _ref_wasserstein1_loop(s, other))


@pytest.mark.parametrize("na,nb", [(200, 5000), (50, 50), (1, 4)])
def test_wasserstein1_nan_in_either_sample_is_nan(na, nb):
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=na), rng.normal(size=nb)
    a_nan = a.copy()
    a_nan[0] = np.nan
    assert np.isnan(wasserstein1(a_nan, b))
    assert np.isnan(wasserstein1(b, a_nan))


# ---------------------------------------------------------------- simulator law, regret oracle

def _ref_regret_oracle(env_config):
    """One ``dynamics`` and one ``reward_components`` call per action."""

    def mu_star(state):
        best = -np.inf
        for a in range(env_config.num_actions):
            nxt = dynamics(state, a, env_config, rng=None)
            best = max(best, reward_components(nxt, env_config).total)
        return best

    return mu_star


@pytest.mark.parametrize("env,n", [
    (EnvConfig(), 10_000),
    (EnvConfig(num_actions=2), 2_000),
    (EnvConfig(target_temp=32.0), 2_000),      # tanh unsaturated below ambient + 7
    (EnvConfig(num_actions=7, eta=2.5, min_freq=0.35, ambient_temp=-5.0, target_temp=38.5,
               target_fps=90.0, fps_cap=100.0), 2_000),
])
def test_regret_oracle_hex_equal_dynamics_loop(env, n):
    # temps below ambient (the next temp clamps there), exactly at ambient and
    # at the target, one ulp either side of it, and far above
    rng = np.random.default_rng(23)
    t0 = env.target_temp
    special = [env.ambient_temp, t0, np.nextafter(t0, -np.inf), np.nextafter(t0, np.inf),
               t0 - 10.0, 150.0, 1e3, 1e5]
    temps = np.concatenate([special,
                            rng.uniform(env.ambient_temp - 5.0, t0 + 15.0, n - 1_000),
                            rng.uniform(t0, 400.0, 1_000 - len(special))])
    states = [ProcessorState(fps=30.0, freq=0.5, power=4.0, temp=t) for t in temps.tolist()]
    mu = regret_oracle(env)(states)                                 # every state at once
    assert mu.shape == (n,)
    step = law(temps[:, None], np.arange(env.num_actions), env)   # every (temp, action)
    for state, row, got_mu in zip(states, np.stack(step, axis=-1), mu.tolist()):
        temp, best = state.temp, -np.inf
        for a, got in enumerate(row.tolist()):
            nxt = dynamics(state, a, env, rng=None)
            reward = reward_components(nxt, env).total
            want = [nxt.fps, nxt.freq, nxt.power, nxt.temp, reward]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (temp, a)
            best = max(best, reward)
        assert float.hex(got_mu) == float.hex(best), temp


def test_empirical_regret_hex_equal_dynamics_loop_on_a_noisy_run():
    # run_experiment's visited states and rewards under random actions, episode resets included
    env, seed = EnvConfig(), 7
    sim = DvfsEnv(env, seed=[seed, 1])
    log, episode = RunLog(method="model_free", seed=seed, config={}), 0
    for a in np.random.default_rng(seed).integers(env.num_actions, size=2_000):
        log.states.append(sim.state)
        _, reward, done = sim.step(int(a))
        log.rewards.append(reward)
        if done:
            episode += 1
            sim.reset(seed=[seed, 1, episode])
    assert episode == 10
    mu_star, total, want = _ref_regret_oracle(env), 0.0, []
    for state, reward in zip(log.states, log.rewards):
        total += mu_star(state) - reward
        want.append(total)
    got = empirical_regret(log, regret_oracle(env))
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))


@pytest.mark.parametrize("env,clamps", [
    (EnvConfig(), False),
    (EnvConfig(noise_std_temp=0.0), False),
    (EnvConfig(noise_std_fps=0.0), False),
    (EnvConfig(noise_std_temp=8.0, noise_std_fps=30.0), True),
])
def test_law_replays_env_stream_hex_equal(env, clamps):
    # the env's normals, drawn temp first, then fps, each only when its std is > 0;
    # a zero std gets a normal of 9.0, which law must ignore
    seed, steps = 5, 2_000
    sim = DvfsEnv(env, seed=[seed, 1])
    normals = np.random.default_rng([seed, 1])
    temp, episode, at_ambient, at_zero_fps = sim.state.temp, 0, 0, 0
    for i, a in enumerate(np.random.default_rng(seed).integers(env.num_actions, size=steps)):
        z_temp = normals.standard_normal() if env.noise_std_temp > 0 else 9.0
        z_fps = normals.standard_normal() if env.noise_std_fps > 0 else 9.0
        got = law(temp, a, env, z_temp, z_fps)
        nxt, reward, done = sim.step(int(a))
        want = [nxt.fps, nxt.freq, nxt.power, nxt.temp, reward]
        assert [float(v).hex() for v in got] == list(map(float.hex, want)), i
        at_ambient += nxt.temp == env.ambient_temp
        at_zero_fps += nxt.fps == 0.0
        temp = float(got.temp)
        if done:                                 # run_experiment's episode reset
            episode += 1
            temp = sim.reset(seed=[seed, 1, episode]).temp
            normals = np.random.default_rng([seed, 1, episode])
    assert episode == steps // env.episode_horizon
    if clamps:
        assert at_ambient > 0 and at_zero_fps > 0


@pytest.mark.parametrize("action,named", [(12, 12), (-1, -1), (1.5, 1.5), (-0.5, -0.5),
                                          (np.array([3, 12, -1]), 12)])
def test_law_rejects_bad_action_like_dynamics(action, named):
    env = EnvConfig()
    with pytest.raises(DomainError) as want:
        dynamics(ProcessorState(fps=30.0, freq=0.5, power=4.0, temp=40.0), named, env)
    with pytest.raises(DomainError) as got:
        law(40.0, action, env)
    assert str(got.value) == str(want.value)


def test_regret_oracle_rejects_non_positive_power_like_the_loop():
    env = EnvConfig()
    state = ProcessorState(fps=30.0, freq=0.5, power=4.0, temp=-100.0)
    with pytest.raises(DomainError, match="power must be > 0"):
        regret_oracle(env)([initial_state(env), state])
    with pytest.raises(DomainError, match="power must be > 0"):
        _ref_regret_oracle(env)(state)
    with pytest.raises(DomainError, match="power must be > 0"):
        law(np.array([40.0, state.temp]), 0, env)


# ---------------------------------------------------------------- CSV files

# ``dvfsflow.files`` builds each file as one string and reads it a column or an
# array at a time; the row-at-a-time csv functions below, which ``flow`` and
# ``orchestrate`` held before ``files`` took the format over, are its references.
# The writers write the same bytes, and what they write reads alike: to the same
# bits, or to the same exception type with the same message.  The readers read
# only what the writers write, so they reject some files the references read
# (quoted, padded or ``1_000`` cells); a file they do read, the references read
# to the same bits.

_LOSS_COLUMNS = ("agent_loss", "fm_loss")               # empty before the first update


def _ref_save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """Write an (n, 11) batch with the canonical column header."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != TRANSITION_DIM:
        raise DomainError(f"batch must have {TRANSITION_DIM} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSITION_LABELS)
        # csv writes each float as its repr; one row at a time keeps no copy of the batch
        writer.writerows(row.tolist() for row in matrix)


def _ref_load_batch_csv(path: str) -> np.ndarray:
    """Read a batch written by :func:`_ref_save_batch_csv`.  A wrong header, a row
    without 11 cells or a cell that is not a number raises
    :class:`DomainError` naming the path and line."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRANSITION_LABELS:
            raise DomainError(f"unexpected column header in {path}")
        for row in reader:
            if len(row) != TRANSITION_DIM:
                raise DomainError(f"{path} line {reader.line_num}: expected "
                                  f"{TRANSITION_DIM} cells, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DomainError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        return np.empty((0, TRANSITION_DIM))
    return np.array(rows, dtype=np.float64)


def _ref_runlog_to_csv(log: RunLog, path: str) -> None:
    """One row per step with the pinned column set; ``csv`` writes each float
    as its repr and each None (a loss before the first update) as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_COLUMNS)
        writer.writerows(
            (t, *s, a, r, eps, q, agent_loss, fm_loss)
            for t, s, a, r, eps, q, agent_loss, fm_loss in zip(
                log.t, log.states, log.actions, log.rewards, log.epsilons, log.max_q,
                log.agent_loss, log.fm_loss))


def _ref_runlog_from_csv(path: str, method: str = "", seed: int = -1) -> RunLog:
    """Rebuild the per-step record from a CSV written by :func:`_ref_runlog_to_csv`.

    A row without 11 cells or a non-numeric cell raises :class:`DomainError`
    and a NaN/inf cell :class:`NumericError`, each naming the path and line;
    empty loss cells read as None.  A file with no rows raises
    :class:`DomainError` naming the path.
    """
    log = RunLog(method=method, seed=seed, config={})
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RUNLOG_COLUMNS:
            raise DomainError(f"unexpected run-log header in {path}")
        for cells in reader:
            where = f"{path} line {reader.line_num}"
            if len(cells) != len(RUNLOG_COLUMNS):
                raise DomainError(
                    f"{where}: expected {len(RUNLOG_COLUMNS)} cells, got {len(cells)}")
            row = dict(zip(RUNLOG_COLUMNS, cells))
            try:
                t, action = int(row["t"]), int(row["action"])
                v = {k: float(c) if c or k not in _LOSS_COLUMNS else None
                     for k, c in row.items()}
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from None
            bad = [k for k, x in v.items() if x is not None and not np.isfinite(x)]
            if bad:
                raise NumericError(f"{where}: NaN/inf in run-log column(s) {', '.join(bad)}")
            log.t.append(t)
            log.states.append(ProcessorState(v["fps"], v["freq"], v["power"], v["temp"]))
            log.actions.append(action)
            log.rewards.append(v["reward"])
            log.epsilons.append(v["epsilon"])
            log.max_q.append(v["max_q"])
            log.agent_loss.append(v["agent_loss"])
            log.fm_loss.append(v["fm_loss"])
    if not log.t:
        raise DomainError(f"{path}: the run log holds no steps")
    return log


FILE_CODECS = {                 # loader: (columns, new, reference)
    "batch": (TRANSITION_LABELS, files.load_batch_csv, _ref_load_batch_csv),
    "runlog": (RUNLOG_COLUMNS, files.runlog_from_csv, _ref_runlog_from_csv),
}


def _read_outcome(load, path):
    try:
        got = load(path)
    except Exception as exc:        # the type and message are what is compared
        return type(exc), str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype, got.shape, got.tobytes()
    return repr(got)                # a float's repr tells -0.0 and every last bit apart


def _kind_file(tmp_path, kind: str, content: bytes) -> str:
    """``content`` with its header placeholder filled in for ``kind``, as a file."""
    columns = FILE_CODECS[kind][0]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(content.replace(b"QUOTED", ",".join(f'"{c}"' for c in columns).encode())
                     .replace(b"HEADER", ",".join(columns).encode()))
    return str(path)


def _assert_names_the_line(message: str, path: str, content: bytes):
    """``message`` names ``path`` and, past the header, a line of ``content``."""
    first, *rest = re.split(rb"\r\n|\r|\n", content)    # the universal newlines
    if first != b"HEADER":
        assert re.fullmatch(f"unexpected (column|run-log) header in {re.escape(path)}", message)
    elif rest in ([], [b""]):
        assert message == f"{path}: the run log holds no steps"
    else:
        line = re.match(f"{re.escape(path)} line ([0-9]+): ", message)
        assert line and 2 <= int(line[1]) <= len(rest) + 1, message


def _assert_reads_a_subset(tmp_path, content: bytes):
    """Each loader reads ``content`` to the reference's bits, or rejects it with an
    input or numeric error that names the path and, past the header, the line.  So a
    file the reference rejects, it rejects too."""
    for kind, (_, new, reference) in FILE_CODECS.items():
        path = _kind_file(tmp_path, kind, content)
        try:
            new(path)
        except (DomainError, NumericError) as exc:
            _assert_names_the_line(str(exc), path, content)
        else:
            assert _read_outcome(new, path) == _read_outcome(reference, path), kind


_GOOD = ["1", "0.5", "2.5", "-0.0", "300.25", "3", "-1.5", "0.9", "0.001", "0.125", "0.25"]


def _row(**cells) -> str:
    """A row both loaders accept, with the cells named by column index changed."""
    row = list(_GOOD)
    for key, cell in cells.items():
        row[int(key[1:])] = cell
    return ",".join(row)


def _file(*rows, end="\r\n", final=True, header="HEADER") -> bytes:
    text = end.join([header, *rows]) + (end if final else "")
    return text.encode("utf-8", "surrogateescape")      # "\udcff" is the byte 0xff


HAND_WRITTEN = {
    "crlf": _file(_row(), _row(c0="2")),
    "lf only": _file(_row(), _row(c0="2"), end="\n"),
    "cr only": _file(_row(), _row(c0="2"), end="\r"),
    "no final newline": _file(_row(), _row(c0="2"), final=False),
    "blank line": _file(_row(), "", _row(c0="2")),
    "blank last line": _file(_row(), ""),
    "blank line after the header only": _file(""),
    "whitespace-only line": _file(_row(), "  ", _row(c0="2")),
    "tab-only line": _file(_row(), "\t"),
    "quoted cell": _file(_row(c2='"2.5"')),
    "quoted cell over two lines": _file(_row(c2='"2.5\n"')),
    "quoted comma": _file(_row(c2='"2,5"')),
    "hash cell": _file(_row(c2="#2.5")),
    "underscore": _file(_row(c0="1_0", c2="1_000")),
    "trailing comma": _file(_row() + ","),
    "10 cells": _file(",".join(_GOOD[:10])),
    "12 cells": _file(_row() + ",0.5"),
    "10 then 12 cells": _file(",".join(_GOOD[:10]), _row() + ",0.5"),
    "form feed around a number": _file(_row(c0="\x0c1", c2="2.5\x0c")),
    "form feed inside a number": _file(_row(c2="2\x0c5")),
    "file separator after a number": _file(_row(c0="1\x1c", c2="2.5\x1c")),
    "unit separator before a number": _file(_row(c2="\x1f2.5")),
    "separator in a file float rejects nowhere": _file(_row(), _row(c2="2.5\x1d")),
    "non-UTF-8 byte": _file(_row(c2="\udcff")),
    "non-UTF-8 byte in the header": _file(_row(), header="HEADER".replace("E", "\udcff")),
    "NUL in a cell": _file(_row(c2="2.5\x00")),
    "padded cells": _file(_row(c0=" 1 ", c2=" 2.5 ", c5="\t3\t")),
    "no-break space": _file(_row(c2="2.5\xa0", c3=" 2")),
    "arabic digits": _file(_row(c0="١", c2="٣")),
    "non-finite cells": _file(_row(c2="nan", c3="-inf", c4="-nan", c6="Infinity")),
    "overflow": _file(_row(c2="1e999", c3="-1e999")),
    "subnormals": _file(_row(c2="5e-324", c3="2e-324", c4="-1e-400")),
    "huge int": _file(_row(c0="1" * 400)),
    "int written as float": _file(_row(c0="1.0")),
    "hex float": _file(_row(c2="0x1p3")),
    "empty loss cells": _file(_row(c9="", c10="")),
    "empty state cell": _file(_row(c1="")),
    "space in a loss cell": _file(_row(c9=" ")),
    "nan loss then a text cell": _file(_row(c9="nan"), _row(c2="x")),
    "text cell then a nan": _file(_row(c2="x"), _row(c9="nan")),
    "quoted header": _file(_row(), header="QUOTED"),
    "wrong header": _file(_row(), header="t,a,b"),
    "header only": _file(),
    "header only, no newline": _file(final=False),
    "empty file": b"",
    "newline only": b"\n",
}


@pytest.mark.parametrize("content", HAND_WRITTEN.values(), ids=HAND_WRITTEN.keys())
def test_csv_loaders_read_hand_written_files_as_the_csv_module_or_reject_them(tmp_path,
                                                                             content):
    _assert_reads_a_subset(tmp_path, content)


# the hand-written files that the references read and the loaders reject, with the
# line each loader's error names (None for the header)
NOW_REJECTED = {
    "quoted cell": {"batch": 2, "runlog": 2},
    "quoted cell over two lines": {"batch": 2, "runlog": 2},
    "underscore": {"batch": 2, "runlog": 2},
    "form feed around a number": {"batch": 2, "runlog": 2},
    "padded cells": {"batch": 2, "runlog": 2},
    "no-break space": {"batch": 2, "runlog": 2},
    "arabic digits": {"batch": 2, "runlog": 2},
    "non-finite cells": {"batch": 2},       # "Infinity"; its run log fails in both on inf
    "quoted header": {"batch": None, "runlog": None},
}


def test_csv_loaders_reject_the_hand_written_files_only_the_csv_module_reads(tmp_path):
    found: dict[str, dict] = {}
    for name, content in HAND_WRITTEN.items():
        for kind, (_, new, reference) in FILE_CODECS.items():
            path = _kind_file(tmp_path, kind, content)
            try:
                reference(path)
            except (DomainError, NumericError):
                continue
            try:
                new(path)
            except DomainError as exc:
                line = re.match(f"{re.escape(path)} line ([0-9]+): ", str(exc))
                found.setdefault(name, {})[kind] = int(line[1]) if line else None
    assert found == NOW_REJECTED


def test_csv_loaders_read_the_files_the_writers_write_without_the_line_pass(tmp_path,
                                                                          monkeypatch):
    def line_pass(*args):
        raise AssertionError("the line-by-line pass read a well-formed file")
    monkeypatch.setattr(files, "_raise_first_bad_line", line_pass)
    batch = np.random.default_rng(0).normal(size=(50, TRANSITION_DIM))
    files.save_batch_csv(batch, str(tmp_path / "batch.csv"))
    assert files.load_batch_csv(str(tmp_path / "batch.csv")).tobytes() == batch.tobytes()
    log = RunLog(method="dfm", seed=0, config={}, t=[1, 2],
                 states=[ProcessorState(30.0, 0.5, 4.0, 40.0)] * 2, actions=[3, 0],
                 rewards=[0.5, -1.0], epsilons=[1.0, 0.99], max_q=[0.0, 0.25],
                 agent_loss=[None, 0.125], fm_loss=[None, None])
    files.runlog_to_csv(log, str(tmp_path / "runlog.csv"))
    assert files.runlog_from_csv(str(tmp_path / "runlog.csv"), "dfm", 0) == log


_float_cells = st.floats(width=64) | st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324, 1.7976931348623157e308])


@settings(max_examples=150, deadline=None)
@given(matrix=arrays(np.float64, st.tuples(st.integers(0, 40), st.just(TRANSITION_DIM)),
                     elements=_float_cells))
def test_batch_files_bytes_equal_csv_writer_and_round_trip_bit_equal(tmp_path_factory,
                                                                     matrix):
    tmp = tmp_path_factory.mktemp("batch")
    new, ref = str(tmp / "new.csv"), str(tmp / "ref.csv")
    files.save_batch_csv(matrix, new)
    _ref_save_batch_csv(matrix, ref)
    with open(new, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()
    got, want = files.load_batch_csv(new), _ref_load_batch_csv(ref)
    assert got.dtype == want.dtype and got.shape == want.shape == matrix.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, matrix, equal_nan=True)


def test_batch_files_of_a_list_or_a_wrong_shape_match_the_csv_writer(tmp_path):
    rows = [[float(i)] * TRANSITION_DIM for i in range(3)]
    files.save_batch_csv(rows, str(tmp_path / "new.csv"))
    _ref_save_batch_csv(rows, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    for bad in (np.zeros(TRANSITION_DIM), np.zeros((2, TRANSITION_DIM - 1))):
        with pytest.raises(DomainError) as want:
            _ref_save_batch_csv(bad, str(tmp_path / "x.csv"))
        with pytest.raises(DomainError) as got:
            files.save_batch_csv(bad, str(tmp_path / "y.csv"))
        assert str(got.value) == str(want.value)


_losses = st.none() | st.floats(width=64)


@st.composite
def _run_logs(draw):
    n = draw(st.integers(0, 12))
    floats = st.lists(st.floats(width=64), min_size=n, max_size=n)
    log = RunLog(method="dfm", seed=3, config={})
    log.t = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
    log.states = [ProcessorState(*draw(st.tuples(*[st.floats(width=64)] * 4)))
                  for _ in range(n)]
    log.actions = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    log.rewards, log.epsilons, log.max_q = draw(floats), draw(floats), draw(floats)
    log.agent_loss = draw(st.lists(_losses, min_size=n, max_size=n))
    log.fm_loss = draw(st.lists(_losses, min_size=n, max_size=n))
    return log


@settings(max_examples=150, deadline=None)
@given(log=_run_logs())
def test_run_log_files_bytes_equal_csv_writer_and_read_alike(tmp_path_factory, log):
    tmp = tmp_path_factory.mktemp("runlog")
    new, ref = str(tmp / "new.csv"), str(tmp / "ref.csv")
    files.runlog_to_csv(log, new)
    _ref_runlog_to_csv(log, ref)
    with open(new, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()
    got = _read_outcome(lambda p: files.runlog_from_csv(p, "dfm", 3), new)
    assert got == _read_outcome(lambda p: _ref_runlog_from_csv(p, "dfm", 3), new)


def test_run_log_file_of_a_run_bytes_equal_csv_writer_and_reads_back(tmp_path):
    cfg = ScheduleConfig(horizon=120, exploit_threshold=40, fm_retrain_period=50,
                         planning_breadth=30)
    log = run_experiment("pure_fm", EnvConfig(), AgentConfig(), cfg, 0,
                         FMConfig(hidden_sizes=[8], epochs=2), ForestConfig(n_trees=2))
    assert None in log.agent_loss and None in log.fm_loss
    files.runlog_to_csv(log, str(tmp_path / "new.csv"))
    _ref_runlog_to_csv(log, str(tmp_path / "ref.csv"))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = files.runlog_from_csv(str(tmp_path / "new.csv"), "pure_fm", 0)
    assert repr(back) == repr(_ref_runlog_from_csv(str(tmp_path / "ref.csv"), "pure_fm", 0))
    assert back.states == log.states and back.agent_loss == log.agent_loss


# cells a number with a little text around it, so that many files reach the fast pass
_NUMBERS = ["0", "1", "-3", "2.5", "-0.0", "1e-3", "5e-324", "1e999", "nan", "inf", "12"]
_DECOR = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x1d\x1f\x00\xa0\x85\u2009_#\"',.e+-nx\udcff",
                 max_size=2)
_cells = (st.tuples(_DECOR, st.sampled_from(_NUMBERS), _DECOR).map("".join)
          | st.sampled_from(_NUMBERS) | st.just(""))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_cells, min_size=10, max_size=12), max_size=4),
       end=st.sampled_from(["\r\n", "\n", "\r"]), final=st.booleans())
def test_csv_loaders_read_fuzzed_cells_as_the_csv_module_or_reject_them(tmp_path_factory,
                                                                        rows, end, final):
    content = _file(*map(",".join, rows), end=end, final=final)
    _assert_reads_a_subset(tmp_path_factory.mktemp("fuzz"), content)


# ---------------------------------------------------------------- report

# ``report.write_report`` makes one pass over the runs and drops each run's
# batches before it reads the next; the reference below is the report that kept every
# batch it read (a ``functools.cache``) and every run log until it returned,
# with the ``early_fps_gain`` of run logs and ``np.median`` it used.
# Both must write the same bytes, or raise the same exception with the same
# message, from the same first bad file, and leave no report/ then.

# the per-run metrics, in the order of the reference's rows and metrics.csv columns
_RUN_METRICS = ("mean_fps", "mean_reward", "qvalue_stability", "final_regret")


def _ref_early_fps_gain(runlog_a, runlog_b, window: int = 50) -> float:
    """Ratio of mean fps over the first ``window`` steps of the two runs."""
    if len(runlog_a.states) < window or len(runlog_b.states) < window:
        raise InsufficientDataError(f"both logs must cover {window} steps")
    fps_a = np.array([s.fps for s in runlog_a.states[:window]])
    fps_b = np.array([s.fps for s in runlog_b.states[:window]])
    return float(fps_a.mean() / fps_b.mean())


def _ref_cmd_report(args) -> int:
    run_dir = args.run_dir
    manifest = _load_manifest(os.path.join(run_dir, "manifest.json"))
    report_dir = os.path.join(run_dir, "report")

    env = config_from_dict(manifest["config"]).env
    oracle = regret_oracle(env)
    # each CSV is read and checked once; the figures reuse the batches
    batch = functools.cache(lambda name: load_finite_batch(os.path.join(run_dir, name)))
    per_run = []
    logs = {}
    for entry in manifest["runs"]:
        method, seed = entry["method"], entry["seed"]
        files = entry["files"]
        log = runlog_from_csv(os.path.join(run_dir, files["runlog"]), method, seed)
        regret = empirical_regret(log, oracle)
        logs[(method, seed)] = (log, files, regret)
        batch(files["real"])        # every run's real batch is read and checked
        try:
            stability = qvalue_stability(log)
        except InsufficientDataError:       # a run too short to estimate it
            stability = None
        metrics = (float(np.mean([s.fps for s in log.states])), float(np.mean(log.rewards)),
                   stability, float(regret[-1]))            # in _RUN_METRICS order
        row = {"method": method, "seed": seed, **dict(zip(_RUN_METRICS, metrics))}
        if files.get("synth"):
            row["eval"] = eval_batches(batch(files["real"]), batch(files["synth"]))
        per_run.append(row)

    methods = sorted({r["method"] for r in per_run})
    medians: dict[str, dict] = {}
    for method in methods:
        rows = [r for r in per_run if r["method"] == method]
        medians[method] = {}
        for key in _RUN_METRICS:
            present = [r[key] for r in rows if r[key] is not None]
            medians[method][key] = float(np.median(present)) if present else None
        evals = [r["eval"] for r in rows if "eval" in r]
        if evals:
            gaps = [e["corr_gap"] for e in evals if e["corr_gap"] is not None]
            medians[method]["corr_gap"] = float(np.median(gaps)) if gaps else None

    gains = {}
    # the seeds both methods ran
    seeds = sorted({s for m, s in logs if m == "dfm"} & {s for m, s in logs if m == "model_free"})
    if seeds:
        window = min(50, min(len(logs[(m, s)][0].t) for m in ("dfm", "model_free")
                             for s in seeds))
        vals = [_ref_early_fps_gain(logs[("dfm", s)][0], logs[("model_free", s)][0],
                                    window=window) for s in seeds]
        gains = {"window": window, "per_seed": vals, "median": float(np.median(vals))}

    # figures from the first seed of each method; a batch of one row has no
    # correlations, so its heatmap is skipped and listed in report.json
    first_seed = manifest["runs"][0]["seed"]
    firsts = {m: logs[(m, first_seed)] for m in methods if (m, first_seed) in logs}
    heatmaps = [(files["synth"], f"corr_{method}.svg", f"synthetic correlations: {method}")
                for method, (_, files, _) in firsts.items() if files.get("synth")]
    heatmaps.append((manifest["runs"][0]["files"]["real"], "corr_real.svg",
                     "real-data correlations"))
    # every file is read and checked before report/ exists, so a failed report leaves none
    heatmaps = [(name, batch(name), figure, title) for name, figure, title in heatmaps]
    os.makedirs(report_dir, exist_ok=True)
    skipped = []
    for name, rows, figure, title in heatmaps:
        if len(rows) < 2:
            skipped.append({"figure": figure, "reason": f"{name} holds {len(rows)} row(s); "
                                                        "correlations need at least 2"})
            continue
        report.svg_heatmap(pearson_matrix(rows), TRANSITION_LABELS,
                           os.path.join(report_dir, figure), title=title)
    for figure, title, ylabel, series in _LINE_FIGURES:
        report.svg_lines({m: series(log, regret) for m, (log, _, regret) in firsts.items()},
                         os.path.join(report_dir, figure), title=title, ylabel=ylabel)

    payload = {"per_run": per_run, "medians": medians, "early_fps_gain": gains}
    if skipped:
        payload["skipped_figures"] = skipped
    write_json(payload, os.path.join(report_dir, "report.json"))

    columns = ["method", "seed", *_RUN_METRICS]
    with open(os.path.join(report_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")      # None becomes an empty cell
        writer.writerow(columns + ["corr_gap"])
        writer.writerows([r[k] for k in columns] + [r.get("eval", {}).get("corr_gap")]
                         for r in per_run)
    print(f"report written under {report_dir}")
    return 0



def _report_outcome(command, run_dir):
    """The files ``command`` writes under report/, or the exception it raises."""
    shutil.rmtree(run_dir / "report", ignore_errors=True)
    try:
        assert command(argparse.Namespace(run_dir=str(run_dir))) == 0
    except (DomainError, InsufficientDataError, NumericError, ConfigurationError,
            OSError) as exc:
        assert not (run_dir / "report").exists()
        return type(exc), str(exc)
    return {p.name: p.read_bytes() for p in sorted((run_dir / "report").iterdir())}


def _assert_reports_alike(run_dir):
    want = _report_outcome(_ref_cmd_report, run_dir)
    assert _report_outcome(cli.cmd_report, run_dir) == want
    return want


# (method, seed, steps, real rows, synthetic rows or None) of each run, in manifest order
REPORT_DIRS = {
    "one_method": [("dfm", 0, 60, 40, 30), ("dfm", 1, 60, 40, 30), ("dfm", 2, 20, 12, 9)],
    "several_methods": [("pure_fm", 3, 30, 20, 25), ("model_based", 3, 30, 20, 8),
                        ("model_free", 3, 30, 20, None), ("pure_fm", 1, 30, 20, 25),
                        ("fm_bootstrap", 1, 30, 20, 5)],
    # common seeds 0 and 2, all longer than the 50-step window; seed 1 has no pair
    "dfm_and_model_free": [("dfm", 0, 70, 30, 30), ("model_free", 0, 55, 30, None),
                           ("dfm", 1, 70, 30, 30), ("model_free", 2, 60, 30, None),
                           ("dfm", 2, 60, 30, 30)],
    # a 37-step run on a common seed sets the window
    "short_gain_window": [("model_free", 0, 60, 30, None), ("dfm", 0, 37, 30, 30),
                          ("dfm", 1, 60, 30, 30), ("model_free", 1, 60, 30, None)],
    # one-row batches: the first seed's synthetic heatmap and the real one are skipped
    "one_row_batches": [("pure_fm", 0, 20, 1, 1), ("model_based", 0, 20, 30, 1),
                        ("pure_fm", 1, 5, 30, 30), ("model_based", 1, 20, 1, 30)],
    # runs[0] has no synthetic batch, and a model_free run holds one real row
    "model_free_first": [("model_free", 4, 30, 30, None), ("dfm", 4, 30, 30, 20),
                         ("dfm", 5, 30, 30, 20), ("model_free", 5, 30, 1, None)],
}


@pytest.mark.parametrize("runs", REPORT_DIRS.values(), ids=REPORT_DIRS.keys())
def test_report_files_bytes_equal_the_report_that_kept_every_batch(tmp_path, runs):
    write_run_dir(tmp_path, runs)
    assert "report.json" in _assert_reports_alike(tmp_path)


def _corrupt(path, how):
    """Break one file of a run directory: remove it, or spoil one cell of it."""
    if how == "missing":
        path.unlink()
    elif path.name == "manifest.json":
        path.write_text(path.read_text()[:-1])
    else:
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = "nan" if path.name.startswith(("real", "synth")) else "abc"
        lines[1] = ",".join(cells)
        path.write_text("".join(lines))


@pytest.mark.parametrize("how", ["spoiled", "missing"])
@pytest.mark.parametrize("name", ["several_methods", "model_free_first"])
def test_report_fails_on_the_same_first_bad_file_as_the_reference(tmp_path, name, how):
    write_run_dir(tmp_path / "clean", REPORT_DIRS[name])
    names = sorted(p.name for p in (tmp_path / "clean").iterdir())
    for k, broken in enumerate([(n,) for n in names] + list(combinations(names, 2))):
        run_dir = tmp_path / str(k)
        shutil.copytree(tmp_path / "clean", run_dir)
        for n in broken:
            _corrupt(run_dir / n, how)
        # every file is read, so every broken one fails the report
        assert isinstance(_assert_reports_alike(run_dir), tuple), broken
