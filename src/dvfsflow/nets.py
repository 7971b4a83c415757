"""Dense feedforward nets with manual backprop and Adam.

Shared by the Q-network, the flow-matching vector field and the model-based
transition predictor.  Everything runs in float64: the nets are tiny, and
exact gradient checks matter more than speed.  The training loss is a
feature-weighted squared error: ``mean over batch of sum_i w_i (pred_i - y_i)^2``
where the weights may be a single per-dimension vector or one row per sample
(the Q-update uses one-hot rows so gradients flow only through the taken
action's output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError

_ACTIVATIONS = ("tanh", "relu")


@dataclass
class MlpParams:
    layer_sizes: list[int]
    activation: str
    weights: list[np.ndarray]   # weights[l] has shape (out, in)
    biases: list[np.ndarray]

    def copy(self) -> "MlpParams":
        return MlpParams(
            layer_sizes=list(self.layer_sizes),
            activation=self.activation,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class AdamState:
    lr: float
    step: int
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_mlp(layer_sizes: Sequence[int], activation: str = "tanh",
             seed: int = 0) -> MlpParams:
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases zero, deterministic per seed."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigurationError("layer_sizes needs >= 2 entries, all >= 1")
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(f"activation must be one of {_ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layer_sizes=sizes, activation=activation,
                     weights=weights, biases=biases)


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(np.float64)


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the net on a batch; rows are samples.  Hidden layers use the
    configured activation, the output layer is linear."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise DomainError(f"expected input of shape (n, {params.in_dim}), got {x.shape}")
    a = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        a = z if l == last else _act(z, params.activation)
    return a


def forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Single-vector forward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != params.in_dim:
        raise DomainError(f"expected input of dim {params.in_dim}, got shape {x.shape}")
    return forward_batch(params, x[None, :])[0]


def _check_weight_shape(weights: np.ndarray, n: int, d: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 1 and w.shape[0] == d:
        w = np.broadcast_to(w, (n, d))
    elif w.shape != (n, d):
        raise DomainError(f"loss weights must have shape ({d},) or ({n}, {d})")
    if np.any(w < 0):
        raise DomainError("loss weights must be >= 0")
    return w


def loss_and_grads(params: MlpParams, x: np.ndarray, y: np.ndarray,
                   weights: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Weighted squared-error loss and its analytic gradients.

    Returns (loss, dL/dW per layer, dL/db per layer).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("inputs and targets must be 2-d with matching batch size")
    if y.shape[1] != params.out_dim:
        raise DomainError(f"targets must have {params.out_dim} columns")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("NaN/inf in inputs or targets")
    n, d = y.shape
    w = _check_weight_shape(weights, n, d)

    # Forward with caches.
    acts = [x]
    zs = []
    a = x
    last = len(params.weights) - 1
    for l, (wl, bl) in enumerate(zip(params.weights, params.biases)):
        z = a @ wl.T + bl
        zs.append(z)
        a = z if l == last else _act(z, params.activation)
        acts.append(a)
    pred = acts[-1]
    err = pred - y
    loss = float(np.mean(np.sum(w * err * err, axis=1)))

    # Backward.
    delta = 2.0 * w * err / n
    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    for l in range(last, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l]) * _act_grad(zs[l - 1], acts[l], params.activation)
    return loss, grads_w, grads_b


def adam_init(params: MlpParams, lr: float) -> AdamState:
    return AdamState(
        lr=float(lr), step=0,
        m_w=[np.zeros_like(w) for w in params.weights],
        v_w=[np.zeros_like(w) for w in params.weights],
        m_b=[np.zeros_like(b) for b in params.biases],
        v_b=[np.zeros_like(b) for b in params.biases],
    )


def adam_reset(adam: AdamState, lr: Optional[float] = None) -> AdamState:
    """Fresh moments and step counter; optionally restore a given learning rate."""
    return AdamState(
        lr=adam.lr if lr is None else float(lr), step=0,
        m_w=[np.zeros_like(m) for m in adam.m_w],
        v_w=[np.zeros_like(v) for v in adam.v_w],
        m_b=[np.zeros_like(m) for m in adam.m_b],
        v_b=[np.zeros_like(v) for v in adam.v_b],
    )


def adam_step(params: MlpParams, grads_w: list[np.ndarray], grads_b: list[np.ndarray],
              adam: AdamState) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns fresh params and optimizer state."""
    t = adam.step + 1
    b1, b2 = adam.beta1, adam.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new = params.copy()
    m_w, v_w, m_b, v_b = [], [], [], []
    for l in range(len(params.weights)):
        mw = b1 * adam.m_w[l] + (1 - b1) * grads_w[l]
        vw = b2 * adam.v_w[l] + (1 - b2) * grads_w[l] ** 2
        mb = b1 * adam.m_b[l] + (1 - b1) * grads_b[l]
        vb = b2 * adam.v_b[l] + (1 - b2) * grads_b[l] ** 2
        new.weights[l] = params.weights[l] - adam.lr * (mw / c1) / (np.sqrt(vw / c2) + adam.eps)
        new.biases[l] = params.biases[l] - adam.lr * (mb / c1) / (np.sqrt(vb / c2) + adam.eps)
        m_w.append(mw); v_w.append(vw); m_b.append(mb); v_b.append(vb)
    return new, AdamState(lr=adam.lr, step=t, m_w=m_w, v_w=v_w, m_b=m_b, v_b=v_b,
                          beta1=b1, beta2=b2, eps=adam.eps)


def train_step(params: MlpParams, adam: AdamState, x: np.ndarray, y: np.ndarray,
               weights: np.ndarray) -> tuple[MlpParams, AdamState, float]:
    """One weighted-MSE Adam step; raises NumericError on NaN input before updating."""
    loss, gw, gb = loss_and_grads(params, x, y, weights)
    new_params, new_adam = adam_step(params, gw, gb, adam)
    return new_params, new_adam, loss


def fit(params: MlpParams, adam: AdamState, n: int, epochs: int, batch_size: int,
        rng: np.random.Generator,
        make_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
        ) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam over n rows: each epoch draws ``rng.permutation(n)`` and
    takes one :func:`train_step` per consecutive ``batch_size`` slice of it,
    on the (inputs, targets, weights) that ``make_batch(rows)`` builds.

    Returns the trained params and the mean minibatch loss of every epoch.
    """
    loss_curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            params, adam, loss = train_step(params, adam,
                                            *make_batch(order[start:start + batch_size]))
            losses.append(loss)
        loss_curve.append(float(np.mean(losses)))
    return params, loss_curve


def grad_check(params: MlpParams, x: np.ndarray, y: np.ndarray, weights: np.ndarray,
               h: float = 1e-5, min_sample: int = 50,
               rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks a random subsample of at least ``min_sample`` parameters (all of
    them for smaller nets).  Informational: never raises on mismatch.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    _, gw, gb = loss_and_grads(params, x, y, weights)
    flat_analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])
    total = flat_analytic.size
    n_check = total if total <= min_sample else min_sample
    idx = rng.choice(total, size=n_check, replace=False)

    arrays = params.weights + params.biases
    offsets = np.cumsum([0] + [a.size for a in arrays])

    def poke(flat_index: int, delta: float) -> None:
        k = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        arrays[k].ravel()[flat_index - offsets[k]] += delta

    max_rel = 0.0
    for i in idx:
        i = int(i)
        poke(i, +h)
        lp, _, _ = loss_and_grads(params, x, y, weights)
        poke(i, -2 * h)
        lm, _, _ = loss_and_grads(params, x, y, weights)
        poke(i, +h)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(flat_analytic[i]) + abs(numeric), 1e-8)
        max_rel = max(max_rel, abs(flat_analytic[i] - numeric) / denom)
    return max_rel


CHECKPOINT_VERSION = 1


def params_to_dict(params: MlpParams) -> dict:
    """JSON-ready checkpoint: layer sizes, activation tag, row-major weights, biases."""
    return {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "activation": params.activation,
        "weights": [w.ravel().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def params_from_dict(payload: dict) -> MlpParams:
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {payload.get('version')!r}")
    sizes = [int(s) for s in payload["layer_sizes"]]
    activation = payload["activation"]
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(f"unknown activation tag {activation!r}")
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = np.array(payload["weights"][l], dtype=np.float64).reshape(fan_out, fan_in)
        b = np.array(payload["biases"][l], dtype=np.float64)
        if b.shape != (fan_out,):
            raise ConfigurationError("checkpoint bias shape mismatch")
        weights.append(w)
        biases.append(b)
    return MlpParams(layer_sizes=sizes, activation=activation,
                     weights=weights, biases=biases)
