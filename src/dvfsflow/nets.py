"""Dense tanh feedforward nets with manual backprop and Adam.

Shared by the Q-network, the flow-matching vector field and the model-based
transition predictor, all with tanh hidden layers and a linear output layer.
Everything runs in float64.  The training loss is a feature-weighted squared
error: ``mean over batch of sum_i w_i (pred_i - y_i)^2`` where the weights may
be a single per-dimension vector or one row per sample (the Q-update uses
one-hot rows so gradients flow only through the taken action's output).

A net's parameters live in one contiguous vector, :attr:`MlpParams.flat`:
every weight matrix (row-major, in layer order), then every bias vector.
``weights[l]`` and ``biases[l]`` are views into it, so an in-place write
(``p.weights[0][:] = 0.0``) changes the vector, and Adam updates the whole
vector with a handful of elementwise operations.  Rebinding an entry
(``p.weights[0] = w``) detaches it from the vector: forward passes and
gradients read the new array, but Adam updates and
:meth:`MlpParams.copy` still work on the vector.  The training hot path runs
the same float64 operations, in the same order, as a per-layer
implementation would, with fewer calls and temporaries, so results are
bitwise reproducible.

:class:`Trainer` is the one training loop.  It copies a net's params once,
starts its own Adam state at zero and then updates both in place, with one
flat gradient vector whose per-layer views take the gradient products
directly, and one set of layer arrays per batch size.  Every net trains with
the Adam constants :data:`ADAM_B1`, :data:`ADAM_B2` and :data:`ADAM_EPS`; only
the learning rate is the caller's.  :func:`fit` (flow and model-based planner)
is an epoch loop around :meth:`Trainer.step`, and the run loop keeps one
trainer for the Q-network from its first update to its last.
:func:`loss_and_grads` runs the same forward/backward code into a fresh set
of those arrays, for gradient checks and for evaluating a loss without
training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericError


def _layer_views(flat: np.ndarray, sizes: Sequence[int],
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views of a vector laid out like ``MlpParams.flat``."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
    for fan_out in sizes[1:]:
        biases.append(flat[at:at + fan_out])
        at += fan_out
    if at != flat.size:
        raise DomainError(f"parameter vector has {flat.size} entries, "
                          f"layer sizes {list(sizes)} need {at}")
    return weights, biases


@dataclass
class MlpParams:
    layer_sizes: list[int]
    flat: np.ndarray            # all weights (row-major, by layer), then all biases
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # weights[l] has shape (out, in); both lists hold views of flat
        self.weights, self.biases = _layer_views(self.flat, self.layer_sizes)

    def copy(self) -> "MlpParams":
        return MlpParams(list(self.layer_sizes), self.flat.copy())

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8     # moment decays and denominator floor


@dataclass
class AdamState:
    lr: float
    step: int
    m: np.ndarray               # first moments, laid out like MlpParams.flat
    v: np.ndarray               # second moments, same layout


def init_mlp(layer_sizes: Sequence[int], seed: int = 0) -> MlpParams:
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases zero, deterministic per seed."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigurationError("layer_sizes needs >= 2 entries, all >= 1")
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=fan_out * fan_in))
    flat = np.concatenate(weights + [np.zeros(sum(sizes[1:]))])
    return MlpParams(layer_sizes=sizes, flat=flat)


class _Workspace:
    """Arrays one forward/backward pass writes for a batch of ``rows``: every layer's
    output, the deltas back-propagated into the hidden layers, and the
    output error with its weighted copy."""

    def __init__(self, sizes: Sequence[int], rows: int):
        self.acts = [np.empty((rows, s)) for s in sizes[1:]]
        self.deltas = [np.empty((rows, s)) for s in sizes[1:-1]]
        self.err = np.empty((rows, sizes[-1]))
        self.werr = np.empty((rows, sizes[-1]))


def _activations(params: MlpParams, x: np.ndarray,
                 out: Optional[list] = None) -> list[np.ndarray]:
    """Outputs of every layer for input rows x: [x, hidden..., prediction],
    written into the arrays of ``out`` (one per layer, None to allocate).
    Hidden layers are tanh, the output layer is linear."""
    acts = [x]
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(acts[-1], w.T, out=None if out is None else out[l])
        a += b
        if l < last:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def forward_batch(params: MlpParams, x: np.ndarray,
                  out: Optional[list[np.ndarray]] = None) -> np.ndarray:
    """Evaluate the net on a batch; rows are samples.

    ``out`` holds one (n, fan_out) float64 array per layer, into which the
    layer outputs are written; the prediction returned is its last entry and
    lives until the next call given the same arrays.  Without it every call
    allocates its own.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise DomainError(f"expected input of shape (n, {params.in_dim}), got {x.shape}")
    return _activations(params, x, out)[-1]


def _check_batch(params: MlpParams, x: np.ndarray, y: np.ndarray, weights: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, weights) as float64 arrays, after the checks every training step
    makes: 2-d inputs and targets with matching rows, finite values, and loss
    weights of shape (d,) (broadcast over rows) or (n, d), all >= 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("inputs and targets must be 2-d with matching batch size")
    if y.shape[1] != params.out_dim:
        raise DomainError(f"targets must have {params.out_dim} columns")
    if not (np.logical_and.reduce(np.isfinite(x), axis=None)
            and np.logical_and.reduce(np.isfinite(y), axis=None)):
        raise NumericError("NaN/inf in inputs or targets")
    n, d = y.shape
    w = np.asarray(weights, dtype=np.float64)
    if not (w.shape == (d,) or w.shape == (n, d)):
        raise DomainError(f"loss weights must have shape ({d},) or ({n}, {d})")
    if np.logical_or.reduce(w < 0, axis=None):
        raise DomainError("loss weights must be >= 0")
    return x, y, w


def _forward_backward(params: MlpParams, x: np.ndarray, y: np.ndarray, w: np.ndarray,
                      work: _Workspace, grads_w: list, grads_b: list) -> float:
    """Weighted squared-error loss of a checked batch.  Its gradients are
    written into the per-layer arrays of ``grads_w`` and ``grads_b``, and the
    intermediate arrays into ``work``."""
    n = y.shape[0]
    acts = _activations(params, x, work.acts)
    err = np.subtract(acts[-1], y, out=work.err)
    werr2 = np.multiply(w, err, out=work.werr)
    werr2 *= err
    loss = float(np.add.reduce(np.add.reduce(werr2, axis=1)) / n)   # np.mean's sum and division

    # Backward.  Each hidden activation is consumed once, so the tanh
    # gradient 1 - a*a overwrites it.
    delta = np.multiply(2.0 * w, err, out=work.werr)
    delta /= n
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=grads_w[l])
        np.add.reduce(delta, axis=0, out=grads_b[l])
        if l > 0:
            a = acts[l]
            delta = np.matmul(delta, params.weights[l], out=work.deltas[l - 1])
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            delta *= a
    return loss


def loss_and_grads(params: MlpParams, x: np.ndarray, y: np.ndarray,
                   weights: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Weighted squared-error loss and its analytic gradients.

    Returns (loss, dL/dW per layer, dL/db per layer); the gradients are views
    of one fresh vector laid out like ``MlpParams.flat``.
    """
    x, y, w = _check_batch(params, x, y, weights)
    grads_w, grads_b = _layer_views(np.empty_like(params.flat), params.layer_sizes)
    loss = _forward_backward(params, x, y, w, _Workspace(params.layer_sizes, x.shape[0]),
                             grads_w, grads_b)
    return loss, grads_w, grads_b


def _adam_update(adam: AdamState, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Step ``adam.step`` of Adam for the flat gradient g (which is
    overwritten): the new moments overwrite ``adam.m`` and ``adam.v``, and
    the update, what the parameter vector loses, is written into ``out``."""
    t, b1, b2 = adam.step, ADAM_B1, ADAM_B2
    sq = np.multiply(g, g, out=out)
    sq *= 1 - b2
    adam.v *= b2
    adam.v += sq                        # b2 v + (1 - b2) g^2
    g *= 1 - b1
    adam.m *= b1
    adam.m += g                         # b1 m + (1 - b1) g
    update = np.divide(adam.m, 1.0 - b1 ** t, out=out)
    update *= adam.lr
    denom = np.divide(adam.v, 1.0 - b2 ** t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    return update


def _check_loss(loss: float) -> None:
    if not math.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss!r}")


class Trainer:
    """In-place minibatch Adam on one net, the one training loop of the package.

    It owns a copy of the params it is built from (which stay untouched), an
    Adam state at learning rate ``lr`` that starts from zero moments, one flat
    gradient vector whose per-layer views take the gradient products directly,
    one update vector and one set of layer arrays per batch size.  ``params``
    is live: read it between steps, copy it to keep a snapshot.
    """

    def __init__(self, params: MlpParams, lr: float):
        self.params = params.copy()
        self.adam = AdamState(lr=float(lr), step=0, m=np.zeros_like(self.params.flat),
                              v=np.zeros_like(self.params.flat))
        self._grad = np.empty_like(self.params.flat)
        self._update = np.empty_like(self.params.flat)
        self._grads_w, self._grads_b = _layer_views(self._grad, self.params.layer_sizes)
        self._work: dict[int, _Workspace] = {}

    def step(self, x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
        """One weighted-MSE Adam step; raises NumericError on NaN input or a
        non-finite loss before updating."""
        params, adam = self.params, self.adam
        x, y, w = _check_batch(params, x, y, weights)
        rows = x.shape[0]
        if rows not in self._work:
            self._work[rows] = _Workspace(params.layer_sizes, rows)
        loss = _forward_backward(params, x, y, w, self._work[rows],
                                 self._grads_w, self._grads_b)
        _check_loss(loss)
        adam.step += 1
        params.flat -= _adam_update(adam, self._grad, self._update)
        return loss

    def reset_adam(self, lr: float) -> None:
        """Zero the moments and the step counter and set the learning rate."""
        self.adam.lr, self.adam.step = float(lr), 0
        self.adam.m[:] = 0.0
        self.adam.v[:] = 0.0


def fit(params: MlpParams, lr: float, n: int, epochs: int, batch_size: int,
        rng: np.random.Generator,
        make_batch: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
        ) -> tuple[MlpParams, list[float]]:
    """Minibatch Adam from a fresh state at learning rate ``lr`` over n rows:
    each epoch draws ``rng.permutation(n)`` and takes one :meth:`Trainer.step`
    per consecutive ``batch_size`` slice of it, on the (inputs, targets,
    weights) that ``make_batch(rows)`` builds; each step is done before the
    next call, so ``make_batch`` may rewrite the arrays it returned last time.
    ``params`` stays untouched.  Returns the trained params and the mean
    minibatch loss of every epoch.
    """
    trainer = Trainer(params, lr)
    loss_curve = []
    for _ in range(epochs):
        order = rng.permutation(n)
        losses = [trainer.step(*make_batch(order[start:start + batch_size]))
                  for start in range(0, n, batch_size)]
        loss_curve.append(float(np.mean(losses)))
    return trainer.params, loss_curve


def grad_check(params: MlpParams, x: np.ndarray, y: np.ndarray, weights: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> float:
    """Max relative error between analytic and central-difference gradients
    (step 1e-5) over 50 random parameters, or all of them in smaller nets.
    Informational: never raises on mismatch."""
    rng = np.random.default_rng(0) if rng is None else rng
    h = 1e-5
    _, gw, gb = loss_and_grads(params, x, y, weights)
    flat_analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])
    total = flat_analytic.size
    n_check = min(total, 50)
    idx = rng.choice(total, size=n_check, replace=False)

    max_rel = 0.0
    for i in idx:
        i = int(i)
        params.flat[i] += h             # same order as the analytic vector
        lp, _, _ = loss_and_grads(params, x, y, weights)
        params.flat[i] -= 2 * h
        lm, _, _ = loss_and_grads(params, x, y, weights)
        params.flat[i] += h
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(flat_analytic[i]) + abs(numeric), 1e-8)
        max_rel = max(max_rel, abs(flat_analytic[i] - numeric) / denom)
    return max_rel


CHECKPOINT_VERSION = 1


def params_to_dict(params: MlpParams) -> dict:
    """JSON-ready checkpoint: layer sizes, the activation tag (always tanh),
    row-major weights, biases."""
    return {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "activation": "tanh",
        "weights": [w.ravel().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
