"""Distribution-aware conditional flow matching over transition rows.

A transition (s, a, r, s', done) is one 11-column float64 row, normalized
per dimension, and a time-conditioned vector field is regressed onto the
straight-path target field between Gaussian latents and data.  Training draws
B bootstrap replicates of the latent pool (each re-paired with a shuffled
copy of the data batch) and weights the per-dimension squared error by the
normalized feature weights.  Sampling integrates dx/dt = v(x, t) with K
explicit midpoint steps from t=0 (noise) to t=1 (data), two evaluations of v
per step: x += dt v(x + v(x, t) dt / 2, t + dt / 2).  The straight CFM paths
(rectified flow, Liu et al., arXiv 2209.03003) make this second-order step
accurate at few steps.  The n rows go through all K steps in k = ceil(n /
``SAMPLE_BLOCK_ROWS``) blocks with the bits of one call over all n: every block
but the last has the even 2 * (n // 2k) rows, since under OpenBLAS's Haswell
kernel a dgemm call with an odd row count gives its last row other bits.

One :class:`CfmBatches` makes the bootstrap draws of every training batch of a
flow and builds each batch in fresh arrays.  The one sampler,
:func:`generate_raw`, takes K from ``FMConfig.ode_steps``, allocates the
largest block's inputs and layer outputs once per call and steps each block in
place: the midpoint goes into the block's input rows and both evaluations into
the same layer outputs.

A trained flow is one type, :class:`FlowModel`: the vector-field net, its
per-dimension normalizer, the feature weights, the config and the loss
history, with no knowledge of the transition layout, so the same training and
sampling code serves any (n, d) data.  Only the codec knows the 11 columns:
:func:`encode_transition` builds the row of one env step, :func:`canonical_rows`
projects raw rows, such as generated ones, onto valid transitions, and
:func:`unflatten_transition` reads one row back as a :class:`Transition`.  The
replay memories, the forest, the Q-step and the batch CSVs exchange the rows,
and index them through the codec's column groups: ``STATE_COLS``, ``ACTION_COL``,
``NEXT_STATE_COLS``, ``REWARD_COL``, ``DONE_COL``, and the split of a row into
its (s, a) inputs ``INPUT_COLS`` and its (s', r, done) outcome ``OUTCOME_COLS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nets
from .errors import (ConfigurationError, DomainError, NumericError, StateError, check_domains,
                     domain)
from .nets import MlpParams
from .simenv import ProcessorState

TRANSITION_LABELS = [
    "fps", "freq", "power", "temp", "action",
    "next_fps", "next_freq", "next_power", "next_temp", "reward", "done",
]
TRANSITION_DIM = len(TRANSITION_LABELS)
# The column groups of a row, in TRANSITION_LABELS order.  Slices read views.
STATE_COLS = slice(0, 4)            # s, in ProcessorState field order
ACTION_COL = 4                      # a, as a / (num_actions - 1)
NEXT_STATE_COLS = slice(5, 9)       # s'
REWARD_COL = 9                      # r
DONE_COL = 10                       # done, 1.0 or 0.0
INPUT_COLS = slice(0, 5)            # (s, a), what a transition starts from
OUTCOME_COLS = slice(5, 11)         # (s', r, done), what it leads to


@dataclass(frozen=True)
class TransitionLayout:
    """The env settings the 11-column encoding of one transition depends on."""

    num_actions: int
    ambient_temp: float


@dataclass(frozen=True)
class Transition:
    s: ProcessorState
    a: int
    r: float
    s_next: ProcessorState
    done: bool


def encode_transition(s: ProcessorState, a: int, r: float, s_next: ProcessorState,
                      done: bool, layout: TransitionLayout) -> np.ndarray:
    """One transition as an 11-row in ``TRANSITION_LABELS`` order: the action
    as a / (num_actions - 1), done as 1.0 or 0.0."""
    return np.array([*s, a / (layout.num_actions - 1), *s_next, r, 1.0 if done else 0.0],
                    dtype=np.float64)


def check_finite(batch: np.ndarray, where: str = "") -> None:
    """Raise :class:`NumericError` naming the columns of an (n, 11) batch
    that hold NaN/inf; ``where`` (say, a file name) prefixes the message."""
    finite = np.isfinite(batch).all(axis=0)
    if not finite.all():
        bad = [lab for lab, ok in zip(TRANSITION_LABELS, finite) if not ok]
        prefix = f"{where}: " if where else ""
        raise NumericError(f"{prefix}NaN/inf in transition column(s) {', '.join(bad)}")


def canonical_rows(raw: np.ndarray, layout: TransitionLayout) -> np.ndarray:
    """Project raw (n, 11) rows, such as generated ones, onto valid transitions.

    Clamps states to their physical ranges (fps >= 0, freq in [0, 1], power
    >= 1e-6, temp >= ambient) as Python's ``max`` would, so -0.0 stays -0.0;
    snaps the action to its nearest level; done becomes 1.0 if ``> 0.5``, else 0.0.
    Non-finite cells raise :class:`NumericError` naming their columns.
    """
    v = np.asarray(raw, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != TRANSITION_DIM:
        raise DomainError(f"expected an (n, {TRANSITION_DIM}) batch, got shape {v.shape}")
    check_finite(v)
    lo, hi = np.full(TRANSITION_DIM, -np.inf), np.full(TRANSITION_DIM, np.inf)
    lo[STATE_COLS] = lo[NEXT_STATE_COLS] = 0.0, 0.0, 1e-6, layout.ambient_temp
    hi[STATE_COLS] = hi[NEXT_STATE_COLS] = np.inf, 1.0, np.inf, np.inf
    out = np.minimum(np.where(v < lo, lo, v), hi)      # the reward passes unchanged
    k1 = layout.num_actions - 1
    out[:, ACTION_COL] = np.rint(np.clip(v[:, ACTION_COL], 0.0, 1.0) * k1).astype(int) / k1
    out[:, DONE_COL] = v[:, DONE_COL] > 0.5
    return out


def unflatten_transition(vec: np.ndarray, layout: TransitionLayout) -> Transition:
    """Decode one 11-vector: :func:`canonical_rows` on it, as fields."""
    if np.shape(vec) != (TRANSITION_DIM,):
        raise DomainError(
            f"expected a vector of dim {TRANSITION_DIM}, got shape {np.shape(vec)}")
    v = canonical_rows(np.reshape(vec, (1, -1)), layout)[0].tolist()
    return Transition(ProcessorState(*v[STATE_COLS]),
                      round(v[ACTION_COL] * (layout.num_actions - 1)), v[REWARD_COL],
                      ProcessorState(*v[NEXT_STATE_COLS]), v[DONE_COL] == 1.0)


@dataclass
class Normalizer:
    mean: np.ndarray
    std: np.ndarray        # floored at 1e-6 so constant columns stay finite

    @classmethod
    def fit(cls, data: np.ndarray) -> "Normalizer":
        data = np.asarray(data, dtype=np.float64)
        return cls(mean=data.mean(axis=0), std=np.maximum(data.std(axis=0), 1e-6))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class FMConfig:
    sigma_min: float = domain("[0, 1)", default=0.01)
    bootstrap_count: int = domain(">= 1", default=8)   # B of the bootstrapped objective
    ode_steps: int = domain(">= 1", default=10)        # K midpoint steps, 2K evaluations
    hidden_sizes: list[int] = domain(">= 1", default_factory=lambda: [64, 64])
    epochs: int = domain(">= 1", default=400)
    batch_size: int = domain(">= 1", default=32)
    learning_rate: float = domain("> 0", default=1e-3)

    def validate(self) -> None:
        check_domains("flow", self)


@dataclass
class FlowModel:
    """A flow over d-dim rows: the vector-field net, the per-dimension
    normalizer, the feature weights and config it trains with, and its
    per-epoch loss history.  An empty loss curve means untrained."""

    params: MlpParams             # input concat(x, t) -> velocity over x
    normalizer: Normalizer
    weights: np.ndarray           # lambda, sums to 1
    config: FMConfig
    loss_curve: list[float] = field(default_factory=list)


def init_flow_model(config: FMConfig, lam: np.ndarray, seed=0) -> FlowModel:
    """Untrained flow over len(lam) dims: fresh net, identity normalizer."""
    config.validate()
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or np.any(lam < 0):
        raise ConfigurationError("feature weights must be a non-negative vector")
    if abs(lam.sum() - 1.0) > 1e-9:
        raise ConfigurationError("feature weights must sum to 1")
    d = lam.shape[0]
    params = nets.init_mlp([d + 1] + list(config.hidden_sizes) + [d], seed=seed)
    return FlowModel(params=params,
                     normalizer=Normalizer(mean=np.zeros(d), std=np.ones(d)),
                     weights=lam, config=config)


class CfmBatches:
    """Builds the (inputs, targets, weights) of bootstrapped CFM steps on rows
    of ``data``, drawing from ``rng``.

    ``batches(rows)`` takes the data rows of one step (indices in range) and
    makes its draws in an order that is part of the contract (tests
    reproduce it): latent pool, bootstrap indices, one data permutation per
    replicate, then the times.
    """

    def __init__(self, data: np.ndarray, lam: np.ndarray, sigma_min: float, count: int,
                 rng: np.random.Generator):
        self.data, self.lam, self.sigma_min, self.count, self.rng = (
            data, lam, sigma_min, count, rng)

    def __call__(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m, d = rows.shape[0], self.data.shape[1]
        rng, c = self.rng, 1.0 - self.sigma_min
        pool = rng.standard_normal((m, d))      # latent pool, bootstrapped into x0
        x0 = pool[rng.integers(0, m, size=(self.count, m)).ravel()]
        perm = rng.permuted(np.tile(np.arange(m), (self.count, 1)), axis=1)
        x1 = self.data[rows[perm.ravel()]]      # one data permutation per replicate
        t = rng.random((self.count * m, 1))     # the bits of uniform(0, 1)
        xt = (1.0 - t * c) * x0 + t * x1        # (1 - (1 - sigma_min) t) x0 + t x1
        return np.concatenate([xt, t], axis=1), x1 - x0 * c, self.lam


def train_flow_model(data: np.ndarray, lam: np.ndarray, config: FMConfig,
                     seed=0) -> FlowModel:
    """Mini-batch Adam on the bootstrapped CFM loss over raw (n, d) rows, such
    as a flattened memory.

    The schedule decides when there are enough rows to train on
    (``ScheduleConfig.can_train``); this only refuses an empty array.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DomainError("training data must be an (n, d) matrix")
    if data.shape[0] == 0:
        raise StateError("flow training needs transitions, got none")
    if not np.all(np.isfinite(data)):
        raise NumericError("NaN/inf in training data")
    if np.shape(lam) != (data.shape[1],):
        raise DomainError("feature weights must match the data dimension")
    model = init_flow_model(config, lam, seed=seed)
    model.normalizer = Normalizer.fit(data)
    normalized = model.normalizer.normalize(data)

    rng = np.random.default_rng(seed)
    batches = CfmBatches(normalized, model.weights, config.sigma_min,
                         config.bootstrap_count, rng)
    model.params, model.loss_curve = nets.fit(
        model.params, config.learning_rate, normalized.shape[0], config.epochs,
        config.batch_size, rng, batches)
    return model


# Most rows of a block of generate_raw but the last: of k = ceil(n / 512) blocks,
# each but the last has the even 2 * (n // 2k) rows and the last, the largest,
# the rest, fewer than n / k + 2k (1,000 rows: 500 + 500; 513: 256 + 257).  The
# arrays, sized for the last block, take 1,208 bytes a row (12 + 64 + 64 + 11
# float64s): 0.60 MB at 1,000 and 5,000 rows, at most 0.86 MB up to 51,200.
# Blocks cut a default dfm run's peak RSS from 41.25-41.33 MB to 40.85-41.05 MB
# at no cost in time; fresh arrays per evaluation made a new process's first
# 5,000-row sample take 67-79 ms against 60-66 ms (2-vCPU x86, numpy 2.4, one
# BLAS thread).  OpenBLAS 0.3.31 gives a row other bits in dgemm calls of up to
# 109 rows, and blocks have >= 256 once n > 512.  Under its Haswell kernel
# (AVX2) a call with an odd row count gives its last row other bits, so only the
# last block may be odd; that holds at one BLAS thread, as the thread split of a
# call's rows moves bits too.
SAMPLE_BLOCK_ROWS = 512


def generate_raw(model: FlowModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n denormalized samples: dx/dt = v(x, t) integrated with K =
    ``model.config.ode_steps`` explicit midpoint steps from noise to data
    space, 2K evaluations of the vector field, one block after another."""
    if not model.loss_curve:
        raise StateError("flow model is untrained; call train_flow_model first")
    d, ode_steps = model.params.out_dim, model.config.ode_steps
    if n == 0:
        return np.empty((0, d))
    x = rng.standard_normal((n, d))
    dt = 1.0 / ode_steps
    k = -(-n // SAMPLE_BLOCK_ROWS)
    rows = 2 * (n // (2 * k))                   # even, in every block but the last
    size = n - (k - 1) * rows                   # the last block's, the largest
    inputs_buf = np.empty((size, d + 1))
    layers_buf = [np.empty((size, s)) for s in model.params.layer_sizes[1:]]
    for block in np.split(x, [i * rows for i in range(1, k)]):     # views of x
        inputs, layers = inputs_buf[:len(block)], [a[:len(block)] for a in layers_buf]
        for step in range(ode_steps):
            inputs[:, :d] = block
            inputs[:, d] = step * dt
            v = nets.forward_batch(model.params, inputs, out=layers)
            v *= 0.5 * dt
            inputs[:, :d] += v                  # the midpoint x + v(x, t) dt / 2
            inputs[:, d] = (step + 0.5) * dt
            v = nets.forward_batch(model.params, inputs, out=layers)
            v *= dt
            block += v
    return model.normalizer.denormalize(x)


def save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """:func:`dvfsflow.files.save_batch_csv`, which alone holds the CSV format;
    kept here for the benchmark in ``perfbench/``."""
    from .files import save_batch_csv
    save_batch_csv(matrix, path)


def load_batch_csv(path: str) -> np.ndarray:
    """:func:`dvfsflow.files.load_batch_csv`, kept here for the benchmark."""
    from .files import load_batch_csv
    return load_batch_csv(path)
