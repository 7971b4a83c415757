"""Distribution-aware conditional flow matching over flattened transitions.

A transition (s, a, r, s', done) is flattened to an 11-dim vector, normalized
per dimension, and a time-conditioned vector field is regressed onto the
straight-path target field between Gaussian latents and data.  Training draws
B bootstrap replicates of the latent pool (each re-paired with a shuffled
copy of the data batch) and weights the per-dimension squared error by the
normalized feature weights.  Sampling integrates dx/dt = v(x, t) with explicit
Euler from t=0 (noise) to t=1 (data) and decodes back to transitions.

A trained flow is one type, :class:`FlowModel`: the vector-field net, its
per-dimension normalizer, the feature weights, the config and the loss
history, with no knowledge of the transition layout, so the same training and
sampling code serves any (n, d) data.  Only the codec (:class:`TransitionLayout`,
flatten/unflatten) knows the 11 columns.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nets
from .agent import ReplayMemory, Transition
from .errors import ConfigurationError, DomainError, NumericError, StateError
from .nets import MlpParams
from .simenv import ProcessorState

TRANSITION_LABELS = [
    "fps", "freq", "power", "temp", "action",
    "next_fps", "next_freq", "next_power", "next_temp", "reward", "done",
]
TRANSITION_DIM = len(TRANSITION_LABELS)


@dataclass(frozen=True)
class TransitionLayout:
    """Describes the flattened 11-column encoding of one transition."""

    num_actions: int = 12
    ambient_temp: float = 25.0

    @property
    def dim(self) -> int:
        return TRANSITION_DIM


def flatten_transition(t: Transition, layout: TransitionLayout) -> np.ndarray:
    a_enc = t.a / (layout.num_actions - 1)
    return np.array([
        t.s.fps, t.s.freq, t.s.power, t.s.temp, a_enc,
        t.s_next.fps, t.s_next.freq, t.s_next.power, t.s_next.temp,
        t.r, 1.0 if t.done else 0.0,
    ], dtype=np.float64)


def _decode_state(fps: float, freq: float, power: float, temp: float,
                  layout: TransitionLayout) -> ProcessorState:
    return ProcessorState(
        fps=max(fps, 0.0),
        freq=min(max(freq, 0.0), 1.0),
        power=max(power, 1e-6),
        temp=max(temp, layout.ambient_temp),
    )


def unflatten_transition(vec: np.ndarray, layout: TransitionLayout,
                         source: str = "synth") -> Transition:
    """Inverse of :func:`flatten_transition`; clamps state fields to their
    physical ranges and decodes action by rounding, done by threshold 0.5."""
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (layout.dim,):
        raise DomainError(f"expected a vector of dim {layout.dim}, got shape {v.shape}")
    k = layout.num_actions
    action = int(np.clip(np.rint(v[4] * (k - 1)), 0, k - 1))
    return Transition(
        s=_decode_state(v[0], v[1], v[2], v[3], layout),
        a=action,
        r=float(v[9]),
        s_next=_decode_state(v[5], v[6], v[7], v[8], layout),
        done=bool(v[10] > 0.5),
        source=source,
    )


def flatten_memory(transitions: list[Transition], layout: TransitionLayout) -> np.ndarray:
    return np.stack([flatten_transition(t, layout) for t in transitions])


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
    sigma_min: float = 0.01
    bootstrap_count: int = 8      # B of the bootstrapped objective
    ode_steps: int = 100          # K Euler steps for sampling
    hidden_sizes: list[int] = field(default_factory=lambda: [64, 64])
    epochs: int = 400
    batch_size: int = 32
    learning_rate: float = 1e-3

    def validate(self) -> None:
        if not (0.0 <= self.sigma_min < 1.0):
            raise ConfigurationError("sigma_min must lie in [0, 1)")
        if self.bootstrap_count < 1:
            raise ConfigurationError("bootstrap_count must be >= 1")
        if self.ode_steps < 1:
            raise ConfigurationError("ode_steps must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be > 0")


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
    params = nets.init_mlp([d + 1] + list(config.hidden_sizes) + [d],
                           activation="tanh", seed=seed)
    return FlowModel(params=params,
                     normalizer=Normalizer(mean=np.zeros(d), std=np.ones(d)),
                     weights=lam, config=config)


def bootstrap_latents(pool: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` replicates of the pool, each m rows drawn with replacement."""
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] < 1:
        raise DomainError("latent pool must be a non-empty (m, d) matrix")
    if count < 1:
        raise DomainError("replicate count must be >= 1")
    m = pool.shape[0]
    idx = rng.integers(0, m, size=(count, m))
    return pool[idx]


def _cfm_batch(batch: np.ndarray, lam: np.ndarray, sigma_min: float, count: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (inputs, targets, weights) for one bootstrapped CFM step.

    Draw order is part of the contract (tests reproduce it): latent pool,
    bootstrap indices, one data permutation per replicate, then the times.
    """
    m, d = batch.shape
    pool = rng.standard_normal((m, d))
    x0 = bootstrap_latents(pool, count, rng)                  # (B, m, d)
    x1 = np.stack([batch[rng.permutation(m)] for _ in range(count)])
    x0 = x0.reshape(count * m, d)
    x1 = x1.reshape(count * m, d)
    t = rng.uniform(0.0, 1.0, size=(count * m, 1))
    xt = (1.0 - (1.0 - sigma_min) * t) * x0 + t * x1
    target = x1 - (1.0 - sigma_min) * x0
    inputs = np.concatenate([xt, t], axis=1)
    return inputs, target, lam


def cfm_loss(model: FlowModel, batch: np.ndarray, rng: np.random.Generator,
             ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Bootstrapped, feature-weighted conditional flow matching loss.

    ``batch`` holds normalized rows.  Returns the loss and its analytic
    gradients with respect to the vector-field parameters.
    """
    batch = np.asarray(batch, dtype=np.float64)
    d = model.params.out_dim
    if batch.ndim != 2 or batch.shape[0] < 1 or batch.shape[1] != d:
        raise DomainError(f"batch must be (n, {d})")
    if not np.all(np.isfinite(batch)):
        raise NumericError("NaN/inf in training batch")
    cfg = model.config
    inputs, target, lam = _cfm_batch(batch, model.weights, cfg.sigma_min,
                                     cfg.bootstrap_count, rng)
    return nets.loss_and_grads(model.params, inputs, target, lam)


def train_vector_field(data: np.ndarray, lam: np.ndarray, config: FMConfig,
                       seed=0) -> FlowModel:
    """Mini-batch Adam on the bootstrapped CFM loss over raw (n, d) samples."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise DomainError("training data must be a non-empty (n, d) matrix")
    if not np.all(np.isfinite(data)):
        raise NumericError("NaN/inf in training data")
    if np.shape(lam) != (data.shape[1],):
        raise DomainError("feature weights must match the data dimension")
    model = init_flow_model(config, lam, seed=seed)
    model.normalizer = Normalizer.fit(data)
    normalized = model.normalizer.normalize(data)

    rng = np.random.default_rng(seed)

    def make_batch(rows):
        return _cfm_batch(normalized[rows], model.weights, config.sigma_min,
                          config.bootstrap_count, rng)

    model.params, model.loss_curve = nets.fit(
        model.params, nets.adam_init(model.params, config.learning_rate),
        normalized.shape[0], config.epochs, config.batch_size, rng, make_batch)
    return model


def sample_vector_field(model: FlowModel, n: int, rng: np.random.Generator,
                        ode_steps: int = 100) -> np.ndarray:
    """Integrate dx/dt = v(x, t) with explicit Euler from noise to data space."""
    d = model.params.out_dim
    if n == 0:
        return np.empty((0, d))
    x = rng.standard_normal((n, d))
    dt = 1.0 / ode_steps
    for step in range(ode_steps):
        t_col = np.full((n, 1), step * dt)
        x = x + nets.forward_batch(model.params, np.concatenate([x, t_col], axis=1)) * dt
    return model.normalizer.denormalize(x)


def train_flow_model(memory: ReplayMemory, lam: np.ndarray, config: FMConfig,
                     layout: TransitionLayout, seed=0) -> FlowModel:
    """Train the transition generator on every stored real transition.

    The schedule decides when there are enough transitions to train on
    (``ScheduleConfig.fm_train_start``); this only refuses an empty memory.
    """
    if len(memory) == 0:
        raise StateError(f"flow training needs transitions, {memory.name} is empty")
    return train_vector_field(flatten_memory(memory.items, layout), lam, config,
                              seed=seed)


def generate_raw(model: FlowModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n denormalized samples from K-step Euler integration of the flow."""
    if not model.loss_curve:
        raise StateError("flow model is untrained; call train_flow_model first")
    return sample_vector_field(model, n, rng, ode_steps=model.config.ode_steps)


def generate_transitions(model: FlowModel, n: int, rng: np.random.Generator,
                         layout: TransitionLayout) -> list[Transition]:
    """Sample and decode n synthetic transitions (states clamped to physical ranges)."""
    raw = generate_raw(model, n, rng)
    return [unflatten_transition(row, layout) for row in raw]


FLOW_CHECKPOINT_VERSION = 2


def flow_model_to_dict(model: FlowModel) -> dict:
    return {
        "version": FLOW_CHECKPOINT_VERSION,
        "net": nets.params_to_dict(model.params),
        "normalizer": {"mean": model.normalizer.mean.tolist(),
                       "std": model.normalizer.std.tolist()},
        "weights": model.weights.tolist(),
        "config": asdict(model.config),
        "loss_curve": list(model.loss_curve),
    }


def flow_model_from_dict(payload: dict) -> FlowModel:
    if payload.get("version") != FLOW_CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"unsupported flow checkpoint version {payload.get('version')!r}, "
            f"expected {FLOW_CHECKPOINT_VERSION}")
    return FlowModel(
        params=nets.params_from_dict(payload["net"]),
        normalizer=Normalizer(mean=np.array(payload["normalizer"]["mean"]),
                              std=np.array(payload["normalizer"]["std"])),
        weights=np.array(payload["weights"]),
        config=FMConfig(**payload["config"]),
        loss_curve=list(payload["loss_curve"]),
    )


def save_batch_csv(matrix: np.ndarray, path: str) -> None:
    """Write an (n, 11) batch with the canonical column header."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != TRANSITION_DIM:
        raise DomainError(f"batch must have {TRANSITION_DIM} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSITION_LABELS)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


def load_batch_csv(path: str) -> np.ndarray:
    """Read a batch written by :func:`save_batch_csv` (header checked)."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRANSITION_LABELS:
            raise DomainError(f"unexpected column header in {path}")
        rows = [[float(v) for v in row] for row in reader]
    if not rows:
        return np.empty((0, TRANSITION_DIM))
    return np.array(rows, dtype=np.float64)
