"""DQN agent: epsilon-greedy action selection and the two replay memories.

The real memory M and the synthetic memory M' are plain bounded FIFO buffers;
each keeps an insertion counter phi (total ever pushed) that the planning
schedule gates on.  Q-targets use a periodically synced target network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import nets
from .errors import ConfigurationError, DomainError, InsufficientDataError, NumericError
from .nets import MlpParams
from .simenv import EnvConfig, ProcessorState, normalize_state, state_scales


@dataclass(frozen=True)
class Transition:
    s: ProcessorState
    a: int
    r: float
    s_next: ProcessorState
    done: bool
    source: str = "real"    # provenance tag: "real" or "synth"


class ReplayMemory:
    """Bounded FIFO transition store with a monotone insertion counter.

    ``allowed_sources`` optionally pins the provenance of stored transitions
    (the real memory only accepts "real", the synthetic one only generated data).
    """

    def __init__(self, capacity: int, name: str = "M",
                 allowed_sources: Optional[tuple[str, ...]] = None):
        if capacity < 1:
            raise ConfigurationError("memory capacity must be >= 1")
        self.capacity = int(capacity)
        self.name = name
        self.allowed_sources = allowed_sources
        self.items: list[Transition] = []
        self.phi = 0

    def __len__(self) -> int:
        return len(self.items)

    def push(self, transition: Transition) -> None:
        if self.allowed_sources is not None and transition.source not in self.allowed_sources:
            raise DomainError(
                f"{self.name} only accepts sources {self.allowed_sources}, "
                f"got {transition.source!r}")
        self.items.append(transition)
        if len(self.items) > self.capacity:
            del self.items[0]
        self.phi += 1

    def sample_batch(self, n: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform draw without replacement within one call."""
        if n > len(self.items):
            raise InsufficientDataError(
                f"asked for {n} transitions, {self.name} holds {len(self.items)}")
        if n == 0:
            return []
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]


@dataclass
class AgentConfig:
    discount: float = 0.99
    epsilon_init: float = 1.0
    epsilon_decay: float = 0.99
    epsilon_floor: float = 0.05
    learning_rate: float = 0.05
    target_sync_period: int = 20    # counted in agent-training steps
    hidden_sizes: list[int] = field(default_factory=lambda: [6, 6])

    def validate(self) -> None:
        if not (0.0 < self.discount < 1.0):
            raise ConfigurationError("discount must lie in (0, 1)")
        if not (0.0 < self.epsilon_decay <= 1.0):
            raise ConfigurationError("epsilon_decay must lie in (0, 1]")
        if not (0.0 <= self.epsilon_floor <= 1.0):
            raise ConfigurationError("epsilon_floor must lie in [0, 1]")
        if not (0.0 <= self.epsilon_init <= 1.0):
            raise ConfigurationError("epsilon_init must lie in [0, 1]")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be > 0")
        if self.target_sync_period < 1:
            raise ConfigurationError("target_sync_period must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError("hidden_sizes must be non-empty positive ints")


def init_qnet(env_config: EnvConfig, agent_config: AgentConfig, seed: int) -> MlpParams:
    sizes = [4] + list(agent_config.hidden_sizes) + [env_config.num_actions]
    return nets.init_mlp(sizes, activation="tanh", seed=seed)


def q_values(qnet: MlpParams, state: ProcessorState, env_config: EnvConfig) -> np.ndarray:
    return nets.forward(qnet, normalize_state(state, env_config))


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the Q-vector q = Q(s, .): random with prob epsilon,
    else argmax q (ties -> lowest index)."""
    if not (0.0 <= epsilon <= 1.0):
        raise ConfigurationError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(len(q)))
    return int(np.argmax(q))


def decay_epsilon(epsilon: float, config: AgentConfig) -> float:
    return max(config.epsilon_floor, epsilon * config.epsilon_decay)


def sync_target(qnet: MlpParams) -> MlpParams:
    """Deep copy of the online network's parameters."""
    return qnet.copy()


def train_q_step(trainer: nets.Trainer, target_net: MlpParams, batch: list[Transition],
                 agent_config: AgentConfig, env_config: EnvConfig) -> float:
    """One Adam step of ``trainer`` (the online Q-net) on the squared Bellman
    error of the taken actions; returns the loss.

    Target y = r for terminal transitions, else r + gamma * max_a' Q(s', a'; W-).
    Gradients flow only through the taken action's output (one-hot loss weights),
    so the other target entries are left at 0.  States are normalized exactly as
    :func:`normalize_state` does, one batch at a time.  A non-finite online net
    gives a non-finite loss, which :meth:`nets.Trainer.step` rejects before updating.
    """
    if not batch:
        raise InsufficientDataError("empty training batch")
    n = len(batch)
    # One row per transition: s (4), s' (4), r, not-done, a.
    data = np.array([(t.s.fps, t.s.freq, t.s.power, t.s.temp,
                      t.s_next.fps, t.s_next.freq, t.s_next.power, t.s_next.temp,
                      t.r, 0.0 if t.done else 1.0, t.a) for t in batch], dtype=np.float64)
    x, x_next = np.divide(data[:, :8].reshape(n, 2, 4).transpose(1, 0, 2),
                          state_scales(env_config), out=np.empty((2, n, 4)))
    q_next = nets.forward_batch(target_net, x_next)
    rewards, not_done = data[:, 8], data[:, 9]
    y_taken = rewards + agent_config.discount * not_done * q_next.max(axis=1)
    if not np.all(np.isfinite(y_taken)):
        raise NumericError("NaN/inf in Q targets")

    rows, actions = np.arange(n), data[:, 10].astype(int)
    targets = np.zeros((n, env_config.num_actions))    # untaken dims carry zero weight
    targets[rows, actions] = y_taken
    weights = np.zeros((n, env_config.num_actions))
    weights[rows, actions] = 1.0
    return trainer.step(x, targets, weights)
