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
from .nets import AdamState, MlpParams
from .simenv import EnvConfig, ProcessorState, normalize_state


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


def select_action(qnet: MlpParams, state: ProcessorState, epsilon: float,
                  env_config: EnvConfig, rng: np.random.Generator) -> int:
    """Epsilon-greedy: random with prob epsilon, else argmax Q (ties -> lowest index)."""
    if not (0.0 <= epsilon <= 1.0):
        raise ConfigurationError("epsilon must lie in [0, 1]")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(env_config.num_actions))
    return int(np.argmax(q_values(qnet, state, env_config)))


def decay_epsilon(epsilon: float, config: AgentConfig) -> float:
    return max(config.epsilon_floor, epsilon * config.epsilon_decay)


def sync_target(qnet: MlpParams) -> MlpParams:
    """Deep copy of the online network's parameters."""
    return qnet.copy()


def train_q_step(qnet: MlpParams, target_net: MlpParams, batch: list[Transition],
                 agent_config: AgentConfig, env_config: EnvConfig,
                 adam: AdamState) -> tuple[MlpParams, AdamState, float]:
    """One Adam step on the squared Bellman error of the taken actions.

    Target y = r for terminal transitions, else r + gamma * max_a' Q(s', a'; W-).
    Gradients flow only through the taken action's output (one-hot loss weights).
    """
    if not batch:
        raise InsufficientDataError("empty training batch")
    n = len(batch)
    k = env_config.num_actions
    x = np.stack([normalize_state(t.s, env_config) for t in batch])
    x_next = np.stack([normalize_state(t.s_next, env_config) for t in batch])
    q_next = nets.forward_batch(target_net, x_next)
    rewards = np.array([t.r for t in batch])
    not_done = np.array([0.0 if t.done else 1.0 for t in batch])
    y_taken = rewards + agent_config.discount * not_done * q_next.max(axis=1)
    if not np.all(np.isfinite(y_taken)):
        raise NumericError("NaN/inf in Q targets")

    actions = np.array([t.a for t in batch], dtype=int)
    targets = nets.forward_batch(qnet, x)          # untouched dims carry zero weight
    targets[np.arange(n), actions] = y_taken
    weights = np.zeros((n, k))
    weights[np.arange(n), actions] = 1.0
    return nets.train_step(qnet, adam, x, targets, weights)
