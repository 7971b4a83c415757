"""DQN agent: epsilon-greedy action selection and the two replay memories.

The real memory M and the synthetic memory M' are FIFO ring buffers of codec
rows (``flow.TRANSITION_LABELS``), each with an insertion counter phi that the
planning schedule gates on.  The Q-step reads sampled rows directly; its
targets come from a periodically synced target network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nets
from .errors import ConfigurationError, InsufficientDataError, NumericError
from .flow import TRANSITION_DIM
from .nets import MlpParams
from .simenv import EnvConfig, ProcessorState, normalize_state, state_scales


class ReplayMemory:
    """Bounded FIFO ring buffer of transition rows with a monotone insertion
    counter phi.  Storage grows with the rows held, up to ``capacity``."""

    def __init__(self, capacity: int, name: str = "M"):
        if capacity < 1:
            raise ConfigurationError("memory capacity must be >= 1")
        self.capacity = int(capacity)
        self.name = name
        self.phi = 0
        self._buf = np.empty((0, TRANSITION_DIM))
        self._head = 0          # next slot to write
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, rows: np.ndarray) -> None:
        """Append one row or an (n, 11) block.  Beyond capacity the oldest
        rows go; phi counts every row pushed."""
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, TRANSITION_DIM)
        self.phi += len(rows)
        rows, cap = rows[max(len(rows) - self.capacity, 0):], self.capacity
        size = min(self._size + len(rows), cap)
        if size > len(self._buf):       # still filling: the rows sit at [:_size], in order
            grown = min(max(size, 2 * len(self._buf)), cap)
            self._buf = np.resize(self._buf, (grown, TRANSITION_DIM))
        first = min(len(rows), cap - self._head)
        self._buf[self._head:self._head + first] = rows[:first]
        self._buf[:len(rows) - first] = rows[first:]
        self._head = (self._head + len(rows)) % cap
        self._size = size

    def rows(self) -> np.ndarray:
        """A copy of the stored rows, oldest first."""
        return np.roll(self._buf[:self._size], self._size - self._head, axis=0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw of n rows without replacement within one call, by
        position in oldest-first order; n == 0 draws nothing."""
        if n > self._size:
            raise InsufficientDataError(
                f"asked for {n} transitions, {self.name} holds {self._size}")
        if n == 0:
            return np.empty((0, TRANSITION_DIM))
        idx = rng.choice(self._size, size=n, replace=False)
        return self._buf[(idx + self._head - self._size) % self.capacity]


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


def train_q_step(trainer: nets.Trainer, target_net: MlpParams, batch: np.ndarray,
                 agent_config: AgentConfig, env_config: EnvConfig) -> float:
    """One Adam step of ``trainer`` (the online Q-net) on the squared Bellman
    error of the taken actions in a batch of transition rows; returns the loss.

    Target y = r for terminal (done > 0.5) rows, else r + gamma * max_a' Q(s', a'; W-).
    Gradients flow only through the taken action's output (one-hot loss weights),
    so the other target entries are left at 0.  States are normalized exactly as
    :func:`normalize_state` does, one batch at a time.  A non-finite online net
    gives a non-finite loss, which :meth:`nets.Trainer.step` rejects before updating.
    """
    n = len(batch)
    if n == 0:
        raise InsufficientDataError("empty training batch")
    states = batch[:, [0, 1, 2, 3, 5, 6, 7, 8]].reshape(n, 2, 4).transpose(1, 0, 2)
    x, x_next = np.divide(states, state_scales(env_config), out=np.empty((2, n, 4)))
    q_next = nets.forward_batch(target_net, x_next)
    not_done = batch[:, 10] <= 0.5
    y_taken = batch[:, 9] + agent_config.discount * not_done * q_next.max(axis=1)
    if not np.all(np.isfinite(y_taken)):
        raise NumericError("NaN/inf in Q targets")

    k = env_config.num_actions
    rows, actions = np.arange(n), np.rint(batch[:, 4] * (k - 1)).astype(int)
    targets = np.zeros((n, k))    # untaken dims carry zero weight
    targets[rows, actions] = y_taken
    weights = np.zeros((n, k))
    weights[rows, actions] = 1.0
    return trainer.step(x, targets, weights)
