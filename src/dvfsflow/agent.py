"""DQN agent: epsilon-greedy action selection and the two replay memories.

The real memory M and the synthetic memory M' are FIFO ring buffers of codec
rows (``flow.TRANSITION_LABELS``), each with an insertion counter phi that the
planning schedule gates on.  The Q-network is a tanh MLP; the Q-values of one
state are a one-row :func:`nets.forward_batch`.  The Q-step is one step of the
run's :class:`nets.Trainer`, which owns the online net and its Adam state; it
reads sampled rows directly, and its targets come from a target network, a
periodic :meth:`nets.MlpParams.copy` of the online net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .errors import (ConfigurationError, InsufficientDataError, NumericError, check_domains,
                     domain)
from .flow import ACTION_COL, DONE_COL, NEXT_STATE_COLS, REWARD_COL, STATE_COLS, TRANSITION_DIM
from .nets import MlpParams
from .simenv import EnvConfig, ProcessorState


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
        cap = self.capacity
        if len(rows) > cap:
            rows = rows[-cap:]
        size = min(self._size + len(rows), cap)
        if size > len(self._buf):       # still filling: the rows sit at [:_size], in order
            grown = min(max(size, 2 * len(self._buf)), cap)
            self._buf = np.resize(self._buf, (grown, TRANSITION_DIM))
        end = self._head + len(rows)
        if end <= cap:
            self._buf[self._head:end] = rows
        else:                           # the write wraps: the ring is cap rows long
            self._buf[self._head:] = rows[:cap - self._head]
            self._buf[:end - cap] = rows[cap - self._head:]
        self._head = end % cap
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
        idx += self._head - self._size
        idx %= self.capacity
        return self._buf.take(idx, axis=0)


@dataclass
class AgentConfig:
    discount: float = domain("(0, 1)", default=0.99)
    epsilon_init: float = domain("[0, 1]", default=1.0)
    epsilon_decay: float = domain("(0, 1]", default=0.99)
    epsilon_floor: float = domain("[0, 1]", default=0.05)
    learning_rate: float = domain("> 0", default=0.05)
    target_sync_period: int = domain(">= 1", default=20)   # counted in agent-training steps
    hidden_sizes: list[int] = domain(">= 1", default_factory=lambda: [6, 6])

    def validate(self) -> None:
        check_domains("agent", self)


def init_qnet(env_config: EnvConfig, agent_config: AgentConfig, seed: int) -> MlpParams:
    sizes = [4] + list(agent_config.hidden_sizes) + [env_config.num_actions]
    return nets.init_mlp(sizes, seed=seed)


def q_values(qnet: MlpParams, state: ProcessorState, scales: np.ndarray) -> np.ndarray:
    """Q(state, .) of ``qnet``, the state divided by the run's
    :func:`simenv.state_scales`."""
    return nets.forward_batch(qnet, np.divide(state, scales)[None])[0]


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the Q-vector q = Q(s, .): random with prob epsilon,
    else argmax q (ties -> lowest index)."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(len(q)))
    return int(q.argmax())


def decay_epsilon(epsilon: float, config: AgentConfig) -> float:
    return max(config.epsilon_floor, epsilon * config.epsilon_decay)


def train_q_step(trainer: nets.Trainer, target_net: MlpParams, batch: np.ndarray,
                 agent_config: AgentConfig, scales: np.ndarray) -> float:
    """One Adam step of ``trainer`` (the online Q-net) on the squared Bellman
    error of the taken actions in a batch of transition rows; returns the loss.

    Target y = r for terminal (done > 0.5) rows, else r + gamma * max_a' Q(s', a'; W-).
    Gradients flow only through the taken action's output (one-hot loss weights),
    so the other target entries are left at 0.  Both states are divided by
    ``scales``; the action column holds codec levels a / (k - 1), as both
    memories store them.  NaN/inf targets raise before any update, and a
    non-finite online net gives a non-finite loss, which
    :meth:`nets.Trainer.step` rejects before updating.
    """
    n, k = len(batch), trainer.params.out_dim
    q_next = nets.forward_batch(target_net, batch[:, NEXT_STATE_COLS] / scales)
    not_done = batch[:, DONE_COL] <= 0.5
    y = batch[:, REWARD_COL] + not_done * agent_config.discount * q_next.max(axis=1)
    if not np.isfinite(y).all():
        raise NumericError("NaN/inf in Q targets")

    taken = (np.arange(n), np.rint(batch[:, ACTION_COL] * (k - 1)).astype(np.intp))
    targets = np.zeros((n, k))          # untaken dims carry zero weight
    targets[taken] = y
    weights = np.zeros((n, k))
    weights[taken] = 1.0
    return trainer.step(batch[:, STATE_COLS] / scales, targets, weights)
