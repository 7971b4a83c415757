"""DQN agent: epsilon-greedy action selection and the two replay memories.

The real memory M and the synthetic memory M' are FIFO ring buffers of codec
rows (``flow.TRANSITION_LABELS``), each with an insertion counter phi that the
planning schedule gates on.  The Q-network is a tanh MLP; the Q-values of one
state are a one-row :func:`nets.forward_batch`.  The Q-step is one step of the
run's :class:`nets.Trainer`, which owns the online net and its Adam state; it
reads sampled rows directly, and its targets come from a target network, a
periodic :meth:`nets.MlpParams.copy` of the online net.

The greedy forward and the Q-step write into the arrays of a :class:`QScratch`,
which a run builds once for its Q-batch size and keeps to its end.  The arrays
live as long as the scratch object, and what they hold lives until the next
call that writes them: the vector :func:`q_values` returns lives until its
next call on the same scratch object, and a Q-step's gathered states,
normalized states, target-net layer outputs, targets and loss weights until
the next Q-step.  Copy a result to keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nets
from .errors import (ConfigurationError, DomainError, InsufficientDataError, NumericError,
                     check_domains, domain)
from .flow import ACTION_COL, DONE_COL, NEXT_STATE_COLS, REWARD_COL, STATE_COLS, TRANSITION_DIM
from .nets import MlpParams
from .simenv import EnvConfig, ProcessorState, state_scales


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


class QScratch:
    """The arrays one run's greedy forwards and Q-steps write, for a Q-net of
    ``layer_sizes`` on ``env_config``'s states and actions and Q-steps of
    ``batch_size`` rows: the state scales, the greedy forward's normalized
    (1, 4) state and layer outputs, and the Q-step's gathered s and s'
    columns, both states normalized, the target net's layer outputs,
    max_a' Q(s', a'), not-done, y, the flat ``row * k + action`` indices of
    the taken actions, and the (batch_size, k) targets and loss weights."""

    def __init__(self, env_config: EnvConfig, layer_sizes: Sequence[int], batch_size: int):
        n, k = batch_size, env_config.num_actions
        self.scales = state_scales(env_config)
        self.num_actions = k
        self.batch_size = n
        self.state = np.empty((1, 4))
        self.greedy = [np.empty((1, s)) for s in layer_sizes[1:]]
        self.states = np.empty((n, 8))
        self.x = np.empty((2, n, 4))
        self.target_acts = [np.empty((n, s)) for s in layer_sizes[1:]]
        self.q_max = np.empty(n)
        self.not_done = np.empty(n, dtype=bool)
        self.y = np.empty(n)
        self.level = np.empty(n)
        self.taken = np.empty(n, dtype=np.intp)
        self.row_start = np.arange(n) * k
        self.targets = np.empty((n, k))
        self.weights = np.empty((n, k))


def q_values(qnet: MlpParams, state: ProcessorState, scratch: QScratch) -> np.ndarray:
    """Q(state, .) of ``qnet``, the state normalized by the run's scales.  The
    vector is ``scratch``'s and lives until the next call on it."""
    x = scratch.state
    x[0] = state.fps, state.freq, state.power, state.temp
    np.divide(x, scratch.scales, out=x)
    return nets.forward_batch(qnet, x, out=scratch.greedy)[0]


def select_action(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy over the Q-vector q = Q(s, .): random with prob epsilon,
    else argmax q (ties -> lowest index)."""
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(len(q)))
    return int(q.argmax())


def decay_epsilon(epsilon: float, config: AgentConfig) -> float:
    return max(config.epsilon_floor, epsilon * config.epsilon_decay)


_STATE_COLUMNS = np.r_[STATE_COLS, NEXT_STATE_COLS]


def train_q_step(trainer: nets.Trainer, target_net: MlpParams, batch: np.ndarray,
                 agent_config: AgentConfig, scratch: QScratch) -> float:
    """One Adam step of ``trainer`` (the online Q-net) on the squared Bellman
    error of the taken actions in a batch of transition rows; returns the loss.

    Target y = r for terminal (done > 0.5) rows, else r + gamma * max_a' Q(s', a'; W-).
    Gradients flow only through the taken action's output (one-hot loss weights),
    so the other target entries are left at 0.  Both states are divided by
    ``scratch.scales``; the action column holds codec levels a / (k - 1), as
    both memories store them.  Every intermediate array is ``scratch``'s, and
    a batch of another size than its ``batch_size`` raises before any write,
    NaN/inf targets before any update, and a non-finite online net gives a
    non-finite loss, which :meth:`nets.Trainer.step` rejects before updating.
    """
    n = len(batch)
    if n != scratch.batch_size:
        raise DomainError(
            f"Q-step batch has {n} rows, its scratch arrays hold {scratch.batch_size}")
    np.take(batch, _STATE_COLUMNS, axis=1, out=scratch.states)
    x, x_next = np.divide(scratch.states.reshape(n, 2, 4).transpose(1, 0, 2), scratch.scales,
                          out=scratch.x)
    q_next = nets.forward_batch(target_net, x_next, out=scratch.target_acts)
    np.maximum.reduce(q_next, axis=1, out=scratch.q_max)
    np.less_equal(batch[:, DONE_COL], 0.5, out=scratch.not_done)
    y = np.multiply(scratch.not_done, agent_config.discount, out=scratch.y)
    y *= scratch.q_max
    np.add(batch[:, REWARD_COL], y, out=y)
    if not np.isfinite(y).all():
        raise NumericError("NaN/inf in Q targets")

    np.multiply(batch[:, ACTION_COL], scratch.num_actions - 1, out=scratch.level)
    np.rint(scratch.level, out=scratch.level)
    np.add(scratch.row_start, scratch.level, out=scratch.taken, casting="unsafe")
    scratch.targets.fill(0.0)           # untaken dims carry zero weight
    scratch.targets.put(scratch.taken, y)
    scratch.weights.fill(0.0)
    scratch.weights.put(scratch.taken, 1.0)
    return trainer.step(x, scratch.targets, scratch.weights)
