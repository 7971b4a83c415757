"""Replay memory ring-buffer FIFO semantics, epsilon-greedy selection, and the Q update."""

import numpy as np
import pytest

from dvfsflow import agent as ag
from dvfsflow import nets
from dvfsflow.agent import AgentConfig, ReplayMemory
from dvfsflow.errors import ConfigurationError, InsufficientDataError
from dvfsflow.flow import TransitionLayout, encode_transition
from dvfsflow.simenv import EnvConfig, ProcessorState, state_scales

# chi-squared upper 0.1% quantile at 11 degrees of freedom
CHI2_CRIT_DF11 = 31.264

ENV = EnvConfig()
SCALES = state_scales(ENV)
LAYOUT = TransitionLayout(num_actions=ENV.num_actions, ambient_temp=ENV.ambient_temp)


def _state(x=50.0):
    return ProcessorState(fps=x, freq=0.5, power=5.0, temp=40.0)


def _row(i, done=False, r=1.0, layout=LAYOUT):
    """Transition i: fps i -> i + 1 under action i mod k, as a codec row."""
    return encode_transition(_state(float(i)), i % layout.num_actions, r,
                             _state(float(i + 1)), done, layout)


def test_push_fifo_and_counter():
    mem = ReplayMemory(capacity=2)
    assert mem.phi == 0 and len(mem) == 0
    for i in range(3):
        mem.push(_row(i))
    assert mem.phi == 3
    assert len(mem) == 2
    assert mem.rows()[:, 0].tolist() == [1.0, 2.0]   # oldest evicted first


def test_push_block_counts_every_row_and_keeps_the_newest():
    mem = ReplayMemory(capacity=3)
    mem.push(np.stack([_row(i) for i in range(2)]))
    mem.push(np.stack([_row(i) for i in range(2, 7)]))   # longer than the capacity
    assert mem.phi == 7 and len(mem) == 3
    assert mem.rows()[:, 0].tolist() == [4.0, 5.0, 6.0]
    mem.push(np.empty((0, 11)))
    assert mem.phi == 7 and mem.rows()[:, 0].tolist() == [4.0, 5.0, 6.0]


def test_push_then_sample_single_element():
    mem = ReplayMemory(capacity=4)
    row = _row(9)
    mem.push(row)
    got = mem.sample(1, np.random.default_rng(0))
    assert got.shape == (1, 11) and got[0].tobytes() == row.tobytes()


def test_sample_full_size_is_permutation():
    mem = ReplayMemory(capacity=8)
    for i in range(6):
        mem.push(_row(i))
    out = mem.sample(6, np.random.default_rng(1))
    assert sorted(out[:, 0]) == [float(i) for i in range(6)]


def test_sample_zero_and_insufficient():
    mem = ReplayMemory(capacity=4)
    mem.push(_row(0))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert mem.sample(0, rng).shape == (0, 11)
    assert rng.bit_generator.state == state          # n == 0 draws nothing
    with pytest.raises(InsufficientDataError):
        mem.sample(2, rng)


def test_sample_uniformity_counting_oracle():
    mem = ReplayMemory(capacity=4)
    for i in range(6):                                # wraps: holds fps 2..5
        mem.push(_row(i))
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        counts[int(mem.sample(1, rng)[0, 0]) - 2] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.02)


def test_memory_storage_follows_the_rows_held_not_the_capacity():
    # a capacity that no array could be allocated for still runs: the ring
    # grows with its rows, so "keep everything" configs work
    mem = ReplayMemory(capacity=10**12)
    for i in range(5):
        mem.push(_row(i))
    mem.push(np.stack([_row(i) for i in range(5, 40)]))
    assert len(mem) == 40 and mem.phi == 40
    assert mem.rows()[:, 0].tolist() == [float(i) for i in range(40)]


def test_memory_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        ReplayMemory(capacity=0)


def test_select_action_uniform_when_epsilon_one():
    qnet = ag.init_qnet(ENV, AgentConfig(), seed=0)
    rng = np.random.default_rng(5)
    n = 10_000
    counts = np.zeros(ENV.num_actions)
    for _ in range(n):
        counts[ag.select_action(ag.q_values(qnet, _state(), SCALES), 1.0, rng)] += 1
    expected = n / ENV.num_actions
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < CHI2_CRIT_DF11


def test_select_action_greedy_argmax_and_tiebreak():
    qnet = nets.init_mlp([4, ENV.num_actions], seed=0)
    qnet.weights[0][:] = 0.0
    qnet.biases[0][:] = 0.0
    qnet.biases[0][1] = 3.0
    qnet.biases[0][2] = 1.0
    rng = np.random.default_rng(0)
    assert ag.select_action(ag.q_values(qnet, _state(), SCALES), 0.0, rng) == 1
    qnet.biases[0][:] = 0.0    # all equal -> lowest index
    assert ag.select_action(ag.q_values(qnet, _state(), SCALES), 0.0, rng) == 0


def test_decay_epsilon():
    cfg = AgentConfig()
    assert ag.decay_epsilon(1.0, cfg) == pytest.approx(0.99)
    assert ag.decay_epsilon(cfg.epsilon_floor, cfg) == cfg.epsilon_floor
    eps = 1.0
    for _ in range(500):
        eps = ag.decay_epsilon(eps, cfg)
    assert eps == cfg.epsilon_floor == 0.05
    assert max(cfg.epsilon_floor, 0.99 ** 500) == cfg.epsilon_floor


def test_sync_target_copy_semantics():
    # the run loop syncs the target net with MlpParams.copy: a deep copy
    qnet = ag.init_qnet(ENV, AgentConfig(), seed=1)
    target = qnet.copy()
    assert not np.shares_memory(target.flat, qnet.flat)
    s = _state()
    assert np.array_equal(ag.q_values(qnet, s, SCALES), ag.q_values(target, s, SCALES))
    qnet.weights[0][0, 0] += 1.0
    assert not np.array_equal(ag.q_values(qnet, s, SCALES), ag.q_values(target, s, SCALES))


def test_q_targets_terminal_and_zero_discount():
    cfg = AgentConfig(discount=0.99)
    qnet = ag.init_qnet(ENV, cfg, seed=2)
    target = qnet.copy()
    trainer = nets.Trainer(qnet, 0.0)   # lr 0: inspect the loss only
    done_batch = _row(3, done=True, r=1.5)[None, :]
    loss = ag.train_q_step(trainer, target, done_batch, cfg, SCALES)
    q_sa = ag.q_values(qnet, _state(3.0), SCALES)[3]
    assert loss == pytest.approx((q_sa - 1.5) ** 2)

    # gamma = 0 makes y = r even for non-terminal transitions
    zero = AgentConfig(discount=0.0)
    live_batch = _row(3, done=False, r=1.5)[None, :]
    loss0 = ag.train_q_step(trainer, target, live_batch, zero, SCALES)
    assert loss0 == pytest.approx((q_sa - 1.5) ** 2)


def test_single_transition_regression_to_fixed_target():
    # train to convergence on one transition: Q(s, a) -> r + gamma * max Q(s', .)
    cfg = AgentConfig(discount=0.9, learning_rate=0.01, hidden_sizes=[16, 16])
    qnet = ag.init_qnet(ENV, cfg, seed=3)
    target = qnet.copy()
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    batch = _row(5, r=2.0)[None, :]
    y = 2.0 + cfg.discount * float(np.max(ag.q_values(target, _state(6.0), SCALES)))
    for _ in range(800):
        ag.train_q_step(trainer, target, batch, cfg, SCALES)
    assert ag.q_values(trainer.params, _state(5.0), SCALES)[5] == pytest.approx(y, abs=1e-3)


def test_dqn_converges_to_value_iteration_on_two_state_mdp():
    """Desk-scale convergence check against an independent value-iteration oracle.

    MDP: states A, B encoded as distinct ProcessorStates; deterministic
    transitions A-(a0)->A r=1, A-(a1)->B r=0, B-(a0)->A r=0, B-(a1)->B r=2.
    """
    k2 = EnvConfig(num_actions=2)
    s_a = ProcessorState(fps=20.0, freq=0.3, power=3.0, temp=30.0)
    s_b = ProcessorState(fps=90.0, freq=0.9, power=12.0, temp=45.0)
    table = {  # (state, action) -> (reward, next_state)
        (0, 0): (1.0, 0), (0, 1): (0.0, 1),
        (1, 0): (0.0, 0), (1, 1): (2.0, 1),
    }
    states = [s_a, s_b]
    gamma = 0.9

    # oracle: value iteration on the tabular MDP
    q_star = np.zeros((2, 2))
    for _ in range(2_000):
        v = q_star.max(axis=1)
        q_new = np.array([[table[(s, a)][0] + gamma * v[table[(s, a)][1]]
                           for a in range(2)] for s in range(2)])
        q_star = q_new

    layout = TransitionLayout(num_actions=2, ambient_temp=k2.ambient_temp)
    transitions = np.stack([encode_transition(states[s], a, r, states[nx], False, layout)
                            for (s, a), (r, nx) in table.items()])
    cfg = AgentConfig(discount=gamma, learning_rate=0.02, hidden_sizes=[32, 32],
                      target_sync_period=25)
    qnet = ag.init_qnet(k2, cfg, seed=4)
    target = qnet.copy()
    trainer = nets.Trainer(qnet, cfg.learning_rate)
    scales = state_scales(k2)
    for step in range(1, 5_001):
        ag.train_q_step(trainer, target, transitions, cfg, scales)
        if step % cfg.target_sync_period == 0:
            target = trainer.params.copy()
    learned = np.array([ag.q_values(trainer.params, s, scales) for s in states])
    assert np.max(np.abs(learned - q_star)) < 0.05
