"""Flow matching: encoding, bootstrapped loss, training, sampling."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import grad_check
from dvfsflow import nets
from dvfsflow.errors import DomainError, NumericError, StateError
from dvfsflow.flow import (ACTION_COL, DONE_COL, INPUT_COLS, NEXT_STATE_COLS, OUTCOME_COLS,
                           REWARD_COL, STATE_COLS, TRANSITION_DIM, TRANSITION_LABELS,
                           CfmBatches, FlowModel, FMConfig, Normalizer, Transition,
                           TransitionLayout, canonical_rows, encode_transition, generate_raw,
                           init_flow_model, load_batch_csv, save_batch_csv, train_flow_model,
                           unflatten_transition)
from dvfsflow.simenv import DvfsEnv, EnvConfig, ProcessorState

LAYOUT = TransitionLayout(num_actions=12, ambient_temp=25.0)


def _transition(a=3, done=False):
    s = ProcessorState(fps=50.0, freq=0.42, power=5.5, temp=38.0)
    s2 = ProcessorState(fps=61.0, freq=0.56, power=7.1, temp=41.5)
    return Transition(s, a, 1.23, s2, done)


def _encode(t, layout=LAYOUT):
    return encode_transition(t.s, t.a, t.r, t.s_next, t.done, layout)


def _sim_data(n, seed=0):
    """n simulator transitions, flattened."""
    cfg = EnvConfig()
    env = DvfsEnv(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        s = env.state
        a = int(rng.integers(cfg.num_actions))
        nxt, r, done = env.step(a)
        rows.append(encode_transition(s, a, r, nxt, done, LAYOUT))
        if done:
            env.reset(seed=seed + 1000 + i)
    return np.stack(rows)


# ---------------------------------------------------------------- encoding

def test_column_groups_cover_the_row_in_label_order():
    columns = list(range(TRANSITION_DIM))

    def cols(group):
        return columns[group] if isinstance(group, slice) else [group]

    assert (cols(STATE_COLS) + cols(ACTION_COL) + cols(NEXT_STATE_COLS) + cols(REWARD_COL)
            + cols(DONE_COL)) == columns
    assert cols(INPUT_COLS) == cols(STATE_COLS) + cols(ACTION_COL)
    assert cols(OUTCOME_COLS) == cols(NEXT_STATE_COLS) + cols(REWARD_COL) + cols(DONE_COL)
    states = [TRANSITION_LABELS[i] for i in cols(STATE_COLS)]
    assert states == ["fps", "freq", "power", "temp"]       # ProcessorState field order
    assert [TRANSITION_LABELS[i] for i in cols(NEXT_STATE_COLS)] == ["next_" + s for s in states]
    assert [TRANSITION_LABELS[c] for c in (ACTION_COL, REWARD_COL, DONE_COL)] == [
        "action", "reward", "done"]


def test_flatten_round_trip():
    ts = [_transition(a=a, done=done) for a, done in [(0, False), (3, False), (11, True)]]
    rows = np.stack([_encode(t) for t in ts])
    assert [unflatten_transition(row, LAYOUT) for row in rows] == ts
    assert canonical_rows(rows, LAYOUT).tobytes() == rows.tobytes()   # already valid


def test_flatten_encodings():
    v = np.stack([_encode(_transition(a=11, done=False)), _encode(_transition(done=True))])
    assert v.shape == (2, 11) and v.dtype == np.float64
    assert v[0, 4] == 1.0     # top action level encodes to 1.0
    assert v[1, 4] == 3 / 11
    assert v[0, 10] == 0.0    # done=False encodes to 0.0
    assert v[1, 10] == 1.0
    assert canonical_rows(np.empty((0, 11)), LAYOUT).shape == (0, 11)


def test_unflatten_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        unflatten_transition(np.zeros(10), LAYOUT)
    with pytest.raises(DomainError):
        canonical_rows(np.zeros((3, 10)), LAYOUT)
    with pytest.raises(DomainError):
        canonical_rows(np.zeros(11), LAYOUT)


def test_unflatten_rejects_non_finite_naming_columns():
    rows = np.full((3, 11), 0.5)
    rows[1, 4] = np.nan
    rows[2, 8] = -np.inf
    with pytest.raises(NumericError, match="action, next_temp"):
        canonical_rows(rows, LAYOUT)
    with pytest.raises(NumericError, match="action"):
        unflatten_transition(rows[1], LAYOUT)


def test_unflatten_clamps_physical_ranges():
    row = np.array([-5.0, 1.4, -2.0, 10.0, 0.31, -1.0, -0.2, 0.0, 300.0, 0.7, 0.9])
    t = unflatten_transition(row, LAYOUT)
    for s in (t.s, t.s_next):
        assert s.fps >= 0 and s.power > 0 and s.temp >= LAYOUT.ambient_temp
        assert 0.0 <= s.freq <= 1.0
    assert 0 <= t.a < LAYOUT.num_actions
    assert t.done is True


# ---------------------------------------------------------------- bootstrap

def _bootstrap_replicates(m, d, count, rng):
    """The latents of one CFM batch on m rows, as (count, m, d) replicates: on
    all-zero data with sigma_min 0 the targets are exactly the negated latents."""
    lam = np.full(d, 1.0 / d)
    _, target, _ = CfmBatches(np.zeros((m, d)), lam, 0.0, count, rng)(np.arange(m))
    return -target.reshape(count, m, d)


def test_bootstrap_rows_come_from_pool():
    reps = _bootstrap_replicates(7, 3, 4, np.random.default_rng(0))
    assert reps.shape == (4, 7, 3)
    pool = np.random.default_rng(0).standard_normal((7, 3))   # the first draw of a step
    pool_rows = {tuple(r) for r in pool}
    for rep in reps:
        for row in rep:
            assert tuple(row) in pool_rows


def test_bootstrap_deterministic_per_seed():
    a = _bootstrap_replicates(5, 2, 1, np.random.default_rng(9))
    b = _bootstrap_replicates(5, 2, 1, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _bootstrap_replicates(5, 2, 1, np.random.default_rng(10)))


def test_bootstrap_distinct_fraction_oracle():
    # expected distinct fraction of an n-out-of-n resample -> 1 - 1/e; the
    # Gaussian latents of the pool are distinct, so distinct rows are distinct draws
    m = 2000
    reps = _bootstrap_replicates(m, 1, 8, np.random.default_rng(17))
    fractions = [len(np.unique(rep[:, 0])) / m for rep in reps]
    assert abs(np.mean(fractions) - (1 - 1 / np.e)) < 0.02


# ---------------------------------------------------------------- loss

def _cfm_loss(model, batch, rng):
    """The loss and gradients of one training step on all of ``batch``, as training draws it."""
    cfg = model.config
    batches = CfmBatches(batch, model.weights, cfg.sigma_min, cfg.bootstrap_count, rng)
    return nets.loss_and_grads(model.params, *batches(np.arange(len(batch))))


def _single_pair_model(sigma_min, bootstrap_count=1, seed=0):
    cfg = FMConfig(sigma_min=sigma_min, bootstrap_count=bootstrap_count,
                   hidden_sizes=[8], epochs=1)
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    return init_flow_model(cfg, lam, seed=seed)


def test_cfm_loss_zero_for_exact_constant_field():
    # one data point and one latent: the target field is the constant
    # x1 - (1 - sigma_min) x0, which a bias-only net reproduces exactly
    model = _single_pair_model(sigma_min=0.01)
    rng_draw = np.random.default_rng(3)
    x0 = rng_draw.standard_normal((1, TRANSITION_DIM))
    x1 = np.random.default_rng(4).normal(size=(1, TRANSITION_DIM))
    w = (x1 - (1 - 0.01) * x0)[0]
    for layer in model.params.weights:
        layer[:] = 0.0
    model.params.biases[-1][:] = w
    loss, gw, _ = _cfm_loss(model, x1, np.random.default_rng(3))
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert all(np.allclose(g, 0) for g in gw)


def test_cfm_loss_one_hot_weights_ignore_other_dims():
    model = _single_pair_model(sigma_min=0.01)
    lam = np.zeros(TRANSITION_DIM)
    lam[2] = 1.0
    model.weights = lam
    rng_draw = np.random.default_rng(3)
    x0 = rng_draw.standard_normal((1, TRANSITION_DIM))
    x1 = np.random.default_rng(4).normal(size=(1, TRANSITION_DIM))
    w = (x1 - (1 - 0.01) * x0)[0]
    for layer in model.params.weights:
        layer[:] = 0.0
    model.params.biases[-1][:] = w
    model.params.biases[-1][5] += 100.0    # wrong on an unweighted dim
    loss, _, _ = _cfm_loss(model, x1, np.random.default_rng(3))
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_cfm_loss_matches_hand_evaluation():
    # sigma_min=0, B=1, single pair: loss = sum_i lam_i (v_i - (x1 - x0)_i)^2,
    # reproduced by mirroring the documented draw order
    model = _single_pair_model(sigma_min=0.0, seed=5)
    x1 = np.random.default_rng(8).normal(size=(1, TRANSITION_DIM))
    loss, _, _ = _cfm_loss(model, x1, np.random.default_rng(21))

    mirror = np.random.default_rng(21)
    x0 = mirror.standard_normal((1, TRANSITION_DIM))
    idx = mirror.integers(0, 1, size=(1, 1))
    assert idx[0, 0] == 0
    mirror.permutation(1)
    t = mirror.uniform(0.0, 1.0, size=(1, 1))
    xt = (1 - t) * x0 + t * x1
    v = nets.forward_batch(model.params, np.append(xt, t, axis=1))
    by_hand = float(np.sum(model.weights * (v - (x1 - x0))[0] ** 2))
    assert loss == pytest.approx(by_hand, rel=1e-12)


def test_cfm_loss_b1_uniform_reduces_to_plain_cfm():
    # with one replicate and uniform weights the objective is the plain
    # conditional FM loss scaled by the 1/d weight normalization
    model = _single_pair_model(sigma_min=0.0, seed=6)
    rng = np.random.default_rng(10)
    x1 = rng.normal(size=(4, TRANSITION_DIM))
    loss, _, _ = _cfm_loss(model, x1, np.random.default_rng(33))

    mirror = np.random.default_rng(33)
    x0 = mirror.standard_normal((4, TRANSITION_DIM))
    idx = mirror.integers(0, 4, size=(1, 4))[0]
    perm = mirror.permutation(4)
    t = mirror.uniform(0.0, 1.0, size=(4, 1))
    x0b, x1b = x0[idx], x1[perm]
    xt = (1 - t) * x0b + t * x1b
    v = nets.forward_batch(model.params, np.concatenate([xt, t], axis=1))
    plain = float(np.mean(np.sum((v - (x1b - x0b)) ** 2, axis=1)))
    assert loss * TRANSITION_DIM == pytest.approx(plain, rel=1e-12)


def test_cfm_loss_gradient_finite_difference():
    cfg = FMConfig(hidden_sizes=[6], bootstrap_count=2, epochs=1)
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    model = init_flow_model(cfg, lam, seed=2)
    batch = np.random.default_rng(11).normal(size=(5, TRANSITION_DIM))

    # freeze the stochastic draws so the loss is a deterministic function
    inputs, target, w = CfmBatches(batch, model.weights, cfg.sigma_min, cfg.bootstrap_count,
                                   np.random.default_rng(12))(np.arange(5))
    err = grad_check(model.params, inputs, target, w,
                          rng=np.random.default_rng(13))
    assert err < 1e-4


# ---------------------------------------------------------------- training

def test_train_flow_model_deterministic():
    data = _sim_data(40)
    cfg = FMConfig(hidden_sizes=[8, 8], epochs=5, bootstrap_count=2)
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    a = train_flow_model(data, lam, cfg, seed=7)
    b = train_flow_model(data, lam, cfg, seed=7)
    assert a.loss_curve == b.loss_curve
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)


def test_train_flow_model_requires_enough_data():
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    with pytest.raises(StateError):
        train_flow_model(np.empty((0, TRANSITION_DIM)), lam, FMConfig(), seed=0)


def test_training_loss_trends_down_on_simulator_data():
    data = _sim_data(120, seed=5)
    cfg = FMConfig(hidden_sizes=[32, 32], epochs=120, bootstrap_count=4)
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    model = train_flow_model(data, lam, cfg, seed=3)
    curve = np.array(model.loss_curve)
    assert np.all(np.isfinite(curve))
    ma = np.convolve(curve, np.ones(20) / 20, mode="valid")
    tail = ma[30:]   # moving average from epoch ~50 on
    # non-increasing up to a small plateau wiggle from minibatch noise
    assert np.all(np.diff(tail) <= np.abs(tail[:-1]) * 0.02 + 1e-9)
    assert tail[-1] <= tail[0]


# ---------------------------------------------------------------- sampling

@pytest.fixture(scope="module")
def toy_field():
    """2-d vector field trained on N(mu=(3, -1), diag(0.25))."""
    rng = np.random.default_rng(99)
    data = rng.normal(loc=[3.0, -1.0], scale=0.5, size=(500, 2))
    cfg = FMConfig(hidden_sizes=[64, 64], epochs=200, batch_size=64,
                   bootstrap_count=4, learning_rate=2e-3)
    return train_flow_model(data, np.array([0.5, 0.5]), cfg, seed=1)


def test_toy_moments_match_target(toy_field):
    assert toy_field.config.ode_steps == 10
    samples = generate_raw(toy_field, 1000, np.random.default_rng(55))
    mean = samples.mean(axis=0)
    std = samples.std(axis=0)
    assert np.all(np.abs(mean - np.array([3.0, -1.0])) < 0.15)
    assert np.all(np.abs(std - 0.5) < 0.1)


def _with_ode_steps(model, k):
    return replace(model, config=replace(model.config, ode_steps=k))


def test_ode_step_count_stability(toy_field):
    # K=50 vs K=200 barely moves the first moments (in normalized units)
    a, b = (generate_raw(_with_ode_steps(toy_field, k), 1000, np.random.default_rng(1))
            for k in (50, 200))
    shift = np.abs(a.mean(axis=0) - b.mean(axis=0)) / toy_field.normalizer.std
    assert np.all(shift < 0.05)


def _euler_reference(model, n, rng, ode_steps):
    """All n rows through ``ode_steps`` explicit Euler steps, the first-order
    yardstick for the midpoint sampler."""
    x = rng.standard_normal((n, model.params.out_dim))
    dt = 1.0 / ode_steps
    for step in range(ode_steps):
        x = x + nets.forward_batch(model.params, np.column_stack([x, np.full(n, step * dt)])) * dt
    return model.normalizer.denormalize(x)


def test_default_sampler_beats_100_euler_steps(toy_field):
    # mean |error| per column, in units of the column's std, against a
    # 400-step midpoint reference from the same noise
    def error(samples):
        return float(np.mean(np.abs(samples - ref) / toy_field.normalizer.std))

    ref = generate_raw(_with_ode_steps(toy_field, 400), 1000, np.random.default_rng(7))
    midpoint = error(generate_raw(toy_field, 1000, np.random.default_rng(7)))
    euler = error(_euler_reference(toy_field, 1000, np.random.default_rng(7), 100))
    assert midpoint < 0.5 * euler


@pytest.fixture(scope="module")
def linear_field():
    """v(x, t) = -x: a [2, 1] net, identity normalizer, so x(1) = x0 / e."""
    params = nets.MlpParams([2, 1], np.array([-1.0, 0.0, 0.0]))   # weights (x, t), bias
    model = FlowModel(params, Normalizer(np.zeros(1), np.ones(1)), np.ones(1), FMConfig(), [0.0])
    x0 = np.random.default_rng(3).standard_normal((1000, 1))
    return model, x0 * np.exp(-1.0)


def test_midpoint_error_falls_fourfold_as_dt_halves(linear_field):
    model, exact = linear_field
    err = [np.abs(generate_raw(_with_ode_steps(model, k), 1000, np.random.default_rng(3))
                  - exact).max() for k in (5, 10, 20)]
    assert 3.5 <= err[0] / err[1] <= 4.5 and 3.5 <= err[1] / err[2] <= 4.5
    euler = np.abs(_euler_reference(model, 1000, np.random.default_rng(3), 100) - exact).max()
    assert err[1] < euler                       # 10 midpoint steps beat 100 Euler steps


def test_generate_outputs_valid_transitions():
    data = _sim_data(60, seed=8)
    cfg = FMConfig(hidden_sizes=[16, 16], epochs=30, bootstrap_count=2)
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    model = train_flow_model(data, lam, cfg, seed=2)
    out = canonical_rows(generate_raw(model, 200, np.random.default_rng(0)), LAYOUT)
    assert out.shape == (200, 11)
    for s in (out[:, 0:4], out[:, 5:9]):
        assert np.all(s[:, 0] >= 0) and np.all(s[:, 2] > 0)
        assert np.all(s[:, 3] >= LAYOUT.ambient_temp)
        assert np.all((s[:, 1] >= 0.0) & (s[:, 1] <= 1.0))
    levels = out[:, 4] * (LAYOUT.num_actions - 1)
    assert np.array_equal(levels, np.rint(levels))
    assert np.all((levels >= 0) & (levels < LAYOUT.num_actions))
    assert set(out[:, 10].tolist()) <= {0.0, 1.0}
    assert canonical_rows(generate_raw(model, 0, np.random.default_rng(0)),
                          LAYOUT).shape == (0, 11)


def test_generate_requires_trained_model():
    lam = np.full(TRANSITION_DIM, 1.0 / TRANSITION_DIM)
    model = init_flow_model(FMConfig(), lam, seed=0)
    with pytest.raises(StateError):
        generate_raw(model, 5, np.random.default_rng(0))


# ---------------------------------------------------------------- io

def test_batch_csv_round_trip(tmp_path):
    mat = _sim_data(25, seed=1)
    path = str(tmp_path / "batch.csv")
    save_batch_csv(mat, path)
    back = load_batch_csv(path)
    assert np.array_equal(mat, back)
