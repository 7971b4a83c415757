"""Net plumbing: init, forward, weighted loss, Adam, gradient checks."""

import numpy as np
import pytest

from conftest import grad_check
from dvfsflow import nets
from dvfsflow.errors import ConfigurationError, DomainError, NumericError


def test_init_deterministic_per_seed():
    a = nets.init_mlp([4, 6, 6, 12], seed=1)
    b = nets.init_mlp([4, 6, 6, 12], seed=1)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = nets.init_mlp([4, 6, 6, 12], seed=2)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_and_zero_biases():
    p = nets.init_mlp([2, 3, 1], seed=0)
    assert p.weights[0].shape == (3, 2)
    assert p.weights[1].shape == (1, 3)
    for b in p.biases:
        assert np.all(b == 0.0)


def test_init_rejects_bad_layers():
    with pytest.raises(ConfigurationError):
        nets.init_mlp([4], seed=0)
    with pytest.raises(ConfigurationError):
        nets.init_mlp([4, 0, 2], seed=0)


def test_forward_zero_params_gives_zero():
    p = nets.init_mlp([3, 5, 2], seed=0)
    for w in p.weights:
        w[:] = 0.0
    assert np.array_equal(nets.forward_batch(p, np.ones((1, 3))), np.zeros((1, 2)))


def test_forward_identity_linear_net():
    p = nets.init_mlp([4, 4], seed=0)
    p.weights[0] = np.eye(4)
    p.biases[0][:] = 0.0
    x = np.array([[0.3, -1.2, 4.0, 0.0]])
    assert np.allclose(nets.forward_batch(p, x), x)


def test_forward_tanh_output_bounded_by_weight_norms():
    p = nets.init_mlp([3, 8, 2], seed=5)
    bound = np.abs(p.weights[-1]).sum(axis=1) + np.abs(p.biases[-1])
    x = np.random.default_rng(0).normal(size=(20, 3)) * 100
    assert np.all(np.abs(nets.forward_batch(p, x)) <= bound + 1e-12)


def test_forward_dimension_mismatch():
    p = nets.init_mlp([3, 2], seed=0)
    with pytest.raises(DomainError):
        nets.forward_batch(p, np.ones((1, 4)))
    with pytest.raises(DomainError):        # one row is a (1, n) batch, not a vector
        nets.forward_batch(p, np.ones(3))


@pytest.mark.parametrize("activation", ["tanh"])   # the only hidden activation
def test_forward_batch_into_given_layer_arrays(activation):
    p = nets.init_mlp([3, 7, 5, 2], seed=4)
    x = np.random.default_rng(4).normal(size=(600, 3))
    out = [np.empty((600, s)) for s in (7, 5, 2)]
    y = nets.forward_batch(p, x, out=out)
    assert y is out[-1]
    assert y.tobytes() == nets.forward_batch(p, x).tobytes()
    with pytest.raises(DomainError):        # the shape is checked with out= too
        nets.forward_batch(p, x[:, :2], out=out)


def test_loss_zero_when_predictions_match_targets():
    p = nets.init_mlp([2, 4, 3], seed=1)
    x = np.random.default_rng(1).normal(size=(5, 2))
    y = nets.forward_batch(p, x)
    loss, gw, gb = nets.loss_and_grads(p, x, y, np.ones(3))
    assert loss == 0.0
    assert all(np.allclose(g, 0) for g in gw)
    assert all(np.allclose(g, 0) for g in gb)


def test_loss_weighting_masks_dimensions():
    # lambda = (1, 0) and error only in dim 2 -> loss 0
    p = nets.init_mlp([2, 2], seed=0)
    x = np.array([[1.0, 2.0]])
    y = nets.forward_batch(p, x)
    y[0, 1] += 5.0
    loss, _, _ = nets.loss_and_grads(p, x, y, np.array([1.0, 0.0]))
    assert loss == 0.0


def test_uniform_weights_equal_unweighted_mse():
    p = nets.init_mlp([3, 5, 2], seed=2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 2))
    loss, _, _ = nets.loss_and_grads(p, x, y, np.ones(2))
    pred = nets.forward_batch(p, x)
    assert loss == pytest.approx(np.mean(np.sum((pred - y) ** 2, axis=1)))


def test_adam_first_step_moves_by_lr_sign():
    # scalar param: w = 0.5, b = 0, x = 1, y = -0.5 give both gradients 2.0, so
    # the bias-corrected first step is ~ -lr * sign(g)
    p = nets.init_mlp([1, 1], seed=0)
    p.weights[0][:] = 0.5
    trainer = nets.Trainer(p, lr=0.05)
    trainer.step(np.array([[1.0]]), np.array([[-0.5]]), np.ones(1))
    assert trainer.params.weights[0][0, 0] - 0.5 == pytest.approx(-0.05, abs=1e-6)


def test_adam_zero_lr_keeps_params():
    p = nets.init_mlp([2, 3, 1], seed=3)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(4, 2)), rng.normal(size=(4, 1))
    trainer = nets.Trainer(p, lr=0.0)
    trainer.step(x, y, np.ones(1))
    assert trainer.params.flat.tobytes() == p.flat.tobytes()


def test_fit_matches_hand_written_minibatch_loop():
    # one permutation per epoch, then make_batch per slice (which may draw from
    # the same rng), with a short last slice: bitwise equal to the plain loop
    data = np.random.default_rng(5).normal(size=(10, 3))
    n, epochs, batch_size = 10, 2, 4

    def make_batch_for(rng):
        def make_batch(rows):
            x = data[rows, :2] + rng.normal(scale=0.1, size=(rows.size, 2))
            return x, data[rows, 2:], np.ones(1)
        return make_batch

    p0 = nets.init_mlp([2, 5, 1], seed=2)
    rng = np.random.default_rng(8)
    params, curve = nets.fit(p0, 0.01, n, epochs, batch_size, rng, make_batch_for(rng))

    ref = nets.Trainer(p0, 0.01)
    ref_rng = np.random.default_rng(8)
    make_batch = make_batch_for(ref_rng)
    ref_curve = []
    for _ in range(epochs):
        order = ref_rng.permutation(n)
        losses = [ref.step(*make_batch(order[start:start + batch_size]))
                  for start in range(0, n, batch_size)]
        ref_curve.append(float(np.mean(losses)))

    assert len(curve) == epochs
    assert curve == ref_curve
    assert params.flat.tobytes() == ref.params.flat.tobytes()


def test_trainer_step_rejects_nan():
    p = nets.init_mlp([2, 1], seed=0)
    trainer = nets.Trainer(p, lr=0.1)
    x = np.array([[1.0, np.nan]])
    with pytest.raises(NumericError):
        trainer.step(x, np.array([[0.0]]), np.ones(1))
    assert trainer.params.flat.tobytes() == p.flat.tobytes() and trainer.adam.step == 0


def test_grad_check_small_nets():
    rng = np.random.default_rng(7)
    for sizes in ([4, 6, 6, 12], [12, 64, 64, 11], [5, 32, 32, 6], [3, 8, 2]):
        p = nets.init_mlp(sizes, seed=11)
        x = rng.normal(size=(6, sizes[0]))
        y = rng.normal(size=(6, sizes[-1]))
        w = rng.uniform(0.1, 1.0, size=sizes[-1])
        assert grad_check(p, x, y, w, rng=rng) < 1e-4


def test_grad_check_matches_closed_form_linear():
    # single weight w, loss = (w x - y)^2 averaged: dL/dw = 2 x (w x - y) / 1
    p = nets.init_mlp([1, 1], seed=0)
    p.weights[0][:] = 0.7
    x = np.array([[2.0]])
    y = np.array([[1.0]])
    _, gw, _ = nets.loss_and_grads(p, x, y, np.ones(1))
    closed = 2.0 * 2.0 * (0.7 * 2.0 - 1.0)
    assert gw[0][0, 0] == pytest.approx(closed, rel=1e-12)
    assert grad_check(p, x, y, np.ones(1)) < 1e-6


def test_grad_check_zero_loss_batch():
    p = nets.init_mlp([2, 3, 2], seed=1)
    x = np.random.default_rng(1).normal(size=(4, 2))
    y = nets.forward_batch(p, x)
    _, gw, gb = nets.loss_and_grads(p, x, y, np.ones(2))
    assert all(np.allclose(g, 0, atol=1e-12) for g in gw + gb)


def test_one_hot_row_weights_mask_gradients():
    p = nets.init_mlp([2, 4, 3], seed=4)
    x = np.random.default_rng(4).normal(size=(2, 2))
    y = nets.forward_batch(p, x) + 1.0
    w = np.zeros((2, 3))
    w[0, 1] = 1.0
    w[1, 2] = 1.0
    loss, _, _ = nets.loss_and_grads(p, x, y, w)
    assert loss == pytest.approx(1.0)   # one unit error per sample on one dim
    assert grad_check(p, x, y, w) < 1e-4

