"""Policy networks and Adam: shapes, determinism, squash bound, gradients."""

from dataclasses import replace

import numpy as np
import pytest

from pogplan import adgraph as ag
from pogplan.adgraph import Tape
from pogplan.policy import (
    ACTIVE,
    BETA1,
    BETA2,
    PASSIVE,
    action_block,
    adam_init,
    adam_step,
    init_policy,
    policy_forward,
)
from pogplan.scenarios import ScenarioConfig, make_game


class StubGame:
    n_players = 2
    t_past = 4
    t_future = 5

    def obs_dim(self, i):
        return 3

    def action_dim(self, i):
        return 2

    def action_scale(self, i):
        return 1.5


def test_init_deterministic_given_seed():
    g = StubGame()
    a = init_policy(g, 0, ACTIVE, seed=42)
    b = init_policy(g, 0, ACTIVE, seed=42)
    np.testing.assert_array_equal(a.flat, b.flat)
    c = init_policy(g, 0, ACTIVE, seed=43)
    assert not np.array_equal(a.flat, c.flat)


def test_tag_widths_match_window_and_action():
    game = make_game(ScenarioConfig(scenario="tag", t_past=6, t_future=6))
    active = init_policy(game, 1, ACTIVE, seed=0)
    assert active.input_width == 6 * game.obs_dim(1) == 36
    assert active.shapes[-1][0] == game.action_dim(1) == 2
    passive = init_policy(game, 1, PASSIVE, seed=0)
    assert passive.shapes[-1][0] == 6 * game.action_dim(1) == 12


def test_zero_weights_give_zero_action():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=0)
    for w in ag.layer_views(theta.flat, theta.shapes)[0]:
        w[:] = 0.0
    act = policy_forward(theta, np.ones((1, theta.input_width)))
    np.testing.assert_array_equal(act, np.zeros((1, 2)))


def test_squash_bound_1000_random_samples():
    g = StubGame()
    rng = np.random.default_rng(0)
    for trial in range(1000):
        theta = init_policy(g, 0, ACTIVE, seed=trial % 17, hidden=(8, 8))
        for w in ag.layer_views(theta.flat, theta.shapes)[0]:
            w *= rng.uniform(0.5, 40.0)  # exaggerate weights; bound must still hold
        hist = rng.normal(scale=5.0, size=(1, theta.input_width))
        act = policy_forward(theta, hist)
        assert np.max(np.abs(act)) <= g.action_scale(0) + 1e-12


def test_active_mode_is_pure_function():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=5)
    hist = np.random.default_rng(1).normal(size=(1, theta.input_width))
    a1 = policy_forward(theta, hist)
    a2 = action_block(theta, policy_forward(theta, hist), 0)  # an active output is one block
    np.testing.assert_array_equal(a1, a2)


def test_wrong_history_width_rejected():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=0)
    with pytest.raises(ValueError):
        policy_forward(theta, np.zeros(theta.input_width + 1))


def test_passive_blocks_cover_distinct_slices():
    g = StubGame()
    theta = init_policy(g, 0, PASSIVE, seed=9)
    hist = np.random.default_rng(2).normal(size=(1, theta.input_width))
    sequence = policy_forward(theta, hist)
    blocks = [action_block(theta, sequence, t) for t in range(g.t_future)]
    # re-run as active to get the raw sequence: same weights, no slicing
    full_net = policy_forward(replace(theta, mode=ACTIVE, action_dim=theta.shapes[-1][0]), hist)
    np.testing.assert_allclose(np.concatenate(blocks, axis=-1), full_net)
    np.testing.assert_array_equal(sequence, full_net)
    with pytest.raises(ValueError):
        action_block(theta, sequence, g.t_future)


def test_first_layer_gradient_hand_chain_rule():
    """Zero first layer, identity second, selector output: dA_0/dW1[1,m] = scale * x_m."""
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=0, hidden=(4, 4))
    weights = ag.layer_views(theta.flat, theta.shapes)[0]
    weights[0][:] = 0.0
    weights[1][:] = np.eye(4)
    weights[2][:] = 0.0
    weights[2][0, 1] = 1.0
    x = np.array([[0.3, -0.7, 1.1] * 4])  # one row of input width 12

    tape = Tape()
    lifted = replace(theta, flat=tape.param(theta.flat))
    action = policy_forward(lifted, x)
    tape.backward(ag.asum(ag.slice_last(action, 0, 1)))

    grad_w1 = ag.layer_views(lifted.flat.grad, theta.shapes)[0][0]
    expected = np.zeros_like(grad_w1)
    expected[1, :] = g.action_scale(0) * x[0]  # tanh'(0) = 1 through every layer
    np.testing.assert_allclose(grad_w1, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _toy_theta():
    g = StubGame()
    return init_policy(g, 0, ACTIVE, seed=3, hidden=(4,))


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    theta = _toy_theta()
    state = adam_init(theta, lr=0.01)
    zero = np.zeros_like(theta.flat)
    theta1, state1 = adam_step(theta, zero, state)
    np.testing.assert_array_equal(theta.flat, theta1.flat)  # no momentum yet, nothing moves
    assert state1.step == 1

    # decay recursion with accumulated moments: m' = beta1 m, v' = beta2 v
    theta2, state2 = adam_step(theta1, np.full_like(zero, 0.5), state1)
    theta3, state3 = adam_step(theta2, zero, state2)
    np.testing.assert_allclose(state3.m, BETA1 * state2.m, rtol=1e-12)
    np.testing.assert_allclose(state3.v, BETA2 * state2.v, rtol=1e-12)


def test_adam_first_step_magnitude_closed_form():
    theta = _toy_theta()
    lr = 0.004
    state = adam_init(theta, lr=lr)
    g = 0.37
    theta1, state1 = adam_step(theta, np.full_like(theta.flat, g), state)
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr
    np.testing.assert_allclose(np.abs(theta.flat - theta1.flat), lr, rtol=1e-6)
    assert state1.step == 1


def test_adam_nonfinite_gradient_skipped():
    theta = _toy_theta()
    state = adam_init(theta)
    theta1, state1 = adam_step(theta, np.full_like(theta.flat, np.nan), state)
    assert theta1 is theta and state1 is state
    assert state1.step == 0
    np.testing.assert_array_equal(theta.flat, theta1.flat)


def test_adam_wrong_gradient_shape_rejected_before_finiteness_skip():
    """A gradient that does not match ``flat`` raises, NaN or not."""
    theta = _toy_theta()
    state = adam_init(theta)
    n = theta.flat.size
    for shape in [(n - 1,), (n + 1,), (1, n)]:
        for fill in (np.nan, 0.0):
            with pytest.raises(ValueError):
                adam_step(theta, np.full(shape, fill), state)


def test_layer_arrays_are_views_into_flat():
    """After init, copy and an Adam step, the layer views of ``flat`` tile it
    layer by layer (weights row-major, then bias), with the shapes init
    built; a copy shares nothing with its source."""
    theta = init_policy(StubGame(), 0, PASSIVE, seed=4, hidden=(5, 3))
    assert theta.shapes == ((5, 12), (3, 5), (10, 3))
    stepped, _ = adam_step(theta, np.linspace(-1.0, 1.0, theta.flat.size), adam_init(theta))
    dup = theta.copy()
    for th in (theta, dup, stepped):
        weights, biases = ag.layer_views(th.flat, th.shapes)
        assert [w.shape for w in weights] == list(th.shapes)
        arrays = [a for w, b in zip(weights, biases) for a in (w, b)]
        assert all(np.shares_memory(a, th.flat) for a in arrays)
        th.flat[:] = np.arange(th.flat.size)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), th.flat)
    assert not np.shares_memory(dup.flat, theta.flat)
