"""Policy networks and Adam: shapes, determinism, squash bound, gradients."""

from dataclasses import replace

import numpy as np
import pytest

from pogplan import adgraph as ag
from pogplan.adgraph import Tape
from pogplan.config import ExperimentConfig
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
from pogplan.scenarios import make_game


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
    a = init_policy(g, 0, ACTIVE, seed=42, hidden=(64, 64))
    b = init_policy(g, 0, ACTIVE, seed=42, hidden=(64, 64))
    np.testing.assert_array_equal(a.flat, b.flat)
    c = init_policy(g, 0, ACTIVE, seed=43, hidden=(64, 64))
    assert not np.array_equal(a.flat, c.flat)


@pytest.mark.parametrize("player, mode, match", [(0, "Active", "unknown policy mode"),
                                                 (2, ACTIVE, "player index 2 out of range"),
                                                 (-1, PASSIVE, "player index -1 out of range")])
def test_init_policy_rejects_unknown_mode_and_player(player, mode, match):
    with pytest.raises(ValueError, match=match):
        init_policy(StubGame(), player, mode, seed=0, hidden=(64, 64))


def test_tag_widths_match_window_and_action():
    game = make_game(ExperimentConfig(scenario="tag", t_past=6, t_future=6))
    active = init_policy(game, 1, ACTIVE, seed=0, hidden=(64, 64))
    assert active.shapes[0][1] == 6 * game.obs_dim(1) == 36
    assert active.shapes[-1][0] == game.action_dim(1) == 2
    passive = init_policy(game, 1, PASSIVE, seed=0, hidden=(64, 64))
    assert passive.shapes[-1][0] == 6 * game.action_dim(1) == 12


def test_zero_weights_give_zero_action():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=0, hidden=(64, 64))
    for w in ag.layer_views(theta.flat, theta.shapes)[0]:
        w[:] = 0.0
    act = policy_forward(theta, np.ones((1, theta.shapes[0][1])))
    np.testing.assert_array_equal(act, np.zeros((1, 2)))


def test_squash_bound_1000_random_samples():
    g = StubGame()
    rng = np.random.default_rng(0)
    for trial in range(1000):
        theta = init_policy(g, 0, ACTIVE, seed=trial % 17, hidden=(8, 8))
        for w in ag.layer_views(theta.flat, theta.shapes)[0]:
            w *= rng.uniform(0.5, 40.0)  # exaggerate weights; bound must still hold
        hist = rng.normal(scale=5.0, size=(1, theta.shapes[0][1]))
        act = policy_forward(theta, hist)
        assert np.max(np.abs(act)) <= g.action_scale(0) + 1e-12


def test_active_mode_is_pure_function():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=5, hidden=(64, 64))
    hist = np.random.default_rng(1).normal(size=(1, theta.shapes[0][1]))
    a1 = policy_forward(theta, hist)
    a2 = action_block(theta, policy_forward(theta, hist), 0)  # an active output is one block
    np.testing.assert_array_equal(a1, a2)


def test_wrong_history_width_rejected():
    g = StubGame()
    theta = init_policy(g, 0, ACTIVE, seed=0, hidden=(64, 64))
    with pytest.raises(ValueError):
        policy_forward(theta, np.zeros(theta.shapes[0][1] + 1))


def test_passive_blocks_cover_distinct_slices():
    g = StubGame()
    theta = init_policy(g, 0, PASSIVE, seed=9, hidden=(64, 64))
    hist = np.random.default_rng(2).normal(size=(1, theta.shapes[0][1]))
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
    state = adam_init(theta, lr=1e-3)
    theta1, state1 = adam_step(theta, np.full_like(theta.flat, np.nan), state)
    assert theta1 is theta and state1 is state
    assert state1.step == 0
    np.testing.assert_array_equal(theta.flat, theta1.flat)


def test_adam_wrong_gradient_shape_rejected_before_finiteness_skip():
    """A gradient that does not match ``flat`` raises, NaN or not."""
    theta = _toy_theta()
    state = adam_init(theta, lr=1e-3)
    n = theta.flat.size
    for shape in [(n - 1,), (n + 1,), (1, n)]:
        for fill in (np.nan, 0.0):
            with pytest.raises(ValueError):
                adam_step(theta, np.full(shape, fill), state)


def test_layer_arrays_are_views_into_flat():
    """After init and an Adam step, the layer views of ``flat`` tile it
    layer by layer (weights row-major, then bias), with the shapes init
    built; the step's result shares nothing with its source."""
    theta = init_policy(StubGame(), 0, PASSIVE, seed=4, hidden=(5, 3))
    assert theta.shapes == ((5, 12), (3, 5), (10, 3))
    state = adam_init(theta, lr=1e-3)
    stepped, stepped_state = adam_step(theta, np.linspace(-1.0, 1.0, theta.flat.size), state)
    assert not any(np.shares_memory(a, b) for a, b in
                   ((stepped.flat, theta.flat), (stepped_state.m, state.m),
                    (stepped_state.v, state.v)))
    for th in (theta, stepped):
        weights, biases = ag.layer_views(th.flat, th.shapes)
        assert [w.shape for w in weights] == list(th.shapes)
        arrays = [a for w, b in zip(weights, biases) for a in (w, b)]
        assert all(np.shares_memory(a, th.flat) for a in arrays)
        th.flat[:] = np.arange(th.flat.size)
        np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]), th.flat)


def test_adam_step_writes_into_none_of_its_inputs():
    """Over a few steps with moments built up, each update leaves the
    caller's ``flat``, ``m``, ``v`` and gradient as they were, returns arrays
    that share no memory with them, and equals the textbook expressions bit
    for bit."""
    theta = _toy_theta()
    state = adam_init(theta, lr=3e-3)
    rng = np.random.default_rng(11)
    for _ in range(4):
        grad = rng.normal(size=theta.flat.size)
        grad[:3] = 0.0, -0.0, 1e-300
        inputs = (theta.flat, state.m, state.v, grad)
        kept = [a.copy() for a in inputs]
        stepped, stepped_state = adam_step(theta, grad, state)
        for a, before in zip(inputs, kept):
            assert a.tobytes() == before.tobytes()
        outputs = (stepped.flat, stepped_state.m, stepped_state.v)
        assert not any(np.shares_memory(a, b) for a in outputs for b in inputs + outputs
                       if a is not b)
        t = state.step + 1
        m = BETA1 * state.m + (1.0 - BETA1) * grad
        v = BETA2 * state.v + (1.0 - BETA2) * (grad * grad)
        step = state.lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + 1e-8)
        for got, want in zip(outputs, (theta.flat - step, m, v)):
            assert got.tobytes() == want.tobytes()
        theta, state = stepped, stepped_state


def test_a_policy_builds_its_views_once(monkeypatch):
    """A policy's layer views are built with it: its forwards reuse them,
    they follow in-place writes to ``flat``, and a ``replace`` builds views
    of the new ``flat``.  ``flat`` cannot be reassigned."""
    game = make_game(ExperimentConfig(scenario="tag"))
    theta = init_policy(game, 0, ACTIVE, seed=5, hidden=(6, 4))
    rng = np.random.default_rng(12)
    history = rng.normal(size=(3, theta.shapes[0][1]))
    layers = theta.layers
    built = []
    real = ag.layer_views
    monkeypatch.setattr(ag, "layer_views", lambda *a: built.append(a) or real(*a))
    first = policy_forward(theta, history)
    assert policy_forward(theta, history).tobytes() == first.tobytes()
    assert theta.layers is layers and not built
    weights, biases = layers
    for w, b in zip(weights, biases):
        assert np.shares_memory(w, theta.flat) and np.shares_memory(b, theta.flat)

    theta.flat[:] = rng.normal(size=theta.flat.size) * 0.3
    fresh = replace(theta, flat=theta.flat.copy())
    assert len(built) == 1 and fresh.layers is not layers
    assert policy_forward(theta, history).tobytes() == policy_forward(fresh, history).tobytes()
    assert policy_forward(theta, history).tobytes() != first.tobytes()
    assert all(np.shares_memory(a, fresh.flat) and not np.shares_memory(a, theta.flat)
               for a in fresh.layers[0] + fresh.layers[1])

    tape = Tape()
    lifted = replace(theta, flat=tape.param(theta.flat))
    assert all(np.shares_memory(a, theta.flat) for a in lifted.layers[0] + lifted.layers[1])
    assert policy_forward(lifted, history).value.tobytes() == \
        policy_forward(theta, history).tobytes()
    with pytest.raises(AttributeError):
        theta.flat = fresh.flat
