"""Shared game building blocks: dynamics, view-cone noise, boundary penalty.

The view-cone observation model itself lives in the scenarios; its tests here
run it through ``TagGame`` (player 0 observes player 1).
"""

import math

import numpy as np
import refchain as rc

from pogplan import adgraph as ag
from pogplan.adgraph import Tape, grad_check
from pogplan.gamedef import boundary_penalty, double_integrator_step
from pogplan.scenarios import ScenarioConfig, TagGame


def _arr(*rows):
    return np.asarray(rows, dtype=float)


def test_double_integrator_free_motion():
    # velocity far below the saturation bound passes through unchanged
    pos, vel = _arr([0.0, 0.0]), _arr([1.0, 0.0])
    new_pos, new_vel = double_integrator_step(pos, vel, _arr([0.0, 0.0]), v_max=1e6)
    np.testing.assert_allclose(new_pos, [[1.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(new_vel, [[1.0, 0.0]], atol=1e-9)


def test_double_integrator_velocity_saturates():
    pos, vel = _arr([0.0, 0.0]), _arr([0.2, -0.2])
    _, new_vel = double_integrator_step(pos, vel, _arr([50.0, -50.0]), v_max=0.3)
    assert np.max(np.abs(new_vel)) <= 0.3


def test_double_integrator_accel_gradient_near_one():
    # in the linear region d pos' / d accel is ~1 per axis (finite differences)
    def f(a):
        pos, vel = _arr([0.5, -0.2]), _arr([0.01, 0.02])
        new_pos, _ = double_integrator_step(pos, vel, a, v_max=0.3)
        return ag.asum(new_pos)

    h = 1e-6
    base = np.array([0.02, -0.01])
    for axis in range(2):
        hi, lo = base.copy(), base.copy()
        hi[axis] += h
        lo[axis] -= h
        slope = (float(np.asarray(f(hi[None]))) - float(np.asarray(f(lo[None])))) / (2 * h)
        assert abs(slope - 1.0) < 0.02


def fov_variance(bearing, fov, sigma2_base, c_scale):
    """The view-cone variance at the given bearings (K, 1): an observer at
    the origin heading along +x, targets on the unit circle."""
    k = bearing.shape[0]
    target = np.concatenate([np.cos(bearing), np.sin(bearing)], axis=-1)
    return ag.fov_variance(np.zeros((k, 2)), np.tile([[0.3, 0.0]], (k, 1)), target,
                           fov, sigma2_base, c_scale)


def test_fov_variance_branches():
    f = math.pi / 2
    base, cs = 0.01, 5.0
    inside = fov_variance(np.array([[0.0]]), f, base, cs)
    np.testing.assert_allclose(inside, [[base]], atol=1e-4)
    at_edge = fov_variance(np.array([[f / 2]]), f, base, cs)
    np.testing.assert_allclose(at_edge, [[base]], atol=1e-4)
    outside = fov_variance(np.array([[f / 2 + 1.0]]), f, base, cs)
    np.testing.assert_allclose(outside, [[base + cs]], rtol=1e-6)


def test_fov_variance_continuous_and_flat_inside():
    f = math.pi / 2
    sweep = np.linspace(-math.pi, math.pi, 4001).reshape(-1, 1)
    var = fov_variance(sweep, f, 0.01, 5.0)[:, 0]
    # continuity: adjacent samples stay close everywhere
    assert np.max(np.abs(np.diff(var))) < 5.0 * (2 * math.pi / 4000) * 1.1
    inside = np.abs(sweep[:, 0]) < f / 2 - 1e-3
    np.testing.assert_allclose(var[inside], 0.01, atol=1e-4)


def _two_player_state(p0, v0, p1, v1):
    return [(_arr(p0), _arr(v0)), (_arr(p1), _arr(v1))]


# fov = pi/2, sigma2_base = 0.01, c_scale = 5.0, play_radius = 5.0
TAG = TagGame(ScenarioConfig(scenario="tag"))


def test_fov_observe_dead_ahead_zero_noise():
    # observer at origin heading +x, target straight ahead near the center:
    # zero noise gives the exact position (trim residual is negligible there)
    state = _two_player_state([0, 0], [0.3, 0], [0.02, 0.0], [0, 0])
    z = TAG.observe(state, 0, np.zeros((1, 2)))
    np.testing.assert_allclose(z[:, 4:6], [[0.02, 0.0]], atol=1e-6)


def test_fov_observe_behind_has_eq4_variance():
    # target directly behind: |bearing| = pi, f = pi/2 -> base + c*(pi - pi/4);
    # the density at the exact position is -log(2 pi var)
    state = _two_player_state([0, 0], [0.3, 0], [-1.0, 0.0], [0, 0])
    exact = np.concatenate([state[0][0], state[0][1], state[1][0]], axis=1)
    var = np.exp(-TAG.obs_logdensity(state, 0, exact)) / (2 * math.pi)
    np.testing.assert_allclose(var, [0.01 + 5.0 * (math.pi - math.pi / 4)], rtol=1e-5)


def test_fov_observe_trimmed_to_play_area():
    state = _two_player_state([0, 0], [0.3, 0], [4.9, 0.0], [0, 0])
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = TAG.observe(state, 0, rng.normal(size=(1, 2)) * 3)
        assert np.all(np.abs(z[:, 4:6]) <= 5.0)


def _chain_observe(game, state, player, eps):
    """``TagGame.observe`` as the chains its fused nodes replace: the
    view-cone variance, then the trimmed reparameterized draw."""
    cfg, r = game.config, game.config.play_radius
    parts = [state[player][0], state[player][1]]
    col = 0
    for other in range(game.n_players):
        if other == player:
            continue
        var = rc.chain_fov(state[player][0], state[player][1], state[other][0],
                           cfg.fov, cfg.sigma2_base, cfg.c_scale)
        parts.append(rc.chain_trimmed(state[other][0], var, ag.slice_last(eps, col, col + 2),
                                      -r, r))
        col += 2
    return ag.concat(parts)


def _observe_flat(observe, x, eps):
    state = [(ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4)),
             (ag.slice_last(x, 4, 6), ag.slice_last(x, 6, 8))]
    return observe(state, 0, eps)


def test_fov_observe_matches_chain_bitwise():
    """Observation and adjoints equal the unfused chain byte for byte: every
    state input on the tape, the noise raw, and a resting observer whose
    bearing rests on signed zeros."""
    rng = np.random.default_rng(3)
    points = [rng.normal(size=10) * 2.0 for _ in range(10)]
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):   # observer at rest, target in each quadrant
            points.append(np.array([0.4, -0.2, 0.0, 0.0, 0.4 + sx, -0.2 + sy, 0.1, 0.0,
                                    0.3, -0.8]))
    upstream = rng.normal(size=(1, 6))
    observers = (TAG.observe, lambda *args: _chain_observe(TAG, *args))
    for x in points:
        state, eps = x[None, :8], x[None, 8:]
        raw = [_observe_flat(fn, state, eps) for fn in observers]
        assert raw[0].tobytes() == raw[1].tobytes()
        taped = []
        for fn in observers:
            tape = Tape()
            leaf = tape.param(state)
            z = _observe_flat(fn, leaf, eps)
            tape.backward(ag.asum(rc.mul(z, upstream)))
            taped.append((z.value.tobytes(), leaf.grad.tobytes()))
        assert taped[0] == taped[1]


def test_boundary_penalty_values_and_monotonicity():
    lam = 10.0
    deep = boundary_penalty(np.zeros((1, 2)), 15.0, lam)  # softplus(-r)^2 -> 0 deep inside
    assert deep.item() < 1e-6 * lam

    one_out = boundary_penalty(_arr([6.0, 0.0]), 5.0, lam)
    closed_form = lam * math.log(1 + math.e) ** 2  # softplus(1)^2 ~ 1.73
    np.testing.assert_allclose(one_out.item(), closed_form, atol=1e-6)
    assert abs(closed_form / lam - 1.73) < 0.01

    rng = np.random.default_rng(1)
    for _ in range(200):
        r1, r2 = sorted(rng.uniform(0, 10, size=2))
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        p1 = boundary_penalty(_arr(direction * r1), 5.0, lam)
        p2 = boundary_penalty(_arr(direction * r2), 5.0, lam)
        assert p2.item() >= p1.item() - 1e-12


def test_blocks_pass_grad_check():
    rng = np.random.default_rng(2)
    worst = 0.0

    def f_step(x):
        pos, vel, acc = ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4), ag.slice_last(x, 4, 6)
        p, v = double_integrator_step(pos, vel, acc, v_max=0.3)
        return ag.add(ag.asum(rc.square(p)), ag.asum(rc.mul(v, v)))

    def f_obs(x, eps):
        return ag.asum(rc.square(_observe_flat(TAG.observe, x, eps)))

    def f_pen(x):
        return ag.asum(boundary_penalty(x, 5.0, 10.0))

    for _ in range(25):
        worst = max(worst, grad_check(f_step, rng.normal(size=6) * 0.5, h=1e-5))
        point = rng.normal(size=10)   # state, then raw noise
        worst = max(worst, grad_check(lambda x: f_obs(x, point[8:]), point[:8], h=1e-5))
        worst = max(worst, grad_check(f_pen, rng.normal(size=2) * 4, h=1e-5))
    assert worst < 1e-4
