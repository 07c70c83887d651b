"""Objective estimation and gradient play: oracles with known answers."""

import numpy as np
import pytest
from conftest import constant_reward_game, single_quadratic, two_player_quadratic

from pogplan import adgraph as ag
from pogplan.beliefs import init_particles
from pogplan.policy import (
    ACTIVE,
    PASSIVE,
    init_policy,
    lift_policy,
    policy_forward,
    policy_leaves,
)
from pogplan.scenarios import ScenarioConfig, make_game
from pogplan.solver import (
    _run_rollout,
    calc_eq,
    draw_noise,
    eval_cost,
    evaluation_batch,
    expected_cost,
    rollout,
)


def _policies(game, mode=ACTIVE, seed=0, hidden=(8,)):
    return [init_policy(game, i, mode, seed=seed + i, hidden=hidden)
            for i in range(game.n_players)]


def _particle(game, rng):
    state = game.pack_state(game.sample_initial(rng, 1))[0]
    hists = [np.zeros(game.t_past * game.obs_dim(i)) for i in range(game.n_players)]
    return state, hists


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def test_rollout_zero_horizon_and_zero_rewards():
    game = single_quadratic(t_future=0)
    sample = rollout(game, _particle(game, np.random.default_rng(0)),
                     _policies(game), eps=[])
    np.testing.assert_array_equal(sample.costs, 0.0)

    flat = constant_reward_game(value=0.0, t_future=4)
    eps = draw_noise(flat, 1, np.random.default_rng(1))
    sample = rollout(flat, _particle(flat, np.random.default_rng(2)),
                     _policies(flat), eps)
    np.testing.assert_array_equal(sample.costs, 0.0)
    assert len(sample.states) == 4


def test_rollout_replay_is_bit_for_bit():
    game = make_game(ScenarioConfig(name="tag"))
    rng = np.random.default_rng(3)
    thetas = _policies(game)
    particle = _particle(game, rng)
    eps = draw_noise(game, 1, rng)
    a = rollout(game, particle, thetas, eps)
    b = rollout(game, particle, thetas, eps)
    np.testing.assert_array_equal(a.costs, b.costs)
    for sa, sb in zip(a.states, b.states):
        np.testing.assert_array_equal(sa, sb)
    for ta, tb in zip(a.actions, b.actions):
        for xa, xb in zip(ta, tb):
            np.testing.assert_array_equal(xa, xb)


def test_rollout_passive_actions_ignore_noise():
    game = make_game(ScenarioConfig(name="tag"))
    rng = np.random.default_rng(4)
    thetas = _policies(game, mode=PASSIVE)
    particle = _particle(game, rng)
    eps1 = draw_noise(game, 1, np.random.default_rng(5))
    eps2 = draw_noise(game, 1, np.random.default_rng(6))
    a = rollout(game, particle, thetas, eps1)
    b = rollout(game, particle, thetas, eps2)
    for ta, tb in zip(a.actions, b.actions):
        for xa, xb in zip(ta, tb):
            np.testing.assert_array_equal(xa, xb)  # plans are frozen
    changed = any(not np.array_equal(xa, xb)
                  for oa, ob in zip(a.observations, b.observations)
                  for xa, xb in zip(oa, ob))
    assert changed  # the sampled observations themselves still vary


def test_passive_sequence_computed_once_equals_per_step_forward():
    """Both rollout paths slice one passive forward pass per rollout; each
    block equals a fresh per-step forward on the planning-time window."""
    game = make_game(ScenarioConfig(name="tag"))
    rng = np.random.default_rng(10)
    thetas = [init_policy(game, 0, PASSIVE, seed=1, hidden=(8,)),
              init_policy(game, 1, ACTIVE, seed=2, hidden=(8,))]
    state = game.sample_initial(rng, 3)
    hists = [rng.normal(size=(3, game.t_past * game.obs_dim(i))) for i in range(2)]
    eps = draw_noise(game, 3, rng)

    tape = ag.Tape()
    taped_state = [tuple(tape.const(c) for c in block) for block in state]
    lifted = [lift_policy(tape, th, trainable=True) for th in thetas]
    _, raw = _run_rollout(game, state, hists, thetas, eps, [0], record=True)
    _, taped = _run_rollout(game, taped_state, [tape.const(h) for h in hists],
                            lifted, eps, [0], record=True)
    for t in range(game.t_future):
        want = policy_forward(thetas[0], hists[0], t_offset=t)
        np.testing.assert_array_equal(raw["actions"][t][0], want)
        np.testing.assert_array_equal(taped["actions"][t][0].value, want)


# ---------------------------------------------------------------------------
# expected_cost
# ---------------------------------------------------------------------------

def test_expected_cost_constant_reward():
    game = constant_reward_game(value=-1.0, t_future=6)
    pset = init_particles(game, 1, 1, np.random.default_rng(7))
    cost, grads = expected_cost(game, pset, _policies(game), 0, k_batch=3,
                                rng=np.random.default_rng(8))
    assert cost == 6.0
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)  # reward ignores the action


def test_expected_cost_gradient_matches_finite_differences():
    game = single_quadratic()
    pset = init_particles(game, 1, 1, np.random.default_rng(9))
    thetas = _policies(game, hidden=(4,))
    batch = evaluation_batch(game, pset, 1, np.random.default_rng(10))

    cost, grads = expected_cost(game, pset, thetas, 0, k_batch=1,
                                rng=np.random.default_rng(11))
    leaves = policy_leaves(thetas[0])
    h = 1e-6
    worst = 0.0
    for li, leaf in enumerate(leaves):
        flat = leaf.ravel()
        gflat = grads[li].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = eval_cost(game, pset, thetas, 0, batch)
            flat[j] = orig - h
            dn = eval_cost(game, pset, thetas, 0, batch)
            flat[j] = orig
            num = (up - dn) / (2 * h)
            worst = max(worst, abs(gflat[j] - num) / (abs(gflat[j]) + abs(num) + 1e-12))
    assert worst < 1e-4


def test_expected_cost_deterministic_given_stream():
    game = make_game(ScenarioConfig(name="tag"))
    pset = init_particles(game, 32, 1, np.random.default_rng(12))
    thetas = _policies(game, hidden=(8, 8))
    c1, g1 = expected_cost(game, pset, thetas, 0, 4, np.random.default_rng(13))
    c2, g2 = expected_cost(game, pset, thetas, 0, 4, np.random.default_rng(13))
    assert c1 == c2
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)


def test_expected_cost_touches_only_named_player():
    game = two_player_quadratic()
    pset = init_particles(game, 2, 1, np.random.default_rng(14))
    thetas = _policies(game, hidden=(4,))
    before = [[leaf.copy() for leaf in policy_leaves(th)] for th in thetas]
    _, grads = expected_cost(game, pset, thetas, 0, 2, np.random.default_rng(15))
    # returned gradient aligns with player 0's parameters, and the call is pure
    assert [g.shape for g in grads] == [a.shape for a in policy_leaves(thetas[0])]
    for th, saved in zip(thetas, before):
        for leaf, keep in zip(policy_leaves(th), saved):
            np.testing.assert_array_equal(leaf, keep)


def test_cost_scaling_rescales_gradient_proportionally():
    """Scaling one player's reward by kappa scales its gradient by kappa, so
    the stationary points of the objective are unchanged."""
    kappa = 3.7

    def base(state):
        return ag.scale(ag.square(ag.affine(state[0][0], 1.0, -2.0)), -1.0)

    def scaled(state):
        return ag.scale(base(state), kappa)

    from conftest import QuadraticGame

    g1 = QuadraticGame([base])
    g2 = QuadraticGame([scaled])
    pset = init_particles(g1, 1, 1, np.random.default_rng(16))
    thetas = _policies(g1, hidden=(4,))
    _, grads1 = expected_cost(g1, pset, thetas, 0, 1, np.random.default_rng(17))
    _, grads2 = expected_cost(g2, pset, thetas, 0, 1, np.random.default_rng(17))
    for a, b in zip(grads1, grads2):
        np.testing.assert_allclose(b, kappa * a, rtol=1e-9)


# ---------------------------------------------------------------------------
# calc_eq
# ---------------------------------------------------------------------------

def _final_action(game, theta):
    hist = np.zeros((1, theta.input_width))
    return float(policy_forward(theta, hist)[0, 0])


def test_calc_eq_single_player_reaches_optimum():
    game = single_quadratic()
    rng = np.random.default_rng(18)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, rng, eps_tol=0.0, max_iters=500,
                  k_batch=2, lr=0.05)
    assert res.iterations <= 500
    assert abs(_final_action(game, res.thetas[0]) - 2.0) < 1e-2
    assert abs(res.costs[0]) < 1e-3
    assert len(res.cost_trace[0]) == res.iterations
    assert len(res.grad_step_seconds) == res.iterations


def test_calc_eq_two_player_nash():
    game = two_player_quadratic()
    rng = np.random.default_rng(19)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, rng, eps_tol=0.0, max_iters=500,
                  k_batch=2, lr=0.05)
    a1 = _final_action(game, res.thetas[0])
    a2 = _final_action(game, res.thetas[1])
    assert abs(a1 - 1.0 / 1.1) < 1e-2
    assert abs(a2 - 1.0) < 1e-2


def test_calc_eq_converged_flag_and_warm_start():
    game = single_quadratic()
    rng = np.random.default_rng(20)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, rng, eps_tol=1e-4, max_iters=2000,
                  k_batch=2, lr=0.05)
    assert res.converged
    assert res.iterations < 2000
    # warm start from the solution: immediately flat
    res2 = calc_eq(game, pset, res.thetas, rng, eps_tol=1e-3, max_iters=50,
                   k_batch=2, lr=0.05, adam_states=res.adam_states)
    assert res2.iterations <= 10
    assert abs(_final_action(game, res2.thetas[0]) - 2.0) < 0.05


def test_calc_eq_survives_nonfinite_costs():
    def exploding(state):
        with np.errstate(divide="ignore"):
            return ag.div(ag.affine(state[0][0], 0.0, 1.0),
                          ag.affine(state[0][0], 0.0, 0.0))  # 1 / 0

    from conftest import QuadraticGame

    game = QuadraticGame([exploding])
    rng = np.random.default_rng(21)
    pset = init_particles(game, 2, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, rng, max_iters=5, k_batch=1)
    assert res.aborted
    assert not res.converged


def test_calc_eq_counts_skipped_adam_steps():
    """A finite rollout with a non-finite gradient skips the update, without
    aborting, and every skip is counted."""
    def kinked(state):
        return ag.sqrt(ag.affine(state[0][0], 0.0, 0.0))  # value 0, slope 1/0

    from conftest import QuadraticGame

    game = QuadraticGame([kinked])
    rng = np.random.default_rng(22)
    pset = init_particles(game, 2, 1, rng)
    thetas = _policies(game, hidden=(4,))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = calc_eq(game, pset, thetas, rng, max_iters=5, k_batch=1)
    assert not res.aborted
    assert not res.converged
    assert res.adam_skips == res.iterations > 0
    for old, new in zip(policy_leaves(thetas[0]), policy_leaves(res.thetas[0])):
        np.testing.assert_array_equal(old, new)

    clean = calc_eq(single_quadratic(), pset, thetas, rng, max_iters=5, k_batch=1)
    assert clean.adam_skips == 0
