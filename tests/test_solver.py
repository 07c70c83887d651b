"""Objective estimation and gradient play: oracles with known answers."""

import gc
import os
from dataclasses import replace

import numpy as np
import pytest
import refchain as rc
from conftest import constant_reward_game, single_quadratic, two_player_quadratic

from pogplan import adgraph as ag
from pogplan import solver
from pogplan.beliefs import init_particles, observation_noise
from pogplan.config import ExperimentConfig
from pogplan.policy import (
    ACTIVE,
    PASSIVE,
    action_block,
    adam_init,
    init_policy,
    policy_forward,
)
from pogplan.experiments import episode_options
from pogplan.runner import run_episode
from pogplan.scenarios import WarehouseGame, make_game
from pogplan.solver import (
    _run_rollout,
    calc_eq,
    draw_noise,
    eval_cost,
    evaluation_batch,
    expected_cost,
)


def _policies(game, mode=ACTIVE, seed=0, hidden=(8,)):
    return [init_policy(game, i, mode, seed=seed + i, hidden=hidden)
            for i in range(game.n_players)]


def _cold(thetas, lr=1e-3):
    """Fresh Adam states for a cold start, as ``runner.make_agent`` builds them."""
    return [adam_init(t, lr=lr) for t in thetas]


def _recorded(game, rollout):
    """Call ``rollout()`` with ``game.transition`` wrapped on the instance, as
    the benchmark's tracer wraps game methods: (its result, the state after
    each transition, the joint action fed to each)."""
    states, actions = [], []
    transition = game.transition

    def recording(state, joint):
        actions.append(list(joint))
        states.append(transition(state, joint))
        return states[-1]

    game.transition = recording
    try:
        return rollout(), states, actions
    finally:
        del game.transition


def _record_one(game, pset, thetas, eps):
    """Every player's cost over a one-particle set, with the rollout's
    states and joint actions."""
    players = list(range(game.n_players))
    return _recorded(game, lambda: eval_cost(game, pset, thetas, players, ([0], eps)))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def test_rollout_zero_horizon_and_zero_rewards():
    game = single_quadratic(t_future=0)
    pset = init_particles(game, 1, 1, np.random.default_rng(0))
    costs, _, _ = _record_one(game, pset, _policies(game), eps=[])
    assert costs == [0.0]

    flat = constant_reward_game(value=0.0, t_future=4)
    eps = draw_noise(flat, 1, np.random.default_rng(1))
    pset = init_particles(flat, 1, 1, np.random.default_rng(2))
    costs, states, _ = _record_one(flat, pset, _policies(flat), eps)
    np.testing.assert_array_equal(costs, 0.0)
    assert len(states) == 4


def test_rollout_replay_is_bit_for_bit():
    game = make_game(ExperimentConfig(scenario="tag"))
    rng = np.random.default_rng(3)
    thetas = _policies(game)
    pset = init_particles(game, 1, 1, rng)
    eps = draw_noise(game, 1, rng)
    costs_a, states_a, actions_a = _record_one(game, pset, thetas, eps)
    costs_b, states_b, actions_b = _record_one(game, pset, thetas, eps)
    assert costs_a == costs_b
    assert len(states_a) == len(states_b) == game.t_future
    for sa, sb in zip(states_a, states_b):
        np.testing.assert_array_equal(game.pack_state(sa), game.pack_state(sb))
    for ta, tb in zip(actions_a, actions_b):
        for xa, xb in zip(ta, tb):
            np.testing.assert_array_equal(xa, xb)


@pytest.mark.parametrize("name", ["tag", "tagchain", "hideseek", "warehouse"])
def test_draw_noise_equals_one_draw_per_step_and_player(name):
    """A batch's noise, one standard-normal draw split into views, equals
    byte for byte what a draw per (step, player) in that order gives: one
    ``observation_noise`` round per step, or one ``standard_normal`` call per
    block (warehouse's player 0 takes a zero-width block).  The generator
    ends in the same state."""
    game = make_game(ExperimentConfig(scenario=name))
    n = game.n_players
    for k in (1, 7):
        got_rng, round_rng, block_rng = (np.random.default_rng(k) for _ in range(3))
        got = draw_noise(game, k, got_rng)
        rounds = [observation_noise(game, k, round_rng) for _ in range(game.t_future)]
        blocks = [[block_rng.standard_normal((k, game.noise_dim(i))) for i in range(n)]
                  for _ in range(game.t_future)]
        assert len(got) == game.t_future
        for step, by_round, by_block in zip(got, rounds, blocks):
            assert len(step) == n
            for a, b, c in zip(step, by_round, by_block):
                assert a.shape == b.shape == c.shape
                assert a.tobytes() == b.tobytes() == c.tobytes()
        tail = [r.standard_normal(3).tobytes() for r in (got_rng, round_rng, block_rng)]
        assert tail[0] == tail[1] == tail[2]
        if name == "warehouse":
            assert got[0][0].shape == (k, 0)


def test_rollout_passive_actions_ignore_noise():
    game = make_game(ExperimentConfig(scenario="tag"))
    rng = np.random.default_rng(4)
    thetas = _policies(game, mode=PASSIVE)
    pset = init_particles(game, 1, 1, rng)
    eps1 = draw_noise(game, 1, np.random.default_rng(5))
    eps2 = draw_noise(game, 1, np.random.default_rng(6))
    _, _, a = _record_one(game, pset, thetas, eps1)
    _, _, b = _record_one(game, pset, thetas, eps2)
    assert len(a) == len(b) == game.t_future
    for ta, tb in zip(a, b):
        for xa, xb in zip(ta, tb):
            np.testing.assert_array_equal(xa, xb)  # plans are frozen
    start = game.unpack_state(pset.states[[0]])
    changed = any(not np.array_equal(game.observe(start, i, eps1[0][i]),
                                     game.observe(start, i, eps2[0][i]))
                  for i in range(game.n_players))
    assert changed  # the noise draws themselves give different observations


def test_passive_sequence_computed_once_equals_per_step_forward():
    """Both rollout paths slice one passive forward pass per rollout; each
    block equals a fresh per-step forward on the planning-time window."""
    game = make_game(ExperimentConfig(scenario="tag"))
    rng = np.random.default_rng(10)
    thetas = [init_policy(game, 0, PASSIVE, seed=1, hidden=(8,)),
              init_policy(game, 1, ACTIVE, seed=2, hidden=(8,))]
    state = game.sample_initial(rng, 3)
    hists = [rng.normal(size=(3, game.t_past * game.obs_dim(i))) for i in range(2)]
    eps = draw_noise(game, 3, rng)

    tape = ag.Tape()
    lifted = [replace(th, flat=tape.param(th.flat)) for th in thetas]
    _, _, raw = _recorded(game, lambda: _run_rollout(game, state, hists, thetas, eps, [0]))
    _, _, taped = _recorded(game, lambda: _run_rollout(game, state, hists, lifted, eps, [0]))
    for t in range(game.t_future):
        want = action_block(thetas[0], policy_forward(thetas[0], hists[0]), t)
        np.testing.assert_array_equal(raw[t][0], want)
        np.testing.assert_array_equal(taped[t][0].value, want)


# ---------------------------------------------------------------------------
# expected_cost
# ---------------------------------------------------------------------------

def test_expected_cost_constant_reward():
    game = constant_reward_game(value=-1.0, t_future=6)
    pset = init_particles(game, 1, 1, np.random.default_rng(7))
    cost, grad = expected_cost(game, pset, _policies(game), 0, k_batch=3,
                               rng=np.random.default_rng(8))
    assert cost == 6.0
    np.testing.assert_array_equal(grad, 0.0)  # reward ignores the action

    # a reward that never touches the tape: zero gradients, finiteness checked
    from conftest import QuadraticGame

    def raw_game(value):
        return QuadraticGame([lambda state: np.full((state[0][0].shape[0], 1), value)],
                             t_future=6)

    thetas = _policies(game)
    cost, grad = expected_cost(raw_game(-1.0), pset, thetas, 0, k_batch=3,
                               rng=np.random.default_rng(8))
    assert cost == 6.0
    assert grad.shape == thetas[0].flat.shape
    np.testing.assert_array_equal(grad, 0.0)
    with pytest.raises(FloatingPointError):
        expected_cost(raw_game(-np.inf), pset, _policies(game), 0, k_batch=3,
                      rng=np.random.default_rng(8))


@pytest.mark.parametrize("where", ["state_inf", "state_nan", "state_huge", "window",
                                   "opponent_weight"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_inputs_abort(where):
    """Raw inputs never reach the tape's own checks, so expected_cost checks
    them, and calc_eq aborts.  A saturated opponent weight would otherwise
    yield a finite action (tanh(inf) = 1).  A huge finite position passes
    that check and overflows on the tape, and calc_eq aborts as well,
    without numpy's overflow warning."""
    game = make_game(ExperimentConfig(scenario="tag"))
    thetas = [init_policy(game, 0, PASSIVE, seed=1, hidden=(8,)),
              init_policy(game, 1, ACTIVE, seed=2, hidden=(8,))]
    pset = init_particles(game, 4, 1, np.random.default_rng(23))
    for h in pset.hists:
        h[:] = 0.5
    if where == "state_inf":
        pset.states[:, 0] = np.inf
    elif where == "state_nan":
        pset.states[:, 5] = np.nan
    elif where == "state_huge":
        # both players at x = 1e200: their distance is 0, and the boundary
        # penalty's fused soft_barrier overflows
        pset.states[:, [0, 4]] = 1e200
    elif where == "window":
        pset.hists[0][:, -1] = np.inf
    else:
        thetas[0].flat[0] = np.inf   # the first layer's first weight
    with pytest.raises(FloatingPointError):
        expected_cost(game, pset, thetas, 1, 2, np.random.default_rng(24))
    res = calc_eq(game, pset, thetas, _cold(thetas), np.random.default_rng(25),
                  eps_tol=1e-3, max_iters=3, k_batch=2)
    assert res.aborted
    assert not res.converged


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_final_evaluation_overflow_aborts_without_warning():
    """A solve with no gradient steps still scores its policies in a raw
    rollout.  Both tag players at x = 1e200 overflow the boundary penalty
    there, and the solve is marked aborted without numpy's overflow
    warning."""
    game = make_game(ExperimentConfig(scenario="tag"))
    thetas = [init_policy(game, i, ACTIVE, seed=i, hidden=(8,)) for i in range(2)]
    pset = init_particles(game, 4, 1, np.random.default_rng(23))
    pset.states[:, [0, 4]] = 1e200
    res = calc_eq(game, pset, thetas, _cold(thetas), np.random.default_rng(25),
                  eps_tol=1e-3, max_iters=0, k_batch=2)
    assert res.iterations == 0
    assert res.aborted
    assert not res.converged


def test_soft_min_underflow_aborts_the_solve():
    """Far from every obstacle, the sight line's soft-min sum underflows to 0.
    Its log is -inf on the tape, so calc_eq records an abort instead of
    letting an error escape."""
    game = make_game(ExperimentConfig(scenario="hideseek"))
    thetas = [init_policy(game, i, ACTIVE, seed=i, hidden=(8,)) for i in range(2)]
    pset = init_particles(game, 4, 1, np.random.default_rng(23))
    pset.states[:, 0:2] = (80.0, 0.0)    # pursuer
    pset.states[:, 4:6] = (80.0, 3.0)    # evader
    res = calc_eq(game, pset, thetas, _cold(thetas), np.random.default_rng(25),
                  eps_tol=1e-3, max_iters=3, k_batch=2)
    assert res.aborted
    assert not res.converged


def test_expected_cost_gradient_matches_finite_differences():
    game = single_quadratic()
    pset = init_particles(game, 1, 1, np.random.default_rng(9))
    thetas = _policies(game, hidden=(4,))
    batch = evaluation_batch(game, pset, 1, np.random.default_rng(10))

    cost, grad = expected_cost(game, pset, thetas, 0, k_batch=1,
                               rng=np.random.default_rng(11))
    flat = thetas[0].flat
    h = 1e-6
    worst = 0.0
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = eval_cost(game, pset, thetas, [0], batch)[0]
        flat[j] = orig - h
        dn = eval_cost(game, pset, thetas, [0], batch)[0]
        flat[j] = orig
        num = (up - dn) / (2 * h)
        worst = max(worst, abs(grad[j] - num) / (abs(grad[j]) + abs(num) + 1e-12))
    assert worst < 1e-4


def _rollout_program(game, seed, k=3):
    """A whole-rollout cost as a function of one focal player's flat
    parameters: random reachable states, windows, noise and small policies,
    a mix of active and passive modes.  Yields (cost function, point)."""
    rng = np.random.default_rng(seed)
    modes = [ACTIVE if (i + seed) % 3 else PASSIVE for i in range(game.n_players)]
    thetas = [init_policy(game, i, modes[i], seed=10 * seed + i, hidden=(6,))
              for i in range(game.n_players)]
    scale = 0.4 if isinstance(game, WarehouseGame) else 1.5
    state = [(rng.normal(size=(k, 2)) * scale, rng.uniform(-0.9, 0.9, size=(k, 2)) * v)
             for v in game.v_max]
    hists = [rng.normal(scale=0.5, size=(k, game.t_past * game.obs_dim(i)))
             for i in range(game.n_players)]
    eps = draw_noise(game, k, rng)
    for focal in range(game.n_players):
        def cost(flat, focal=focal):
            trial = list(thetas)
            trial[focal] = replace(thetas[focal], flat=flat)
            return _run_rollout(game, state, hists, trial, eps, [focal])[focal]

        yield cost, thetas[focal].flat


@pytest.mark.parametrize("name", ["tag", "tagchain", "hideseek", "warehouse"])
def test_rollout_gradient_taylor_remainder(name):
    """The tape gradient g of a whole rollout's cost is its derivative: along
    random unit directions v, the first-order Taylor remainder
    ``|f(x + h v) - f(x) - h g.v|`` falls as O(h^2) (Farrell, Ham, Funke &
    Rognes, SIAM J. Sci. Comput. 2013): over h halving from 1e-3, its rate
    over the two finest halvings exceeds 1.9.  A wrong adjoint leaves an
    O(h) term, and the rate drops towards 1.  Unlike a per-coordinate
    finite-difference score, the test does not judge near-zero coordinates
    on rounding."""
    game = make_game(ExperimentConfig(scenario=name, t_past=2, t_future=4))
    steps = 1e-3 * 0.5 ** np.arange(6)
    rng = np.random.default_rng(40)
    for seed in range(2):
        for cost, x in _rollout_program(game, seed):
            tape = ag.Tape()
            leaf = tape.param(x)
            root = cost(leaf)
            tape.backward(root)
            for _ in range(2):
                v = rng.normal(size=x.shape)
                v /= np.linalg.norm(v)
                slope = leaf.grad @ v
                rem = np.array([abs(float(cost(x + h * v)) - float(root.value) - h * slope)
                                for h in steps])
                rates = np.log2(rem[:-1] / rem[1:])
                assert rates[-2:].min() > 1.9, f"convergence rates {np.round(rates, 2)}"


def test_expected_cost_deterministic_given_stream():
    game = make_game(ExperimentConfig(scenario="tag"))
    pset = init_particles(game, 32, 1, np.random.default_rng(12))
    thetas = _policies(game, hidden=(8, 8))
    c1, g1 = expected_cost(game, pset, thetas, 0, 4, np.random.default_rng(13))
    c2, g2 = expected_cost(game, pset, thetas, 0, 4, np.random.default_rng(13))
    assert c1 == c2
    np.testing.assert_array_equal(g1, g2)


def test_expected_cost_touches_only_named_player():
    game = two_player_quadratic()
    pset = init_particles(game, 2, 1, np.random.default_rng(14))
    thetas = _policies(game, hidden=(4,))
    before = [th.flat.copy() for th in thetas]
    _, grad = expected_cost(game, pset, thetas, 0, 2, np.random.default_rng(15))
    # returned gradient aligns with player 0's parameters, and the call is pure
    assert grad.shape == thetas[0].flat.shape
    for th, saved in zip(thetas, before):
        np.testing.assert_array_equal(th.flat, saved)


def test_cost_scaling_rescales_gradient_proportionally():
    """Scaling one player's reward by kappa scales its gradient by kappa, so
    the stationary points of the objective are unchanged."""
    kappa = 3.7

    def base(state):
        return ag.affine(rc.square(rc.affine(state[0][0], 1.0, -2.0)), -1.0)

    def scaled(state):
        return ag.affine(base(state), kappa)

    from conftest import QuadraticGame

    g1 = QuadraticGame([base])
    g2 = QuadraticGame([scaled])
    pset = init_particles(g1, 1, 1, np.random.default_rng(16))
    thetas = _policies(g1, hidden=(4,))
    _, grad1 = expected_cost(g1, pset, thetas, 0, 1, np.random.default_rng(17))
    _, grad2 = expected_cost(g2, pset, thetas, 0, 1, np.random.default_rng(17))
    np.testing.assert_allclose(grad2, kappa * grad1, rtol=1e-9)


# ---------------------------------------------------------------------------
# calc_eq
# ---------------------------------------------------------------------------

def _final_action(game, theta):
    hist = np.zeros((1, theta.shapes[0][1]))
    return float(policy_forward(theta, hist)[0, 0])


def test_calc_eq_single_player_reaches_optimum():
    game = single_quadratic()
    rng = np.random.default_rng(18)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, _cold(thetas, lr=0.05), rng, eps_tol=0.0,
                  max_iters=500, k_batch=2)
    assert res.iterations <= 500
    assert abs(_final_action(game, res.thetas[0]) - 2.0) < 1e-2
    cost, = eval_cost(game, pset, res.thetas, [0], evaluation_batch(game, pset, 2, rng))
    assert abs(cost) < 1e-3
    assert len(res.cost_trace[0]) == res.iterations
    assert len(res.grad_step_seconds) == res.iterations


def test_calc_eq_two_player_nash():
    game = two_player_quadratic()
    rng = np.random.default_rng(19)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, _cold(thetas, lr=0.05), rng, eps_tol=0.0,
                  max_iters=500, k_batch=2)
    a1 = _final_action(game, res.thetas[0])
    a2 = _final_action(game, res.thetas[1])
    assert abs(a1 - 1.0 / 1.1) < 1e-2
    assert abs(a2 - 1.0) < 1e-2


def test_calc_eq_converged_flag_and_warm_start():
    game = single_quadratic()
    rng = np.random.default_rng(20)
    pset = init_particles(game, 4, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, _cold(thetas, lr=0.05), rng, eps_tol=1e-4,
                  max_iters=2000, k_batch=2)
    assert res.converged
    assert res.iterations < 2000
    # warm start from the solution: immediately flat
    res2 = calc_eq(game, pset, res.thetas, res.adam_states, rng, eps_tol=1e-3,
                   max_iters=50, k_batch=2)
    assert res2.iterations <= 10
    assert abs(_final_action(game, res2.thetas[0]) - 2.0) < 0.05


@pytest.mark.parametrize("k_batch", [0, -1])
def test_calc_eq_rejects_an_empty_batch_before_any_draw(k_batch):
    game = single_quadratic()
    pset = init_particles(game, 4, 1, np.random.default_rng(28))
    thetas = _policies(game, hidden=(4,))
    rng = np.random.default_rng(29)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="k_batch must be at least 1"):
        calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=1e-3, max_iters=3,
                k_batch=k_batch)
    assert rng.bit_generator.state == before


def test_calc_eq_never_writes_into_its_warm_start():
    """The caller's policies, Adam states and their lists come back as they
    went in; a policy and Adam state that no step updated come back as the
    objects passed in."""
    game = make_game(ExperimentConfig(scenario="tag", t_past=2, t_future=2))
    thetas = [init_policy(game, 0, PASSIVE, seed=1, hidden=(4,)),
              init_policy(game, 1, ACTIVE, seed=2, hidden=(4,))]
    states = _cold(thetas)
    pset = init_particles(game, 16, 1, np.random.default_rng(30))
    arrays = [a for th, st in zip(thetas, states) for a in (th.flat, st.m, st.v)]
    before = [a.tobytes() for a in arrays]
    given = thetas + states
    res = calc_eq(game, pset, thetas, states, np.random.default_rng(31), eps_tol=1e-3,
                  max_iters=3, k_batch=4)
    assert res.adam_states[0].step == 3
    assert [a.tobytes() for a in arrays] == before
    assert len(thetas + states) == 4 and all(a is b for a, b in zip(thetas + states, given))
    idle = calc_eq(game, pset, thetas, states, np.random.default_rng(31), eps_tol=1e-3,
                   max_iters=0, k_batch=4)
    assert all(a is b for a, b in zip(idle.thetas + idle.adam_states, thetas + states))


def _exploding(state):
    with np.errstate(divide="ignore"):
        return rc.div(rc.affine(state[0][0], 0.0, 1.0), ag.affine(state[0][0], 0.0))  # 1 / 0


def test_calc_eq_survives_nonfinite_costs():
    from conftest import QuadraticGame

    game = QuadraticGame([_exploding])
    rng = np.random.default_rng(21)
    pset = init_particles(game, 2, 1, rng)
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=1e-3, max_iters=5, k_batch=1)
    assert res.aborted
    assert not res.converged


def test_calc_eq_aborts_on_nonfinite_evaluation(monkeypatch):
    """A solve whose gradient play converged but whose final evaluation cost
    is not finite is marked aborted and not converged; it keeps its steps."""
    game = single_quadratic()
    rng = np.random.default_rng(27)
    pset = init_particles(game, 4, 1, rng)
    monkeypatch.setattr(solver, "eval_cost",
                        lambda game, pset, thetas, players, batch: [np.nan] * len(players))
    thetas = _policies(game, hidden=(4,))
    res = calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=np.inf, max_iters=3, k_batch=2)
    assert res.iterations == 1   # every gradient passes an infinite tolerance
    assert res.aborted
    assert not res.converged
    assert res.adam_states[0].step == 1
    assert not np.array_equal(res.thetas[0].flat, thetas[0].flat)


def test_calc_eq_counts_skipped_adam_steps():
    """A finite rollout with a non-finite gradient skips the update, without
    aborting; the Adam step count counts only the updates made."""
    def kinked(state):
        return rc.sqrt(ag.affine(state[0][0], 0.0))  # value 0, slope 1/0

    from conftest import QuadraticGame

    game = QuadraticGame([kinked])
    rng = np.random.default_rng(22)
    pset = init_particles(game, 2, 1, rng)
    thetas = _policies(game, hidden=(4,))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=1e-3, max_iters=5,
                      k_batch=1)
    assert not res.aborted
    assert not res.converged
    assert res.iterations > 0
    assert res.adam_states[0].step == 0   # every update skipped
    np.testing.assert_array_equal(thetas[0].flat, res.thetas[0].flat)

    clean = calc_eq(single_quadratic(), pset, thetas, _cold(thetas), rng, eps_tol=1e-3,
                    max_iters=5, k_batch=1)
    assert clean.adam_states[0].step == clean.iterations   # none skipped


class _Broken(Exception):
    pass


def _raising(state):
    raise _Broken


@pytest.mark.parametrize("gc_on", [True, False])
@pytest.mark.parametrize("ending", ["returns", "aborts", "raises"])
def test_calc_eq_restores_collector_state(gc_on, ending):
    """The collector is paused inside a solve and left as the caller had it,
    whether the solve returns, aborts or raises."""
    from conftest import QuadraticGame

    game = {"returns": single_quadratic(), "aborts": QuadraticGame([_exploding]),
            "raises": QuadraticGame([_raising])}[ending]
    rng = np.random.default_rng(26)
    pset = init_particles(game, 2, 1, rng)
    thetas = _policies(game, hidden=(4,))
    seen = []
    real = solver.expected_cost

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    was = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "expected_cost", spy)
            if ending == "raises":
                with pytest.raises(_Broken):
                    calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=1e-3,
                            max_iters=3, k_batch=1)
            else:
                res = calc_eq(game, pset, thetas, _cold(thetas), rng, eps_tol=1e-3,
                              max_iters=3, k_batch=1)
                assert res.aborted == (ending == "aborts")
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)
    assert after == gc_on


# ---------------------------------------------------------------------------
# recorded behaviour
# ---------------------------------------------------------------------------

CALC_EQ_TAG = os.path.join(os.path.dirname(__file__), "data", "calc_eq_tag.npz")


def _calc_eq_tag_arrays():
    """A seeded 20-iteration tag solve and a 2-step episode at the same
    setting (passive pursuer, active evader, hidden (8, 8), k_batch 10), as
    named arrays: final parameters, Adam moments and iteration count of the
    solve; per-step states, actions and iteration counts of the episode.
    Parameters and moments are split into the per-layer keys recorded
    before policies had one flat vector: weights then bias, layer by layer."""
    game = make_game(ExperimentConfig(scenario="tag"))
    modes = [PASSIVE, ACTIVE]
    thetas = [init_policy(game, i, modes[i], seed=30 + i, hidden=(8, 8)) for i in range(2)]
    pset = init_particles(game, 200, 1, np.random.default_rng(31))
    res = calc_eq(game, pset, thetas, _cold(thetas), np.random.default_rng(32),
                  eps_tol=1e-3, max_iters=20, k_batch=10)
    out = {"solve/iterations": np.array(res.iterations)}
    for i, theta in enumerate(res.thetas):
        state = res.adam_states[i]
        for key, flat in ((f"theta{i}", theta.flat), (f"m{i}", state.m), (f"v{i}", state.v)):
            weights, biases = ag.layer_views(flat, theta.shapes)
            leaves = [a for w, b in zip(weights, biases) for a in (w, b)]
            for j, leaf in enumerate(leaves):
                out[f"solve/{key}/{j}"] = leaf

    opts = episode_options(ExperimentConfig(episode_steps=2, k_all=200, k_batch=10,
                                            max_iters=20, hidden=(8, 8)), modes)
    record = run_episode(game, opts, seed=33)
    for s in record.steps:
        out[f"episode/{s.step}/state"] = s.state
        for i, a in enumerate(s.actions):
            out[f"episode/{s.step}/action{i}"] = a
        out[f"episode/{s.step}/iterations"] = np.array(s.solve_iterations)
    return out


def test_calc_eq_and_episode_match_recorded_values():
    """Parameters, Adam moments, iteration counts, states and actions are
    bit for bit those recorded in ``tests/data/calc_eq_tag.npz`` (written by
    ``np.savez(CALC_EQ_TAG, **_calc_eq_tag_arrays())``)."""
    got = _calc_eq_tag_arrays()
    with np.load(CALC_EQ_TAG) as rec:
        assert sorted(rec.files) == sorted(got)
        for key, value in got.items():
            want = rec[key]
            assert value.shape == want.shape, key
            assert value.tobytes() == want.tobytes(), key


HIDESEEK_STEPS = os.path.join(os.path.dirname(__file__), "data", "hideseek_steps.npz")


def _hideseek_step_arrays():
    """Costs and gradients of seeded hideseek ``expected_cost`` calls, as
    named arrays: for each mode pair (both active, either one passive) and
    each player, three calls on one stream.  The 300-particle cloud has
    random velocities and windows; a few rows put the two players on one
    spot or a player on an obstacle centre."""
    game = make_game(ExperimentConfig(scenario="hideseek"))
    rng = np.random.default_rng(40)
    pset = init_particles(game, 300, 1, rng)
    state = game.unpack_state(pset.states)
    for pos, vel in state:
        vel[...] = rng.normal(scale=0.2, size=vel.shape)
    state[1][0][:5] = state[0][0][:5]                          # coincident players
    state[0][0][5:8] = np.asarray(game.config.obstacles[0][:2])  # on an obstacle centre
    state[1][0][8:10] = np.asarray(game.config.obstacles[1][:2])
    for h in pset.hists:
        h[...] = rng.normal(scale=1.5, size=h.shape)
    out = {}
    for modes in ((ACTIVE, ACTIVE), (PASSIVE, ACTIVE), (ACTIVE, PASSIVE)):
        thetas = [init_policy(game, i, modes[i], seed=41 + i, hidden=(8, 8)) for i in range(2)]
        tag = "".join(m[0] for m in modes)
        for player in range(2):
            stream = np.random.default_rng(42 + player)
            for call in range(3):
                cost, grad = expected_cost(game, pset, thetas, player, 40, stream)
                out[f"{tag}/{player}/{call}/cost"] = np.array(cost)
                out[f"{tag}/{player}/{call}/grad"] = grad
    return out


def test_hideseek_steps_match_recorded_values():
    """HideSeek costs and gradients are bit for bit those recorded in
    ``tests/data/hideseek_steps.npz`` (written by
    ``np.savez(HIDESEEK_STEPS, **_hideseek_step_arrays())``)."""
    got = _hideseek_step_arrays()
    with np.load(HIDESEEK_STEPS) as rec:
        assert sorted(rec.files) == sorted(got)
        for key, value in got.items():
            want = rec[key]
            assert value.shape == want.shape, key
            assert value.tobytes() == want.tobytes(), key
