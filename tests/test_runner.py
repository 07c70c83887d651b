"""Receding-horizon loop: act semantics, episode bookkeeping, determinism."""

import copy

import numpy as np
import pytest
import refchain as rc
from conftest import QuadraticGame

from pogplan import adgraph as ag
from pogplan import runner
from pogplan.beliefs import init_particles, update_particles
from pogplan.config import ExperimentConfig
from pogplan.policy import ACTIVE, PASSIVE, init_policy
from pogplan.runner import (
    Candidate,
    EpisodeOptions,
    act,
    make_agent,
    plan,
    run_episode,
)
from pogplan.scenarios import ScenarioConfig, make_game


def _zero_policies(game, mode=ACTIVE):
    thetas = [init_policy(game, i, mode, seed=i, hidden=(4,)) for i in range(game.n_players)]
    for th in thetas:
        th.flat[:] = 0.0
    return thetas


class _ZeroNoise:
    def standard_normal(self, shape):
        return np.zeros(shape)


def _rest_world(game, seed=0):
    """The one-row world cloud and the generator it was drawn from."""
    rng = np.random.default_rng(seed)
    return init_particles(game, 1, 1, rng), rng


def test_act_zero_action_from_rest_keeps_positions():
    game = make_game(ScenarioConfig(scenario="tag"))
    world, rng = _rest_world(game)
    before = world.states.copy()
    obs, actions = act(world, game, _zero_policies(game), rng)
    for a in actions:
        np.testing.assert_array_equal(a, 0.0)
    np.testing.assert_allclose(world.states, before, atol=1e-12)  # started at rest


def test_act_zero_noise_observations_are_deterministic():
    game = make_game(ScenarioConfig(scenario="tag"))
    world, _ = _rest_world(game, seed=1)
    state = game.unpack_state(world.states.copy())
    expected = [np.asarray(game.observe(state, i, np.zeros((1, 2)))) for i in range(2)]
    obs, _ = act(world, game, _zero_policies(game), _ZeroNoise())
    for z, e in zip(obs, expected):
        np.testing.assert_array_equal(z, e)
    # the pushed window ends with exactly that observation
    for i, w in enumerate(world.hists):
        np.testing.assert_array_equal(w[:, -game.obs_dim(i):], obs[i])


def test_act_passive_policy_reads_prepush_window():
    game = make_game(ScenarioConfig(scenario="tag"))
    thetas = _zero_policies(game, mode=PASSIVE)
    # bias the first action block via the output bias: action = scale*tanh(b)
    ag.layer_views(thetas[0].flat, thetas[0].shapes)[1][-1][0] = 0.5
    world, rng = _rest_world(game, seed=2)
    world.hists[0][:] = 1.0  # pre-push content
    obs, actions = act(world, game, thetas, rng)
    # zero first-layer weights make the action depend only on biases, so this
    # mostly checks the passive path executes with the frozen window
    expected = game.action_scale(0) * np.tanh(0.5)
    np.testing.assert_allclose(actions[0][0, 0], expected, rtol=1e-12)


@pytest.mark.parametrize("name", ["tag", "tagchain", "hideseek", "warehouse"])
def test_act_is_the_open_loop_update_of_a_one_row_cloud(name):
    """The world's round step and a belief's unconditioned update are one
    step: from the same cloud and the same generator state they leave
    byte-equal states and windows."""
    game = make_game(ScenarioConfig(scenario=name))
    rng = np.random.default_rng(40)
    world = init_particles(game, 1, 1, rng)
    for pos, vel in game.unpack_state(world.states):
        vel[...] = rng.normal(scale=0.3, size=vel.shape)
    for h in world.hists:
        h[...] = rng.normal(scale=0.5, size=h.shape)
    thetas = [init_policy(game, i, (PASSIVE, ACTIVE)[i % 2], seed=41 + i, hidden=(8,))
              for i in range(game.n_players)]
    belief = copy.deepcopy(world)
    act(world, game, thetas, np.random.default_rng(42))
    update_particles(belief, game, thetas, None, 0, 0.0, np.random.default_rng(42))
    for got, want in [(world.states, belief.states), *zip(world.hists, belief.hists)]:
        assert got.tobytes() == want.tobytes()


def test_act_returns_the_exactly_seen_position_before_the_transition():
    """Warehouse player 0 sees its own position exactly; the observation
    ``act`` returns is that position before the world moved, not a view of
    the state it advanced in place."""
    game = make_game(ScenarioConfig(scenario="warehouse"))
    world, rng = _rest_world(game, seed=3)
    thetas = [init_policy(game, i, ACTIVE, seed=43 + i, hidden=(4,))
              for i in range(game.n_players)]
    for th in thetas:
        ag.layer_views(th.flat, th.shapes)[1][-1][:] = 0.5   # every action nonzero
    before = game.unpack_state(world.states.copy())[0][0]
    obs, _ = act(world, game, thetas, rng)
    np.testing.assert_array_equal(obs[0], before)
    assert not np.array_equal(game.unpack_state(world.states)[0][0], before)


def _fast_opts(**kw):
    base = dict(brain="shared", episode_steps=4, k_all=40, k_batch=3,
                max_iters=2, hidden=(4,), lr=0.01)
    base.update(kw)
    return EpisodeOptions(config=ExperimentConfig(**base))


def test_options_check_brain_before_counting_candidates():
    game = make_game(ScenarioConfig(scenario="tag"))
    with pytest.raises(ValueError, match="unknown brain mode 'Separate'"):
        _fast_opts(brain="Separate", n_eq=(1, 2, 3)).resolved(game)
    with pytest.raises(ValueError, match="need 2 n_eq entries, got 3"):
        _fast_opts(brain="separate", n_eq=(1, 2, 3)).resolved(game)
    # one entry applies to every agent
    assert _fast_opts(brain="separate", n_eq=(2,)).resolved(game) == ([ACTIVE, ACTIVE], [2, 2])
    assert _fast_opts(n_eq=(3,)).resolved(game) == ([ACTIVE, ACTIVE], [3])


def test_episode_bookkeeping_and_cost_sign():
    game = make_game(ScenarioConfig(scenario="tag", t_past=3, t_future=3))
    record = run_episode(game, _fast_opts(episode_steps=6), seed=5)
    assert len(record.steps) == 6
    assert not record.aborted
    for s in record.steps:
        assert len(s.rewards_report) == 2
        assert np.isfinite(s.rewards_report).all()
    # zero-sum game: reported episode costs mirror each other
    np.testing.assert_allclose(record.episode_cost(0), -record.episode_cost(1),
                               rtol=1e-9)
    assert len(record.grad_step_times()) > 0
    # first-step traces captured for every agent and candidate
    assert len(record.first_traces) == 1
    assert len(record.first_traces[0]) == 1


def test_episode_determinism():
    game = make_game(ScenarioConfig(scenario="tag", t_past=3, t_future=3))
    a = run_episode(game, _fast_opts(), seed=9)
    b = run_episode(game, _fast_opts(), seed=9)
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.state, sb.state)
        for xa, xb in zip(sa.actions, sb.actions):
            np.testing.assert_array_equal(xa, xb)
        assert sa.rewards_report == sb.rewards_report
        for key in sa.surprisal:
            assert sa.surprisal[key] == sb.surprisal[key]
    c = run_episode(game, _fast_opts(), seed=10)
    assert not np.array_equal(a.steps[0].state, c.steps[0].state)


def test_separate_brains_with_common_seeds_stay_identical(monkeypatch):
    game = make_game(ScenarioConfig(scenario="tag", t_past=3, t_future=3))
    opts = _fast_opts(brain="separate", gamma=0.0, episode_steps=4)
    make_agent = runner.make_agent
    monkeypatch.setattr(runner, "make_agent", lambda game, player, opts, seed_seq:
                        make_agent(game, player, opts, np.random.SeedSequence(123)))
    record = run_episode(game, opts, seed=11)
    for s in record.steps:
        for j in range(2):
            np.testing.assert_array_equal(s.belief_means[(0, j)],
                                          s.belief_means[(1, j)])


def test_separate_brain_consumes_only_own_observation():
    calls = []

    class Spy(type(make_game(ScenarioConfig(scenario="tag")))):
        def obs_logdensity(self, state, player, obs):
            calls.append(player)
            return super().obs_logdensity(state, player, obs)

    game = Spy(ScenarioConfig(scenario="tag", t_past=2, t_future=2))
    opts = _fast_opts(brain="separate", gamma=1.0, episode_steps=2,
                      max_iters=1, k_all=20)
    run_episode(game, opts, seed=13)
    # each agent's density queries are for its own observation stream only,
    # and per step agent 0 is updated before agent 1
    assert calls == [0, 1, 0, 1]


def test_plan_single_candidate_matches_calc_eq():
    from pogplan.solver import calc_eq

    game = make_game(ScenarioConfig(scenario="tag", t_past=2, t_future=2))
    ss = np.random.SeedSequence(17)
    opts = _fast_opts(k_all=30, k_batch=3)
    agent = make_agent(game, -1, opts, ss)
    thetas_before = [t.copy() for t in agent.candidates[0].thetas]
    states_before = [s.copy() for s in agent.candidates[0].adam_states]

    clone = copy.deepcopy(agent.solver_rng)
    results = plan(agent, game, opts, iters=3)
    direct = calc_eq(game, agent.pset, thetas_before, clone, eps_tol=opts.config.eps_tol,
                     max_iters=3, k_batch=3, lr=0.01, adam_states=states_before)
    assert results[0].costs == direct.costs
    for a, b in zip(results[0].thetas, direct.thetas):
        np.testing.assert_array_equal(a.flat, b.flat)


def test_two_candidates_reach_distinct_stationary_points():
    """Symmetric double-well cost: candidates from different seeds settle on
    different optima, and both are stationary."""

    def double_well(state):
        return ag.affine(rc.square(ag.affine(rc.square(state[0][0]), 1.0, -1.0)), -1.0, 0.0)

    game = QuadraticGame([double_well])
    ss = np.random.SeedSequence(23)
    opts = EpisodeOptions(config=ExperimentConfig(k_all=8, n_eq=(2,), hidden=(4,), lr=0.05,
                                                  k_batch=2, eps_tol=0.0))
    agent = make_agent(game, -1, opts, ss)
    # zero-width inputs start every net at the exact saddle a = 0; nudge the
    # output biases apart the way real observation inputs would
    for cand, nudge in zip(agent.candidates, (0.05, -0.05)):
        theta = cand.thetas[0]
        ag.layer_views(theta.flat, theta.shapes)[1][-1][0] = nudge
    plan(agent, game, opts, iters=400)

    from pogplan.policy import policy_forward
    from pogplan.solver import expected_cost

    actions = []
    for cand in agent.candidates:
        a = float(policy_forward(cand.thetas[0], np.zeros((1, 0)))[0, 0])
        actions.append(a)
        assert abs(abs(a) - 1.0) < 0.05  # at one of the two optima
        _, grad = expected_cost(game, agent.pset, cand.thetas, 0, 2,
                                np.random.default_rng(0))
        assert np.max(np.abs(grad), initial=0.0) < 0.05  # stationary
    assert actions[0] * actions[1] < 0  # distinct equilibria here


def test_episode_abort_flag_on_nonfinite():
    def exploding(state):
        with np.errstate(divide="ignore", invalid="ignore"):
            return rc.div(ag.affine(state[0][0], 0.0, 1.0),
                          ag.affine(state[0][0], 0.0, 0.0))

    game = QuadraticGame([exploding])
    opts = EpisodeOptions(config=ExperimentConfig(brain="shared", episode_steps=3, k_all=8,
                                                  k_batch=2, max_iters=2, hidden=(4,)))
    record = run_episode(game, opts, seed=29)
    assert record.aborted
    assert len(record.steps) < 3


def test_particle_dump_closed_when_episode_raises(tmp_path, monkeypatch):
    from pogplan import runner

    opened = []

    def failing_dump(pset, game, fh, step, agent=-1):
        opened.append(fh)
        raise RuntimeError("dump failed")

    monkeypatch.setattr(runner, "dump_particles", failing_dump)
    game = make_game(ScenarioConfig(scenario="tag"))
    opts = EpisodeOptions(config=ExperimentConfig(brain="shared", episode_steps=2, k_all=8,
                                                  k_batch=2, max_iters=1, hidden=(4,)),
                          particle_dump=str(tmp_path / "cloud.txt"))
    with pytest.raises(RuntimeError, match="dump failed"):
        run_episode(game, opts, seed=31)
    assert len(opened) == 1 and opened[0].closed
