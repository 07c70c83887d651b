"""Scenario contracts: rewards, observation models, initial distributions."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
import refchain as rc

from pogplan import adgraph as ag
from pogplan.adgraph import Tape, grad_check
from pogplan.beliefs import (
    ParticleSet,
    advance_particles,
    init_particles,
    round_robin_partition,
    update_particles,
)
from pogplan.experiments import modes_for_combo
from pogplan.policy import ACTIVE, PASSIVE, init_policy
from pogplan.scenarios import (
    SMOOTHMIN_TEMP,
    HideSeekGame,
    ScenarioConfig,
    TagGame,
    WarehouseGame,
    group_names,
    make_game,
    mode_groups,
    sample_tasks,
)
from pogplan.solver import _run_rollout, draw_noise, expected_cost


def _state(game, rng, k=1, spread=2.0):
    """Random joint state with nonzero velocities for observation tests."""
    state = game.sample_initial(rng, k)
    return [(pos + rng.normal(scale=0.1, size=pos.shape),
             rng.normal(scale=0.2 * spread, size=vel.shape))
            for pos, vel in state]


def test_make_game_dispatch_and_validation():
    assert isinstance(make_game(ScenarioConfig(scenario="tag")), TagGame)
    chain = make_game(ScenarioConfig(scenario="tagchain"))
    assert isinstance(chain, TagGame) and chain.n_players == 4
    assert isinstance(make_game(ScenarioConfig(scenario="hideseek")), HideSeekGame)
    assert isinstance(make_game(ScenarioConfig(scenario="warehouse")), WarehouseGame)
    with pytest.raises(ValueError):
        make_game(ScenarioConfig(scenario="poker"))
    with pytest.raises(ValueError):
        make_game(ScenarioConfig(scenario="tagchain", chain_players=3))
    for players in (0, -2):
        with pytest.raises(ValueError, match="chain_players must be even and >= 2"):
            make_game(ScenarioConfig(scenario="tagchain", chain_players=players))
    # the two-spawn start places two players: tagchain rejects it
    with pytest.raises(ValueError, match="spawn_mode"):
        make_game(ScenarioConfig(scenario="tagchain", spawn_mode=True))
    with pytest.raises(ValueError):
        make_game(ScenarioConfig(scenario="hideseek", obstacles=((4.9, 0.0, 0.5),)))
    with pytest.raises(ValueError):
        make_game(ScenarioConfig(scenario="warehouse", wh_alpha=-1.0))
    # a zero-width window cannot shift; t_future = 0 stays a valid horizon
    with pytest.raises(ValueError, match="t_past"):
        make_game(ScenarioConfig(scenario="tag", t_past=0))
    with pytest.raises(ValueError, match="t_future"):
        make_game(ScenarioConfig(scenario="tag", t_future=-1))
    assert make_game(ScenarioConfig(scenario="tag", t_past=1, t_future=0)).t_future == 0


# ---------------------------------------------------------------------------
# Tag
# ---------------------------------------------------------------------------

def test_tag_rewards_zero_sum_and_values():
    game = make_game(ScenarioConfig(scenario="tag"))
    # coincident players: distance term vanishes (up to the norm epsilon)
    both = [(np.array([[0.7, -0.3]]), np.zeros((1, 2)))] * 2
    assert abs(game.reward_report(both, 0).item()) < 1e-4
    assert abs(game.reward_report(both, 1).item()) < 1e-4

    # distance 3, both interior: reported rewards are exactly (-3, +3)
    state = [(np.array([[1.5, 0.0]]), np.zeros((1, 2))),
             (np.array([[-1.5, 0.0]]), np.zeros((1, 2)))]
    np.testing.assert_allclose(game.reward_report(state, 0).item(), -3.0, atol=1e-6)
    np.testing.assert_allclose(game.reward_report(state, 1).item(), 3.0, atol=1e-6)

    # zero-sum identity excluding boundary terms at 10,000 random states
    rng = np.random.default_rng(0)
    state = _state(game, rng, k=10_000)
    total = game.reward_report(state, 0) + game.reward_report(state, 1)
    assert np.max(np.abs(total)) < 1e-9

    # full reward subtracts each player's own boundary penalty
    out = [(np.array([[7.0, 0.0]]), np.zeros((1, 2))),
           (np.array([[0.0, 0.0]]), np.zeros((1, 2)))]
    assert game.reward(out, 0).item() < game.reward_report(out, 0).item() - 1.0


def test_tag_observation_layout_and_own_state_exact():
    game = make_game(ScenarioConfig(scenario="tag"))
    assert game.obs_dim(0) == 6 and game.noise_dim(0) == 2
    rng = np.random.default_rng(1)
    state = _state(game, rng)
    for player in (0, 1):
        z = game.observe(state, player, rng.normal(size=(1, 2)))
        assert z.shape == (1, 6)
        np.testing.assert_array_equal(z[:, 0:2], state[player][0])
        np.testing.assert_array_equal(z[:, 2:4], state[player][1])
        assert np.all(np.abs(z[:, 4:6]) <= game.config.play_radius)


def test_tag_initial_sampling():
    cfg = ScenarioConfig(scenario="tag")
    game = make_game(cfg)
    a = game.sample_initial(np.random.default_rng(3), 4)
    b = game.sample_initial(np.random.default_rng(3), 4)
    for (pa, va), (pb, vb) in zip(a, b):
        np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(va, 0.0)

    # two-spawn mode: pursuer at east/west with equal probability
    spawn_cfg = ScenarioConfig(scenario="tag", spawn_mode=True)
    spawn_game = make_game(spawn_cfg)
    draws = spawn_game.sample_initial(np.random.default_rng(4), 10_000)
    pursuer = draws[0][0]
    east = np.mean(np.all(pursuer == np.asarray(spawn_cfg.spawn_east), axis=1))
    west = np.mean(np.all(pursuer == np.asarray(spawn_cfg.spawn_west), axis=1))
    assert east + west == 1.0
    assert abs(east - 0.5) < 0.02  # binomial: 3 sigma ~ 0.015 at n=10,000
    np.testing.assert_array_equal(draws[1][0], np.tile(spawn_cfg.evader_start, (10_000, 1)))


# ---------------------------------------------------------------------------
# tagchain: chains of four players
# ---------------------------------------------------------------------------

def test_chain_reward_structure():
    game = make_game(ScenarioConfig(scenario="tagchain", chain_players=4))
    assert game.n_players == 4
    assert game.obs_dim(0) == 4 + 2 * 3 and game.noise_dim(0) == 6

    rng = np.random.default_rng(5)
    coincident = [(np.array([[0.4, 0.4]]), np.zeros((1, 2)))] * 4
    for player in range(4):
        assert abs(game.reward_report(coincident, player).item()) < 1e-4

    # E1 (player 2) flees P2 (player 1): perturbing P1 leaves its reward unchanged
    state = _state(game, rng)
    base = game.reward_report(state, 2).item()
    moved = [list(block) for block in state]
    moved[0] = (state[0][0] + 1.7, state[0][1])
    assert game.reward_report([tuple(b) for b in moved], 2).item() == base
    # ... while perturbing P2 changes it
    moved2 = [list(block) for block in state]
    moved2[1] = (state[1][0] + 1.7, state[1][1])
    assert game.reward_report([tuple(b) for b in moved2], 2).item() != base


def test_chain_cross_gradient_zero():
    # P1's reward has no dependence on E2's position
    game = make_game(ScenarioConfig(scenario="tagchain"))
    rng = np.random.default_rng(6)
    state_np = _state(game, rng)
    tape = Tape()
    state = [(tape.param(p), tape.param(v)) for p, v in state_np]
    tape.backward(ag.asum(game.reward(state, 0)))
    np.testing.assert_array_equal(state[3][0].grad, 0.0)
    assert np.any(state[2][0].grad != 0.0)  # its own quarry does matter


# ---------------------------------------------------------------------------
# HideSeek
# ---------------------------------------------------------------------------

def test_hideseek_clear_sightline_matches_plain_fov():
    cfg = ScenarioConfig(scenario="hideseek", obstacles=((0.0, 3.5, 0.5),))
    game = make_game(cfg)
    plain = make_game(ScenarioConfig(scenario="tag"))
    # observer and target on the x axis, obstacle far above the sight line
    state = [(np.array([[-1.0, 0.0]]), np.array([[0.2, 0.0]])),
             (np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))]
    v_occ = game._pair_variance(state, 0, 1).item()
    v_plain = plain._pair_variance(state, 0, 1).item()
    assert abs(v_occ - v_plain) < 1e-6


def test_hideseek_through_center_occlusion_scale():
    r = 1.5
    cfg = ScenarioConfig(scenario="hideseek", obstacles=((0.0, 0.0, r),))
    game = make_game(cfg)
    state = [(np.array([[-3.0, 0.0]]), np.array([[0.2, 0.0]])),
             (np.array([[3.0, 0.0]]), np.array([[0.0, 0.0]]))]
    v_occ = game._pair_variance(state, 0, 1).item()
    v_base = make_game(ScenarioConfig(scenario="tag"))._pair_variance(state, 0, 1).item()
    np.testing.assert_allclose(v_occ - v_base, cfg.c_scale * r, rtol=0.01)
    # the occlusion is softplus(-temp * clearance) / temp: invert it
    temp = SMOOTHMIN_TEMP
    clear = -math.log(math.expm1(temp * (v_occ - v_base) / cfg.c_scale)) / temp
    np.testing.assert_allclose(clear, -r, atol=1e-3)


def test_hideseek_variance_continuous_when_grazing():
    cfg = ScenarioConfig(scenario="hideseek", obstacles=((0.0, 1.0, 0.8),))
    game = make_game(cfg)
    heights = np.linspace(-0.5, 2.5, 601)
    values = []
    for y in heights:
        state = [(np.array([[-2.0, 0.0]]), np.array([[0.2, 0.0]])),
                 (np.array([[2.0, y]]), np.array([[0.0, 0.0]]))]
        values.append(game._pair_variance(state, 0, 1).item())
    steps = np.abs(np.diff(values))
    assert np.max(steps) < 0.2  # no jumps across the graze transition


def test_hideseek_obstacle_collision_penalized():
    cfg = ScenarioConfig(scenario="hideseek", obstacles=((1.0, 0.0, 0.7),))
    game = make_game(cfg)
    inside = [(np.array([[1.0, 0.0]]), np.zeros((1, 2))),
              (np.array([[-2.0, 0.0]]), np.zeros((1, 2)))]
    clearof = [(np.array([[-1.0, 0.0]]), np.zeros((1, 2))),
               (np.array([[-2.0, 0.0]]), np.zeros((1, 2)))]
    pen_inside = game.reward_report(inside, 0).item() - game.reward(inside, 0).item()
    pen_clear = game.reward_report(clearof, 0).item() - game.reward(clearof, 0).item()
    assert pen_inside > pen_clear + 1.0


def test_hideseek_zero_sum_reported():
    game = make_game(ScenarioConfig(scenario="hideseek"))
    state = _state(game, np.random.default_rng(7), k=10_000)
    total = game.reward_report(state, 0) + game.reward_report(state, 1)
    assert np.max(np.abs(total)) < 1e-9


# ---------------------------------------------------------------------------
# Warehouse
# ---------------------------------------------------------------------------

def test_warehouse_rewards():
    cfg = ScenarioConfig(scenario="warehouse", wh_tasks=((0.2, 0.2), (0.9, 0.9)))
    game = make_game(cfg)

    at_task = [(np.array([[0.2, 0.2]]), np.zeros((1, 2))),
               (np.array([[10.0, 10.0]]), np.zeros((1, 2)))]
    np.testing.assert_allclose(game.reward(at_task, 0).item(), 1.0, atol=1e-3)

    # P2 on top of P1, both far from tasks: reward ~ -alpha = -4
    stacked = [(np.array([[5.0, 5.0]]), np.zeros((1, 2))),
               (np.array([[5.0, 5.0]]), np.zeros((1, 2)))]
    np.testing.assert_allclose(game.reward(stacked, 1).item(), -4.0, atol=1e-3)

    far = [(np.array([[30.0, 0.0]]), np.zeros((1, 2))),
           (np.array([[-30.0, 0.0]]), np.zeros((1, 2)))]
    assert abs(game.reward(far, 0).item()) < 1e-6
    assert abs(game.reward(far, 1).item()) < 1e-6


def test_warehouse_observation_noise_model():
    cfg = ScenarioConfig(scenario="warehouse")
    game = make_game(cfg)
    station = np.asarray(cfg.wh_station)

    # both at the station: P2 sees P1 exactly, for any noise draw
    both = [(station[None, :].copy(), np.zeros((1, 2))),
            (station[None, :].copy(), np.zeros((1, 2)))]
    z = game.observe(both, 1, np.array([[3.0, -2.0]]))
    np.testing.assert_allclose(z[:, 2:4], station[None, :], atol=2e-3)

    # P2 at the station, P1 at distance 0.5: sigma = eta1 * 0.5 = 2.0
    state = [(station[None, :] + np.array([[0.5, 0.0]]), np.zeros((1, 2))),
             (station[None, :].copy(), np.zeros((1, 2)))]
    sigma = game._broadcast_sigma(state).item()
    np.testing.assert_allclose(sigma, 2.0, atol=1e-3)

    # P1's own observation is independent of P2 and noise-free
    rng = np.random.default_rng(8)
    s1 = _state(game, rng)
    z1 = game.observe(s1, 0, np.zeros((1, 0)))
    s2 = [s1[0], (s1[1][0] + 0.3, s1[1][1])]
    np.testing.assert_array_equal(z1, game.observe(s2, 0, np.zeros((1, 0))))
    assert game.obs_dim(0) == 2 and game.noise_dim(0) == 0


def test_warehouse_p1_reward_independent_of_p2():
    game = make_game(ScenarioConfig(scenario="warehouse"))
    rng = np.random.default_rng(9)
    state_np = game.sample_initial(rng, 3)
    tape = Tape()
    state = [(tape.param(p), tape.param(v)) for p, v in state_np]
    tape.backward(ag.asum(game.reward(state, 0)))
    np.testing.assert_array_equal(state[1][0].grad, 0.0)
    np.testing.assert_array_equal(state[1][1].grad, 0.0)


def test_warehouse_initials_inside_unit_box():
    game = make_game(ScenarioConfig(scenario="warehouse"))
    state = game.sample_initial(np.random.default_rng(10), 5000)
    for pos, vel in state:
        assert np.all((pos >= 0.0) & (pos <= 1.0))
        np.testing.assert_array_equal(vel, 0.0)
    tasks = sample_tasks(np.random.default_rng(11))
    assert len(tasks) == 2
    assert all(0.0 <= c <= 1.0 for t in tasks for c in t)


@pytest.mark.parametrize("name", ["tag", "tagchain", "hideseek", "warehouse"])
def test_observations_match_recorded_values(name):
    """``observe`` and ``obs_logdensity`` reproduce, bit for bit, values
    recorded from the observation models for K = 5 states (the last at rest)
    and every player; the file stores the states and noise with them."""
    path = os.path.join(os.path.dirname(__file__), "data", "observations.npz")
    game = make_game(ScenarioConfig(scenario=name))
    with np.load(path) as rec:
        state = game.unpack_state(rec[f"{name}/state"])
        for p in range(game.n_players):
            obs = np.asarray(game.observe(state, p, rec[f"{name}/eps{p}"]))
            logd = np.asarray(game.obs_logdensity(state, p, obs))
            for got, key in ((obs, f"{name}/obs{p}"), (logd, f"{name}/logd{p}")):
                want = rec[key]
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_mode_groups():
    assert mode_groups(make_game(ScenarioConfig(scenario="tag"))) == [[0], [1]]
    assert mode_groups(make_game(ScenarioConfig(scenario="tagchain"))) == [[0, 1], [2, 3]]
    assert mode_groups(make_game(ScenarioConfig(scenario="warehouse"))) == [[1]]
    # a team of one is named in the singular: a two-player chain is tag
    for scenario, players, names in (("tag", 4, ["pursuer", "evader"]),
                                     ("tagchain", 2, ["pursuer", "evader"]),
                                     ("tagchain", 4, ["pursuers", "evaders"])):
        game = make_game(ScenarioConfig(scenario=scenario, chain_players=players))
        assert group_names(game) == names


@pytest.mark.parametrize("modes", [("passive", "active"), ("active", "active"),
                                   ("active", "passive")])
def test_two_player_chain_is_tag_bit_for_bit(modes):
    """A two-player tagchain is tag: the same costs and gradients from
    ``expected_cost``, and the same cloud after a conditioned update."""
    games = [make_game(ScenarioConfig(scenario="tag")),
             make_game(ScenarioConfig(scenario="tagchain", chain_players=2))]
    outs = []
    for game in games:
        thetas = [init_policy(game, i, modes[i], seed=i + 1, hidden=(8,)) for i in range(2)]
        pset = init_particles(game, 32, 1, np.random.default_rng(7))
        rng = np.random.default_rng(11)
        out = []
        for player in range(2):
            cost, grad = expected_cost(game, pset, thetas, player, 10, rng)
            out += [np.float64(cost).tobytes(), grad.tobytes()]
        pset = update_particles(pset, game, thetas, np.linspace(-0.5, 0.5, 6), 1, 0.5,
                                np.random.default_rng(3))
        outs.append(out + [pset.states.tobytes(), pset.weights.tobytes()])
    assert outs[0] == outs[1]


# The symmetries of the square (the signed 2x2 permutations) map the tag arena
# onto itself, and hideseek's point-symmetric obstacle pair keeps -I.
SIGNED_PERMUTATIONS = [np.array(p) * np.array(signs)[:, None]
                       for p in ([[1, 0], [0, 1]], [[0, 1], [1, 0]])
                       for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]


def _map_blocks(x, s):
    """``s`` applied to every planar 2-block along the last axis of ``x``."""
    return (x.reshape(x.shape[:-1] + (-1, 2)) @ s.T).reshape(x.shape)


def _map_policy(theta, flat, s):
    """``flat``, a parameter vector (or its gradient) of ``theta``'s layout,
    for the mapped plane: the first layer's weight columns and the last
    layer's rows and biases move blockwise with ``s``."""
    flat = flat.copy()
    weights, biases = ag.layer_views(flat, theta.shapes)
    weights[0][...] = _map_blocks(weights[0], s)
    weights[-1][...] = _map_blocks(weights[-1].T, s).T
    biases[-1][...] = _map_blocks(biases[-1], s)
    return flat


def _rollout_cost_and_grad(game, state, hists, thetas, eps, player):
    tape = Tape()
    lifted = list(thetas)
    lifted[player] = replace(thetas[player], flat=tape.param(thetas[player].flat))
    total = _run_rollout(game, state, hists, lifted, eps, [player])[player]
    cost = ag.affine(total, -1.0 / len(hists[0]), 0.0)
    tape.backward(cost)
    return float(cost.value), lifted[player].flat.grad


ARENA_SYMMETRIES = pytest.mark.parametrize("name, players, maps", [
    ("tag", 2, SIGNED_PERMUTATIONS),
    ("tagchain", 4, SIGNED_PERMUTATIONS),
    ("hideseek", 2, [-np.eye(2)]),
], ids=["tag", "tagchain", "hideseek"])
COMBOS = pytest.mark.parametrize("combo", [(PASSIVE, ACTIVE), (ACTIVE, ACTIVE)], ids="-".join)


def _moving_case(name, players, combo, k=16):
    """(game, policies, moving joint state, windows, rng) of ``k`` rows."""
    game = make_game(ScenarioConfig(scenario=name, chain_players=players, t_past=3,
                                    t_future=4))
    rng = np.random.default_rng(31)
    modes = modes_for_combo(game, combo)
    thetas = [init_policy(game, i, modes[i], seed=i + 5, hidden=(8,))
              for i in range(game.n_players)]
    state = [(rng.normal(scale=1.5, size=(k, 2)), rng.uniform(-0.9, 0.9, size=(k, 2)) * v)
             for v in game.v_max]
    hists = [rng.normal(scale=0.5, size=(k, game.t_past * game.obs_dim(i)))
             for i in range(game.n_players)]
    return game, thetas, state, hists, rng


def _cloud(game, state, hists, weights):
    return ParticleSet(states=game.pack_state(state), hists=[h.copy() for h in hists],
                       weights=weights.copy(), blocks=round_robin_partition(len(weights), 1))


@ARENA_SYMMETRIES
@COMBOS
def test_rollout_is_invariant_under_the_arena_symmetries(name, players, maps, combo):
    """Mapping the plane by a symmetry ``s`` of the arena, on moving states,
    leaves every player's rollout cost unchanged and maps its gradient as it
    maps the parameters.  ``s`` acts on every position, velocity, window
    block and noise block, and on the policies' first-layer columns and
    last-layer rows and biases (metamorphic testing: Chen et al., ACM
    Computing Surveys, 2018).  A change that treats the two coordinates
    differently, or adds a fixed direction, breaks it."""
    game, thetas, state, hists, rng = _moving_case(name, players, combo)
    k = len(hists[0])
    eps = draw_noise(game, k, rng)
    for player in range(game.n_players):
        cost, grad = _rollout_cost_and_grad(game, state, hists, thetas, eps, player)
        for s in maps:
            mapped = [replace(th, flat=_map_policy(th, th.flat, s)) for th in thetas]
            cost_s, grad_s = _rollout_cost_and_grad(
                game, [(pos @ s.T, vel @ s.T) for pos, vel in state],
                [_map_blocks(h, s) for h in hists], mapped,
                [[_map_blocks(e, s) for e in step] for step in eps], player)
            assert cost_s == pytest.approx(cost, rel=1e-13, abs=0.0), (player, s)
            np.testing.assert_allclose(grad_s, _map_policy(thetas[player], grad, s),
                                       rtol=0.0, atol=1e-12 * np.max(np.abs(grad)),
                                       err_msg=f"player {player}, map {s.tolist()}")


@ARENA_SYMMETRIES
@COMBOS
def test_round_step_is_equivariant_under_the_arena_symmetries(name, players, maps, combo):
    """``advance_particles`` of the mapped cloud, windows and observations,
    under the mapped policies, gives the mapped states, windows and actions
    (the map as in ``test_rollout_is_invariant_under_the_arena_symmetries``)."""
    game, thetas, state, hists, rng = _moving_case(name, players, combo)
    k = len(hists[0])
    obs = [rng.normal(scale=1.5, size=(k, game.obs_dim(i))) for i in range(game.n_players)]
    weights = np.full(k, 1.0 / k)
    pset = _cloud(game, state, hists, weights)
    actions = advance_particles(pset, game, [thetas], [z.copy() for z in obs])
    for s in maps:
        mapped = _cloud(game, [(pos @ s.T, vel @ s.T) for pos, vel in state],
                        [_map_blocks(h, s) for h in hists], weights)
        actions_s = advance_particles(
            mapped, game, [[replace(th, flat=_map_policy(th, th.flat, s)) for th in thetas]],
            [_map_blocks(z, s) for z in obs])
        for got, want in [(mapped.states, pset.states), *zip(mapped.hists, pset.hists),
                          *zip(actions_s, actions)]:
            np.testing.assert_allclose(got, _map_blocks(want, s), rtol=0.0,
                                       atol=1e-12 * np.max(np.abs(want)),
                                       err_msg=f"map {s.tolist()}")


@ARENA_SYMMETRIES
def test_conditioned_weights_are_invariant_under_the_arena_symmetries(name, players, maps):
    """Conditioning a moving cloud on a true observation, and the mapped
    cloud on the mapped observation, from the same generator state, gives
    the same weights: the observation density is invariant under the map."""
    game, thetas, state, hists, rng = _moving_case(name, players, (ACTIVE, ACTIVE))
    k = len(hists[0])
    weights = rng.dirichlet(np.ones(k))
    for player in range(game.n_players):
        true_obs = rng.normal(scale=1.5, size=game.obs_dim(player))
        want = update_particles(_cloud(game, state, hists, weights), game, thetas, true_obs,
                                player, 0.5, np.random.default_rng(player)).weights
        assert not np.allclose(want, weights)
        for s in maps:
            got = update_particles(
                _cloud(game, [(pos @ s.T, vel @ s.T) for pos, vel in state],
                       [_map_blocks(h, s) for h in hists], weights), game,
                [replace(th, flat=_map_policy(th, th.flat, s)) for th in thetas],
                _map_blocks(true_obs, s), player, 0.5, np.random.default_rng(player)).weights
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       err_msg=f"player {player}, map {s.tolist()}")


# ---------------------------------------------------------------------------
# Differentiability of every scenario's transition / observe / reward
# ---------------------------------------------------------------------------

def _flat_widths(game):
    d = sum(game.state_dim(i) for i in range(game.n_players))
    act = sum(game.action_dim(i) for i in range(game.n_players))
    noise = sum(game.noise_dim(i) for i in range(game.n_players))
    return d, act, noise


def _unpack_flat(game, x, with_actions=False):
    """Split a flat vector into (state, actions) using slice nodes."""
    state, off = [], 0
    for i in range(game.n_players):
        comps = []
        for width in game.state_comps(i):
            comps.append(ag.slice_last(x, off, off + width))
            off += width
        state.append(tuple(comps))
    actions = []
    if with_actions:
        for i in range(game.n_players):
            actions.append(ag.slice_last(x, off, off + game.action_dim(i)))
            off += game.action_dim(i)
    return state, actions


@pytest.mark.parametrize("name", ["tag", "tagchain", "hideseek", "warehouse"])
def test_scenario_grad_checks(name):
    game = make_game(ScenarioConfig(scenario=name))
    d, act, noise = _flat_widths(game)
    rng = np.random.default_rng(12)
    proj = rng.normal(size=64)

    def f_transition(x):
        state, actions = _unpack_flat(game, x, with_actions=True)
        out = game.transition(state, actions)
        flat = ag.concat([c for block in out for c in block])
        return ag.asum(rc.mul(flat, proj[: d]))

    def f_observe(x, noise):
        state, _ = _unpack_flat(game, x)
        eps = np.split(noise, np.cumsum([game.noise_dim(i) for i in range(game.n_players)])[:-1])
        parts = [game.observe(state, i, eps[i]) for i in range(game.n_players)]
        flat = ag.concat(parts)
        w = proj[: sum(game.obs_dim(i) for i in range(game.n_players))]
        return ag.asum(rc.mul(flat, w))

    def f_reward(x):
        state, _ = _unpack_flat(game, x)
        total = None
        for i in range(game.n_players):
            r = game.reward(state, i)
            total = r if total is None else ag.add(total, r)
        return ag.asum(total)

    def reachable_state(scale):
        # positions anywhere, velocities inside their saturation bounds
        parts = []
        for i in range(game.n_players):
            parts.append(rng.normal(size=2) * scale)
            parts.append(rng.uniform(-0.9, 0.9, size=2) * game.v_max[i])
        return np.concatenate(parts)

    def reachable_actions():
        # actions as the squashed policies produce them
        return np.concatenate([rng.uniform(-1, 1, size=2) * game.action_scale(i)
                               for i in range(game.n_players)])

    worst = 0.0
    scale = 0.4 if name == "warehouse" else 1.5
    for _ in range(8):
        xt = np.concatenate([reachable_state(scale), reachable_actions()])
        worst = max(worst, grad_check(f_transition, xt, h=1e-5))
        xs, eps = reachable_state(scale), rng.normal(size=noise)   # the noise stays raw
        worst = max(worst, grad_check(lambda x: f_observe(x, eps), xs, h=1e-5))
        worst = max(worst, grad_check(f_reward, reachable_state(scale), h=1e-5))
    assert worst < 1e-4
