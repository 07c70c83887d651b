"""Particle store: sampling, conditioning against exact Bayes, diagnostics."""

import numpy as np
import pytest
from scipy.stats import chisquare

from pogplan import beliefs
from pogplan.beliefs import (
    ParticleSet,
    dump_particles,
    effective_sample_size,
    gaussian_summary,
    init_particles,
    round_robin_partition,
    sample_batch,
    surprisal,
    systematic_resample,
    update_particles,
)
from pogplan.policy import ACTIVE, PASSIVE, init_policy
from pogplan.scenarios import ScenarioConfig, make_game
from pogplan.toygame import ToyFilterGame, exact_posterior


def _tag():
    return make_game(ScenarioConfig(name="tag"))


def _policies(game, seed=0, hidden=(4,)):
    return [init_policy(game, i, ACTIVE, seed=seed + i, hidden=hidden)
            for i in range(game.n_players)]


def test_init_partition_and_weights():
    game = _tag()
    pset = init_particles(game, 10, 3, np.random.default_rng(0))
    assert sorted(len(b) for b in pset.blocks) == [3, 3, 4]
    joined = np.sort(np.concatenate(pset.blocks))
    np.testing.assert_array_equal(joined, np.arange(10))  # disjoint, exhaustive
    np.testing.assert_array_equal(pset.weights, np.full(10, 0.1))
    assert pset.states.shape == (10, game.total_state_dim())
    for i in range(game.n_players):
        assert pset.hists[i].shape == (10, game.t_past * game.obs_dim(i))
        np.testing.assert_array_equal(pset.hists[i], 0.0)
    with pytest.raises(ValueError):
        init_particles(game, 2, 3, np.random.default_rng(0))


def test_init_two_spawn_split():
    cfg = ScenarioConfig(name="tag", spawn_mode=True)
    game = make_game(cfg)
    pset = init_particles(game, 10_000, 1, np.random.default_rng(1))
    east = np.mean(np.all(pset.states[:, 0:2] == np.asarray(cfg.spawn_east), axis=1))
    assert abs(east - 0.5) < 0.02


def test_sample_batch_degenerate_and_uniform():
    game = _tag()
    pset = init_particles(game, 10, 1, np.random.default_rng(2))

    pset.weights[:] = 0.0
    pset.weights[7] = 1.0
    idx = sample_batch(pset, 50, np.random.default_rng(3))
    np.testing.assert_array_equal(idx, 7)

    pset.weights[:] = 0.1
    draws = sample_batch(pset, 100_000, np.random.default_rng(4))
    counts = np.bincount(draws, minlength=10)
    freqs = counts / 100_000
    assert np.all(np.abs(freqs - 0.1) < 0.005)
    assert chisquare(counts).pvalue > 0.01

    pset.weights[3] = 0.0
    draws = sample_batch(pset, 100_000, np.random.default_rng(5))
    assert np.all(draws != 3)

    pset.weights[:] = 0.0
    with pytest.raises(ValueError):
        sample_batch(pset, 5, np.random.default_rng(6))


def test_update_gamma_zero_weights_fixed_point():
    game = _tag()
    pset = init_particles(game, 64, 2, np.random.default_rng(7))
    pset.weights[:] = np.random.default_rng(8).dirichlet(np.ones(64))
    before = pset.weights.copy()
    out = update_particles(pset, game, _policies(game), true_obs=None, player=0,
                           gamma=0.5, rng=np.random.default_rng(9))
    np.testing.assert_array_equal(out.weights, before)  # exact fixed point
    assert out.k_all == 64
    for i in range(game.n_players):
        assert out.hists[i].shape == pset.hists[i].shape
    joined = np.sort(np.concatenate(out.blocks))
    np.testing.assert_array_equal(joined, np.arange(64))


def test_update_preserves_counts_and_moves_states():
    game = _tag()
    pset = init_particles(game, 32, 4, np.random.default_rng(10))
    out = update_particles(pset, game, _policies(game), true_obs=None, player=0,
                           gamma=0.0, rng=np.random.default_rng(11))
    assert out.states.shape == pset.states.shape
    assert not np.array_equal(out.states, pset.states)  # velocities integrate
    # identical rng stream gives an identical update
    out2 = update_particles(pset, game, _policies(game), true_obs=None, player=0,
                            gamma=0.0, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(out.states, out2.states)


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_row_blocked_update_matches_single_forward(mode, monkeypatch):
    """Policies evaluated in ROW_BLOCK-row slices, ragged last slice
    included, reproduce one whole-block forward over conditioned updates."""
    game = _tag()
    k, n_eq = 5000, 2
    assert k // n_eq > beliefs.ROW_BLOCK and (k // n_eq) % beliefs.ROW_BLOCK
    thetas = [init_policy(game, i, mode, seed=30 + i) for i in range(game.n_players)]
    start = init_particles(game, k, n_eq, np.random.default_rng(31))
    true_obs = np.asarray(game.observe(game.unpack_state(start.states[:1]), 0,
                                       np.zeros((1, game.noise_dim(0)))))[0]

    def three_updates():
        pset, rng = start, np.random.default_rng(32)
        for _ in range(3):
            pset = update_particles(pset, game, thetas, true_obs, player=0,
                                    gamma=0.3, rng=rng)
        return pset

    blocked = three_updates()
    monkeypatch.setattr(beliefs, "ROW_BLOCK", k)
    single = three_updates()
    # float64 BLAS results may depend on the row count, so not bitwise.
    for got, want in [(blocked.states, single.states), (blocked.weights, single.weights),
                      *zip(blocked.hists, single.hists)]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_update_two_particle_bayes_rule():
    """gamma=1 on two particles reduces to the textbook posterior."""
    cfg = ScenarioConfig(name="warehouse")
    game = make_game(cfg)
    rng = np.random.default_rng(12)
    pset = init_particles(game, 2, 1, rng)
    # hypotheses differ only in P1's position
    pset.states[0, 0:2] = [0.2, 0.2]
    pset.states[1, 0:2] = [0.8, 0.8]
    pset.states[:, 4:6] = [0.5, 0.5]  # P2 position shared
    pset.states[:, 2:4] = 0.0
    pset.states[:, 6:8] = 0.0
    z_true = np.array([0.5, 0.5, 0.3, 0.3])  # P2 obs: own pos then P1 reading

    station = np.asarray(cfg.wh_station)
    likelihoods = []
    for k in range(2):
        p1 = pset.states[k, 0:2]
        p2 = pset.states[k, 4:6]
        sigma = (cfg.wh_eta1 * np.sqrt(np.sum((p1 - station) ** 2) + 1e-9)
                 + cfg.wh_eta2 * np.sqrt(np.sum((p2 - station) ** 2) + 1e-9))
        var = sigma ** 2 + 1e-12
        d2 = np.sum((z_true[2:4] - p1) ** 2)
        likelihoods.append(np.exp(-d2 / (2 * var)) / (2 * np.pi * var))
    expected = np.array(likelihoods) / np.sum(likelihoods)

    out = update_particles(pset, game, _policies(game), true_obs=z_true, player=1,
                           gamma=1.0, rng=np.random.default_rng(13))
    np.testing.assert_allclose(out.weights, expected, rtol=1e-9)


def test_toy_game_matches_exact_bayes_filter():
    game = ToyFilterGame(flip_prob=0.2, t_past=3)
    rng = np.random.default_rng(14)
    pset = init_particles(game, 10_000, 1, rng)
    thetas = [init_policy(game, 0, ACTIVE, seed=0, hidden=(4,))]

    true_x = 1.0
    observations = []
    obs_rng = np.random.default_rng(15)
    for _ in range(5):
        eps = obs_rng.standard_normal((1, 1))
        z = game.observe([(np.array([[true_x]]),)], 0, eps)
        observations.append(float(z[0, 0]))
        pset = update_particles(pset, game, thetas, true_obs=z[0], player=0,
                                gamma=1.0, rng=rng)

    oracle = exact_posterior(game, observations)
    mass_one = pset.weights[pset.states[:, 0] > 0.5].sum()
    particle = np.array([1.0 - mass_one, mass_one])
    tv = 0.5 * np.abs(particle - oracle).sum()
    assert tv < 0.02


def test_degenerate_weights_reset_uniform():
    game = make_game(ScenarioConfig(name="warehouse"))
    pset = init_particles(game, 8, 1, np.random.default_rng(16))
    # an impossibly distant reading under near-zero noise kills every particle
    pset.states[:, 0:2] = [0.5, 1.0]
    pset.states[:, 4:6] = [0.5, 1.0]
    z_true = np.array([0.5, 1.0, 900.0, 900.0])
    out = update_particles(pset, game, _policies(game), true_obs=z_true, player=1,
                           gamma=1.0, rng=np.random.default_rng(17))
    assert out.degenerate
    np.testing.assert_allclose(out.weights, 1.0 / 8)


def test_gaussian_summary_closed_forms_and_oracle():
    game = _tag()
    pset = init_particles(game, 4, 1, np.random.default_rng(18))

    pset.states[:, 0:2] = [0.3, -0.8]
    mean, cov = gaussian_summary(pset, game, 0)
    np.testing.assert_allclose(mean, [0.3, -0.8])
    np.testing.assert_allclose(cov, 1e-6 * np.eye(2), atol=1e-12)

    pset2 = init_particles(game, 2, 1, np.random.default_rng(19))
    pset2.states[0, 0:2] = [1.0, 0.0]
    pset2.states[1, 0:2] = [-1.0, 0.0]
    mean, cov = gaussian_summary(pset2, game, 0)
    np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(cov[0, 0], 1.0 + 1e-6)

    # independent weighted-moment oracle on random sets
    rng = np.random.default_rng(20)
    pset3 = init_particles(game, 50, 1, rng)
    pset3.weights[:] = rng.dirichlet(np.ones(50))
    x = pset3.states[:, 4:6]  # evader positions
    w = pset3.weights
    mean_oracle = np.array([np.sum(w * x[:, 0]), np.sum(w * x[:, 1])])
    cov_oracle = np.zeros((2, 2))
    for k in range(50):
        d = x[k] - mean_oracle
        cov_oracle += w[k] * np.outer(d, d)
    cov_oracle += 1e-6 * np.eye(2)
    mean, cov = gaussian_summary(pset3, game, 1)
    np.testing.assert_allclose(mean, mean_oracle, rtol=1e-12)
    np.testing.assert_allclose(cov, cov_oracle, rtol=1e-9)


def test_surprisal_gaussian_values():
    game = _tag()
    pset = init_particles(game, 4, 1, np.random.default_rng(21))
    r = np.sqrt(2.0)
    pset.states[:, 0:2] = [[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]]
    pset.weights[:] = 0.25  # unit covariance by construction

    at_mean = surprisal(pset, game, 0, [0.0, 0.0])
    np.testing.assert_allclose(at_mean, np.log(2 * np.pi), atol=1e-5)

    one_sigma = surprisal(pset, game, 0, [1.0, 0.0])
    np.testing.assert_allclose(one_sigma - at_mean, 0.5, atol=1e-5)


def test_surprisal_decreases_as_cloud_concentrates():
    game = _tag()
    truth = np.array([0.7, -0.4])
    rng = np.random.default_rng(22)
    values = []
    for spread in (2.0, 1.0, 0.5, 0.25):
        pset = init_particles(game, 400, 1, rng)
        pset.states[:, 0:2] = truth + rng.normal(scale=spread, size=(400, 2))
        values.append(surprisal(pset, game, 0, truth))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_systematic_resample_extension():
    game = _tag()
    pset = init_particles(game, 100, 2, np.random.default_rng(23))
    pset.weights[:] = 1e-9
    pset.weights[4] = 1.0 - 99e-9
    assert effective_sample_size(pset) < 2.0
    out = systematic_resample(pset, np.random.default_rng(24))
    np.testing.assert_allclose(out.weights, 0.01)
    # nearly every particle is now a copy of the heavy one
    matches = np.all(out.states == pset.states[4], axis=1).mean()
    assert matches > 0.95
    joined = np.sort(np.concatenate(out.blocks))
    np.testing.assert_array_equal(joined, np.arange(100))


def test_particle_dump_schema(tmp_path):
    game = _tag()
    pset = init_particles(game, 5, 1, np.random.default_rng(25))
    path = tmp_path / "cloud.txt"
    with open(path, "w") as fh:
        fh.write("# step agent player particle x y weight\n")
        dump_particles(pset, game, fh, step=0)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 5 * game.n_players
    parts = lines[1].split()
    assert len(parts) == 7
    assert float(parts[6]) == 0.2
