"""Particle store: sampling, conditioning against exact Bayes, diagnostics."""

import copy
import hashlib
import os
import tracemalloc

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
    sample_batch,
    sampling_cdf,
    surprisal,
    systematic_resample,
    update_particles,
)
from pogplan.config import ExperimentConfig
from pogplan.policy import ACTIVE, PASSIVE, init_policy
from pogplan.scenarios import make_game
from pogplan.toygame import ToyFilterGame, exact_posterior


def _tag():
    return make_game(ExperimentConfig(scenario="tag"))


def _policies(game, seed=0, hidden=(4,)):
    return [init_policy(game, i, ACTIVE, seed=seed + i, hidden=hidden)
            for i in range(game.n_players)]


def test_init_partition_and_weights():
    game = _tag()
    pset = init_particles(game, 10, 3, np.random.default_rng(0))
    assert pset.n_blocks == 3
    np.testing.assert_array_equal(pset.weights, np.full(10, 0.1))
    assert pset.states.shape == (10, sum(game.state_dim(i) for i in range(game.n_players)))
    for i in range(game.n_players):
        assert pset.hists[i].shape == (10, game.t_past * game.obs_dim(i))
        np.testing.assert_array_equal(pset.hists[i], 0.0)
    with pytest.raises(ValueError):
        init_particles(game, 2, 3, np.random.default_rng(0))


def test_init_two_spawn_split():
    cfg = ExperimentConfig(scenario="tag", spawn_mode=True)
    game = make_game(cfg)
    pset = init_particles(game, 10_000, 1, np.random.default_rng(1))
    east = np.mean(np.all(pset.states[:, 0:2] == np.asarray(cfg.spawn_east), axis=1))
    assert abs(east - 0.5) < 0.02


def _sample(pset, k, rng):
    return sample_batch(sampling_cdf(pset.weights), k, rng)


def test_sample_batch_degenerate_and_uniform():
    game = _tag()
    pset = init_particles(game, 10, 1, np.random.default_rng(2))

    pset.weights[:] = 0.0
    pset.weights[7] = 1.0
    idx = _sample(pset, 50, np.random.default_rng(3))
    np.testing.assert_array_equal(idx, 7)

    pset.weights[:] = 0.1
    draws = _sample(pset, 100_000, np.random.default_rng(4))
    counts = np.bincount(draws, minlength=10)
    freqs = counts / 100_000
    assert np.all(np.abs(freqs - 0.1) < 0.005)
    assert chisquare(counts).pvalue > 0.01

    pset.weights[3] = 0.0
    draws = _sample(pset, 100_000, np.random.default_rng(5))
    assert np.all(draws != 3)

    pset.weights[:] = 0.0
    with pytest.raises(ValueError, match="all particle weights are zero"):
        _sample(pset, 5, np.random.default_rng(6))
    for bad in (-0.1, np.nan, np.inf):
        pset.weights[:] = 0.1
        pset.weights[2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            _sample(pset, 5, np.random.default_rng(6))


def test_sample_batch_draws_what_rng_choice_draws():
    """Index for index, and leaving the generator in the same state."""
    weights = [np.full(7, 1.0), np.arange(1.0, 40.0), np.array([0.0, 3.0, 0.0, 1e-9, 2.0])]
    weights.append(np.random.default_rng(30).dirichlet(np.ones(1000)))
    weights.append(np.random.default_rng(31).exponential(size=333) ** 4)
    for w in weights:
        cdf = sampling_cdf(w)
        for seed in range(8):
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in (1, 10, 257):
                want = theirs.choice(w.size, size=k, replace=True, p=w / w.sum())
                got = sample_batch(cdf, k, mine)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert mine.random() == theirs.random()


def test_update_gamma_zero_weights_fixed_point():
    game = _tag()
    pset = init_particles(game, 64, 2, np.random.default_rng(7))
    pset.weights[:] = np.random.default_rng(8).dirichlet(np.ones(64))
    before = copy.deepcopy(pset)
    out = update_particles(pset, game, _policies(game), true_obs=None, player=0,
                           gamma=0.5, rng=np.random.default_rng(9))
    assert out is pset  # advanced in place
    np.testing.assert_array_equal(out.weights, before.weights)  # exact fixed point
    assert out.k_all == 64
    for i in range(game.n_players):
        assert out.hists[i].shape == before.hists[i].shape
    assert out.n_blocks == 2


def test_update_preserves_counts_and_moves_states():
    game = _tag()
    pset = init_particles(game, 32, 4, np.random.default_rng(10))
    before = copy.deepcopy(pset)
    out = update_particles(pset, game, _policies(game), true_obs=None, player=0,
                           gamma=0.0, rng=np.random.default_rng(11))
    assert out.states.shape == before.states.shape
    assert not np.array_equal(out.states, before.states)  # velocities integrate
    # identical rng stream gives an identical update
    out2 = update_particles(copy.deepcopy(before), game, _policies(game), true_obs=None,
                            player=0, gamma=0.0, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(out.states, out2.states)


def test_block_p_follows_candidate_p():
    """Rows p, p + n, ... of an n-block cloud take candidate p's update, bit
    for bit: the rows candidate p gives when it drives every block.  Two
    spans, the last one ragged, with passive and active players."""
    game = _tag()
    k, n_eq = 3 * beliefs.ROW_BLOCK + 5, 2
    start = init_particles(game, k, n_eq, np.random.default_rng(33))
    for pos, vel in game.unpack_state(start.states):
        vel[...] = np.random.default_rng(34).normal(size=vel.shape)
    candidates = [[init_policy(game, i, mode, seed=35 + 2 * b + i, hidden=(4,))
                   for i, mode in enumerate((PASSIVE, ACTIVE))] for b in range(n_eq)]
    true_obs = np.asarray(game.observe(game.unpack_state(start.states[:1]), 0,
                                       np.zeros((1, game.noise_dim(0)))))[0]

    def update(policies):
        pset, rng = copy.deepcopy(start), np.random.default_rng(36)
        for _ in range(2):
            update_particles(pset, game, policies, true_obs, player=0, gamma=0.3, rng=rng)
        return pset

    mixed = update(candidates)
    for p, thetas in enumerate(candidates):
        alone = update(thetas)
        for got, want in [(mixed.states, alone.states), *zip(mixed.hists, alone.hists)]:
            assert got[p::n_eq].tobytes() == want[p::n_eq].tobytes()
        assert not np.array_equal(mixed.states[1 - p::n_eq], alone.states[1 - p::n_eq])


@pytest.mark.parametrize("mode", [ACTIVE, PASSIVE])
def test_row_blocked_update_matches_single_forward(mode, monkeypatch):
    """Policies evaluated in ROW_BLOCK-row slices, ragged last slice
    included, reproduce one whole-block forward over conditioned updates.
    At gamma = 0.001 the first update conditions rows of only one of its
    three spans."""
    game = _tag()
    k, n_eq = 5000, 2
    assert k // n_eq > beliefs.ROW_BLOCK and (k // n_eq) % beliefs.ROW_BLOCK
    thetas = [init_policy(game, i, mode, seed=30 + i, hidden=(64, 64)) for i in range(game.n_players)]
    start = init_particles(game, k, n_eq, np.random.default_rng(31))
    true_obs = np.asarray(game.observe(game.unpack_state(start.states[:1]), 0,
                                       np.zeros((1, game.noise_dim(0)))))[0]

    def three_updates(gamma):
        pset, rng = copy.deepcopy(start), np.random.default_rng(32)
        for _ in range(3):
            pset = update_particles(pset, game, thetas, true_obs, player=0,
                                    gamma=gamma, rng=rng)
        return pset

    gammas = (0.3, 0.001)
    blocked = [three_updates(gamma) for gamma in gammas]
    monkeypatch.setattr(beliefs, "ROW_BLOCK", k)
    single = [three_updates(gamma) for gamma in gammas]
    # float64 BLAS results may depend on the row count, so not bitwise.
    for b, s in zip(blocked, single):
        for got, want in [(b.states, s.states), (b.weights, s.weights), *zip(b.hists, s.hists)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_update_two_particle_bayes_rule():
    """gamma=1 on two particles reduces to the textbook posterior."""
    cfg = ExperimentConfig(scenario="warehouse")
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
    game = ToyFilterGame()
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
    game = make_game(ExperimentConfig(scenario="warehouse"))
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

    at_mean = surprisal(gaussian_summary(pset, game, 0), [0.0, 0.0])
    np.testing.assert_allclose(at_mean, np.log(2 * np.pi), atol=1e-5)

    one_sigma = surprisal(gaussian_summary(pset, game, 0), [1.0, 0.0])
    np.testing.assert_allclose(one_sigma - at_mean, 0.5, atol=1e-5)


def test_surprisal_decreases_as_cloud_concentrates():
    game = _tag()
    truth = np.array([0.7, -0.4])
    rng = np.random.default_rng(22)
    values = []
    for spread in (2.0, 1.0, 0.5, 0.25):
        pset = init_particles(game, 400, 1, rng)
        pset.states[:, 0:2] = truth + rng.normal(scale=spread, size=(400, 2))
        values.append(surprisal(gaussian_summary(pset, game, 0), truth))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_systematic_resample_extension():
    game = _tag()
    pset = init_particles(game, 100, 2, np.random.default_rng(23))
    pset.weights[:] = 1e-9
    pset.weights[4] = 1.0 - 99e-9
    assert effective_sample_size(pset) < 2.0
    heavy = pset.states[4].copy()
    out = systematic_resample(pset, np.random.default_rng(24))
    np.testing.assert_allclose(out.weights, 0.01)
    # nearly every particle is now a copy of the heavy one
    matches = np.all(out.states == heavy, axis=1).mean()
    assert matches > 0.95
    assert out.n_blocks == 2


def test_particle_dump_schema(tmp_path):
    game = _tag()
    pset = init_particles(game, 5, 1, np.random.default_rng(25))
    path = tmp_path / "cloud.txt"
    with open(path, "w") as fh:
        fh.write("# step agent player particle x y weight\n")
        dump_particles(pset, game, fh, step=0, agent=-1)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 5 * game.n_players
    parts = lines[1].split()
    assert len(parts) == 7
    assert float(parts[6]) == 0.2


UPDATE_STEPS = os.path.join(os.path.dirname(__file__), "data", "update_steps.npz")


def _update_step_arrays():
    """States, windows, weights and the reset flag after each of four seeded
    updates, as named arrays: one open-loop update, two gamma = 0.3
    conditioned ones, then a conditioned one with a resample threshold.
    Clouds of 2 * ROW_BLOCK + 37 particles: tag in three blocks (one row
    span), tagchain in two uneven blocks (two spans, the last one ragged),
    tag in one block (three spans, the last one ragged), and hideseek
    (occluded sight lines) and warehouse in two blocks (two spans, the last
    one ragged); every block has its own candidate, with passive and active
    players."""
    out = {}
    cases = (("tag", "tag", 3, (PASSIVE, ACTIVE)),
             ("tagchain", "tagchain", 2, (PASSIVE, ACTIVE, ACTIVE, PASSIVE)),
             ("tag-one-block", "tag", 1, (PASSIVE, ACTIVE)),
             ("hideseek", "hideseek", 2, (PASSIVE, ACTIVE)),
             ("warehouse", "warehouse", 2, (ACTIVE, PASSIVE)))
    for name, scenario, n_eq, modes in cases:
        game = make_game(ExperimentConfig(scenario=scenario))
        k = 2 * beliefs.ROW_BLOCK + 37
        rng = np.random.default_rng(50)
        pset = init_particles(game, k, n_eq, rng)
        for pos, vel in game.unpack_state(pset.states):
            vel[...] = rng.normal(scale=0.3, size=vel.shape)
        blocks = [[init_policy(game, i, modes[i], seed=51 + 10 * b + i, hidden=(8, 8))
                   for i in range(game.n_players)] for b in range(n_eq)]
        player = game.n_players - 1
        true_obs = np.asarray(game.observe(game.unpack_state(pset.states[:1]), player,
                                           np.zeros((1, game.noise_dim(player)))))[0]
        steps = [(None, 0.0, None), (true_obs, 0.3, None), (true_obs, 0.3, None),
                 (true_obs, 0.3, 0.99 * k)]
        for step, (z, gamma, threshold) in enumerate(steps):
            pset = update_particles(pset, game, blocks, z, player, gamma, rng,
                                    resample_threshold=threshold)
            out[f"{name}/{step}/states"] = pset.states.copy()
            for i, h in enumerate(pset.hists):
                out[f"{name}/{step}/hist{i}"] = h.copy()
            out[f"{name}/{step}/weights"] = pset.weights.copy()
            out[f"{name}/{step}/degenerate"] = np.array(pset.degenerate)
    return out


def _digest(value):
    """SHA-256 of an array's dtype, shape and bytes, as 32 uint8."""
    head = f"{value.dtype.str} {value.shape}".encode()
    return np.frombuffer(hashlib.sha256(head + value.tobytes()).digest(), dtype=np.uint8)


def test_update_steps_match_recorded_values():
    """Updates over strided blocks are bit for bit those recorded in
    ``tests/data/update_steps.npz`` (written by ``np.savez(UPDATE_STEPS,
    **{k: _digest(v) for k, v in _update_step_arrays().items()})``).  The
    file holds digests: the arrays themselves take 22 MB."""
    got = _update_step_arrays()
    with np.load(UPDATE_STEPS) as rec:
        assert sorted(rec.files) == sorted(got)
        for key, value in got.items():
            assert _digest(value).tobytes() == rec[key].tobytes(), key
    k = 2 * beliefs.ROW_BLOCK + 37
    np.testing.assert_array_equal(got["tag/3/weights"], np.full(k, 1.0 / k))  # resampled
    assert not np.array_equal(got["tag/2/weights"], np.full(k, 1.0 / k))     # conditioned


@pytest.mark.parametrize("n_eq", [1, 2])
def test_update_allocates_no_second_cloud(n_eq):
    """One conditioned update on a 20,000-particle cloud, in one block or
    two, allocates under a quarter of the cloud's own bytes at its peak: the
    cloud is observed and advanced in place, a span and a ``ROW_BLOCK``-row
    chunk at a time, and holds no cloud-sized observation arrays."""
    game = _tag()
    k = 20_000
    pset = init_particles(game, k, n_eq, np.random.default_rng(60))
    blocks = [[init_policy(game, i, mode, seed=61 + 2 * b + i, hidden=(64, 64))
               for i, mode in enumerate((PASSIVE, ACTIVE))] for b in range(n_eq)]
    true_obs = np.asarray(game.observe(game.unpack_state(pset.states[:1]), 1,
                                       np.zeros((1, game.noise_dim(1)))))[0]
    rng = np.random.default_rng(62)
    cloud = pset.states.nbytes + sum(h.nbytes for h in pset.hists) + pset.weights.nbytes
    tracemalloc.start()
    try:
        update_particles(pset, game, blocks, true_obs, 1, 0.3, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * cloud, peak / cloud


def test_update_that_raises_leaves_the_cloud():
    """A wrong block count, a policy of the wrong input width in the last
    block, a true observation of the wrong length or a ``gamma`` outside
    [0, 1] is refused before the cloud is written."""
    game = _tag()
    rng = np.random.default_rng(28)
    pset = init_particles(game, 50, 3, rng)
    for pos, vel in game.unpack_state(pset.states):
        vel[...] = rng.normal(size=vel.shape)
    for h in pset.hists:
        h[...] = rng.normal(size=h.shape)
    pset.weights[:] = rng.dirichlet(np.ones(50))
    good = [_policies(game, seed=s) for s in (0, 2, 4)]
    narrow = make_game(ExperimentConfig(scenario="tag", t_past=2))
    bad = good[:2] + [[good[2][0], init_policy(narrow, 1, ACTIVE, seed=5, hidden=(4,))]]
    z = np.asarray(game.observe(game.unpack_state(pset.states[:1]), 0,
                                np.zeros((1, game.noise_dim(0)))))[0]
    before = copy.deepcopy(pset)
    for policies, true_obs, gamma, match in ((good[:2], z, 0.5, "candidate policies"),
                                             (bad, z, 0.5, "input widths"),
                                             (good, z[:-1], 0.5, "true_obs has"),
                                             (good, z, -0.1, r"gamma must lie in \[0, 1\]"),
                                             (good, z, 1.5, r"gamma must lie in \[0, 1\]")):
        with pytest.raises(ValueError, match=match):
            update_particles(pset, game, policies, true_obs, player=0, gamma=gamma, rng=rng)
        for got, want in [(pset.states, before.states), (pset.weights, before.weights),
                          *zip(pset.hists, before.hists)]:
            assert got.tobytes() == want.tobytes()


def test_conditioning_on_an_exactly_seen_state_leaves_the_states():
    """Warehouse player 0 sees its own position exactly, as a view of the
    states: conditioning writes the true observation into the windows, not
    into the particles."""
    game = make_game(ExperimentConfig(scenario="warehouse"))
    pset = init_particles(game, 50, 1, np.random.default_rng(26))
    before = pset.states.copy()
    z = np.array([9.0, 9.0])
    update_particles(pset, game, _policies(game), true_obs=z, player=0, gamma=1.0,
                     rng=np.random.default_rng(27))
    np.testing.assert_array_equal(pset.hists[0][:, -2:], np.broadcast_to(z, (50, 2)))
    assert np.abs(pset.states[:, 0:2] - before[:, 0:2]).max() < 1.0
