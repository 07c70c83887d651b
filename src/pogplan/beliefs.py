"""Particle approximation of the joint state / observation-history law.

The planner never tracks a belief hierarchy.  Instead every agent keeps one
weighted particle cloud over the *joint* quantity (all players' states, all
players' recent observation windows).  Each planning round the cloud is
pushed forward open-loop under the current equilibrium policies; a small
fraction ``gamma`` of particles is additionally conditioned on the agent's
own true observation and reweighted by its likelihood, trading opponent-model
fidelity for closed-loop accuracy.

The round step of every cloud, beliefs and the one-row true world of
``runner`` alike, is defined here once, in ``advance_particles``: each span
of rows is observed, pushed, conditioned and advanced in one pass.

Weights are renormalized whenever a conditioning step changed them (an
unconditioned update is an exact fixed point of the weight vector).  There is
no resampling step by default; an optional effective-sample-size triggered
systematic resampler is provided as a clearly flagged extension for long
episodes.

An update advances the cloud in place and returns the same ``ParticleSet``:
callers must not keep views of its arrays across an update.  The partition is
a block count ``n``: block ``p`` holds rows ``p, p + n, p + 2n, ...``.  The
cloud advances one span of ``n * ROW_BLOCK`` rows at a time, so each policy
call sees at most ``ROW_BLOCK`` rows and each layer's intermediate stays in
cache instead of spilling a cloud-sized temporary to memory on every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adgraph as ag
from .policy import ACTIVE, PolicyParams, action_block, policy_forward

DEGENERACY_FLOOR = 1e-300
# Rows per policy forward in the belief update: a 1024 x 64 float64 layer
# output (512 KiB) stays in a per-core L2 cache.
ROW_BLOCK = 1024


@dataclass
class ParticleSet:
    """Weighted joint hypotheses: states, per-player windows, partition."""

    states: np.ndarray          # (K, D) packed joint states
    hists: list                 # per player: (K, t_past * obs_dim_i)
    weights: np.ndarray         # (K,) nonnegative, summing to one
    n_blocks: int               # block p holds rows p, p + n_blocks, ...
    degenerate: bool = False    # set when a weight collapse forced a reset

    @property
    def k_all(self):
        return self.states.shape[0]


def init_particles(game, k_all, n_eq, rng):
    """Fresh cloud: states i.i.d. from the initial distribution, zero-filled
    observation windows, uniform weights, ``n_eq`` blocks."""
    if k_all < n_eq or n_eq < 1:
        raise ValueError(f"need k_all >= n_eq >= 1, got {k_all}, {n_eq}")
    states = game.pack_state(game.sample_initial(rng, k_all))
    hists = [np.zeros((k_all, game.t_past * game.obs_dim(i)))
             for i in range(game.n_players)]
    weights = np.full(k_all, 1.0 / k_all)
    return ParticleSet(states=states, hists=hists, weights=weights,
                       n_blocks=n_eq)


def sampling_cdf(weights):
    """Cumulative distribution of particle indices proportional to
    ``weights``, for ``sample_batch``; built the way ``Generator.choice``
    builds it from normalized probabilities."""
    total = weights.sum()
    if not math.isfinite(total) or (weights < 0.0).any():
        raise ValueError("cannot sample a batch: particle weights must be finite "
                         "and non-negative")
    if not total > 0.0:
        raise ValueError("cannot sample a batch: all particle weights are zero")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def sample_batch(cdf, k_batch, rng):
    """Indices of k_batch particles drawn i.i.d. from ``cdf`` (see
    ``sampling_cdf``), with replacement.  The draw is
    ``rng.choice(k_all, size=k_batch, replace=True, p=weights / total)``'s,
    index for index and with the same use of ``rng``."""
    return cdf.searchsorted(rng.random(k_batch), side="right")


def observation_noise(game, k, rng):
    """One round's observation noise for ``k`` rows: one N(0, 1) array of
    shape (k, ``noise_dim``) per player, drawn in player order (one round
    of ``noise_rounds``)."""
    return noise_rounds(game, 1, k, rng)[0]


def noise_rounds(game, rounds, k, rng):
    """``rounds`` rounds of ``observation_noise`` for ``k`` rows, in round
    order, with the values of one ``observation_noise`` call per round.  They
    are one standard-normal draw split into views, round by round and player
    by player: a ``Generator``'s normal stream does not depend on how its
    draws are batched."""
    widths = [game.noise_dim(i) for i in range(game.n_players)]
    draw = rng.standard_normal((rounds, k * sum(widths)))
    blocks, lo = [], 0
    for width in widths:   # one player's blocks of every round
        blocks.append(draw[:, lo:lo + k * width].reshape(rounds, k, width))
        lo += k * width
    return [list(views) for views in zip(*blocks)]


def advance_particles(pset, game, block_policies, noise, condition):
    """The round step of every row, in place, each block under its own
    per-player policies; returns every row's actions, one array per player.
    The cloud goes one span of ``n_blocks * ROW_BLOCK`` rows at a time, and
    block ``p``'s rows of a span are ``span[p::n_blocks]``.  In each span the
    rows are observed under ``noise`` (an ``observation_noise`` draw), passive
    policies read the pre-push window (a passive action is its sequence's
    first block), and the windows take the observations.  ``condition``,
    ``None`` or ``(player, true_obs, mask)``, then conditions the rows
    ``mask`` picks: ``true_obs`` becomes the last block of ``player``'s window
    and multiplies the weight by its (untrimmed Gaussian) density.  Active
    policies read the pushed window, and the states transition.  Observations
    exist one span at a time, so the actions are the only cloud-sized
    allocations."""
    n, k = pset.n_blocks, pset.k_all
    actions = [np.empty((k, t.action_dim)) for t in block_policies[0]]

    def forward(lo, hi, active):
        # a ragged last span of fewer than n rows leaves the last blocks empty
        for start, thetas in zip(range(lo, hi), block_policies):
            rows = slice(start, hi, n)
            for t, h, a in zip(thetas, pset.hists, actions):
                if (t.mode == ACTIVE) == active:
                    a[rows] = action_block(t, policy_forward(t, h[rows]), 0)

    for lo in range(0, k, n * ROW_BLOCK):
        hi = min(lo + n * ROW_BLOCK, k)
        state = game.unpack_state(pset.states[lo:hi])
        obs = [game.observe(state, i, eps[lo:hi]) for i, eps in enumerate(noise)]
        forward(lo, hi, active=False)
        for h, z in zip([h[lo:hi] for h in pset.hists], obs):
            # ROW_BLOCK rows at a time: span-sized temporaries raised the peak
            # resident set of a two-block 100,000-row cloud by 8 MB
            for r in range(0, hi - lo, ROW_BLOCK):
                h[r:r + ROW_BLOCK] = ag.shift_last(h[r:r + ROW_BLOCK], z[r:r + ROW_BLOCK])
        if condition is not None:
            player, true_obs, mask = condition
            seen = lo + np.flatnonzero(mask[lo:hi])
            pset.hists[player][seen, -true_obs.size:] = true_obs
            pset.weights[seen] *= np.exp(game.obs_logdensity(
                game.unpack_state(pset.states[seen]), player,
                np.broadcast_to(true_obs, (seen.size, true_obs.size))))
        forward(lo, hi, active=True)
        pset.states[lo:hi] = game.pack_state(
            game.transition(state, [a[lo:hi] for a in actions]))
    return actions


def update_particles(pset, game, policies, true_obs, player, gamma, rng,
                     resample_threshold=None):
    """One forward update of the cloud, in place; returns ``pset`` itself.

    Draws the round's observation noise, picks each particle with
    probability ``gamma`` to be conditioned on ``player``'s true observation
    ``true_obs``, and takes the round step (``advance_particles``).  With
    ``true_obs=None`` the update is fully open-loop (gamma treated as zero)
    and the weight vector is left bit-for-bit unchanged.

    ``policies`` is either one per-player list (applied to every particle) or
    one such list per partition block (each candidate policy drives its own
    block).  Weights are renormalized after the sweep; a collapse below
    ``DEGENERACY_FLOOR`` resets them to uniform and flags the set.  Arguments
    are checked before the first write, so a ``ValueError`` leaves the cloud
    as it was.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    per_block = not (policies and isinstance(policies[0], PolicyParams))
    block_policies = policies if per_block else [policies] * pset.n_blocks
    if per_block and len(policies) != pset.n_blocks:
        raise ValueError(f"{len(policies)} candidate policies for {pset.n_blocks} blocks")
    widths = [h.shape[1] for h in pset.hists]
    if any([t.shapes[0][1] for t in thetas] != widths for thetas in block_policies):
        raise ValueError(f"policy input widths differ from the window widths {widths}")
    if true_obs is not None and np.size(true_obs) != game.obs_dim(player):
        raise ValueError(f"true_obs has {np.size(true_obs)} entries, not {game.obs_dim(player)}")

    k = pset.k_all
    noise = observation_noise(game, k, rng)
    condition = None
    if true_obs is not None and gamma > 0.0:
        mask = rng.random(k) < gamma
        if mask.any():
            condition = (player, np.asarray(true_obs, dtype=float).ravel(), mask)
    advance_particles(pset, game, block_policies, noise, condition)

    pset.degenerate = False
    if condition is not None:
        total = pset.weights.sum()
        if total < DEGENERACY_FLOOR:
            pset.weights[:] = 1.0 / k
            pset.degenerate = True
        else:
            pset.weights /= total

    if resample_threshold is not None and effective_sample_size(pset) < resample_threshold:
        systematic_resample(pset, rng)
    return pset


def effective_sample_size(pset):
    w = pset.weights / pset.weights.sum()
    return 1.0 / np.sum(w * w)


def systematic_resample(pset, rng):
    """Optional extension (off by default): systematic resampling to uniform
    weights, written into the set's own arrays; returns ``pset``.  Blocks keep
    their row positions; a position may take a copy of another block's row."""
    k = pset.k_all
    positions = (rng.random() + np.arange(k)) / k
    cum = np.cumsum(pset.weights / pset.weights.sum())
    cum[-1] = 1.0
    idx = np.searchsorted(cum, positions)
    for a in (pset.states, *pset.hists):
        a[:] = a[idx]
    pset.weights[:] = 1.0 / k
    return pset


# ---------------------------------------------------------------------------
# Gaussian diagnostics of a position marginal.
# ---------------------------------------------------------------------------

def gaussian_summary(pset, game, player):
    """Weighted mean and covariance of one player's position marginal,
    regularized by 1e-6 * I so a singular support never fails."""
    x = game.unpack_state(pset.states)[player][0]
    w = pset.weights / pset.weights.sum()
    mean = w @ x
    centered = x - mean
    cov = (centered * w[:, None]).T @ centered + 1e-6 * np.eye(x.shape[1])
    return mean, cov


def surprisal(summary, true_position):
    """Negative log likelihood (nats) of a player's true position under the
    Gaussian fit ``summary``, the ``gaussian_summary`` (mean, covariance) of
    the belief's position marginal for that player."""
    mean, cov = summary
    diff = np.asarray(true_position, dtype=float).ravel() - mean
    dim = mean.size
    sign, logdet = np.linalg.slogdet(cov)
    quad = diff @ np.linalg.solve(cov, diff)
    return 0.5 * (dim * np.log(2.0 * np.pi) + logdet + quad)


def dump_particles(pset, game, fh, step, agent):
    """Append one step of the cloud as columnar text: positions + weights.

    ``agent`` labels whose belief this is (-1 for a shared brain).
    """
    state = game.unpack_state(pset.states)
    for player in range(game.n_players):
        pos = state[player][0]
        for k in range(pset.k_all):
            coords = " ".join(repr(float(c)) for c in pos[k])
            fh.write(f"{step} {agent} {player} {k} {coords} {float(pset.weights[k])!r}\n")
