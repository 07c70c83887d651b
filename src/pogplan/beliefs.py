"""Particle approximation of the joint state / observation-history law.

The planner never tracks a belief hierarchy.  Instead every agent keeps one
weighted particle cloud over the *joint* quantity (all players' states, all
players' recent observation windows).  Each planning round the cloud is
pushed forward open-loop under the current equilibrium policies; a small
fraction ``gamma`` of particles is additionally conditioned on the agent's
own true observation and reweighted by its likelihood, trading opponent-model
fidelity for closed-loop accuracy.

The round step of every cloud, beliefs and the one-row true world of
``runner`` alike, is defined here once: ``observe_particles``, then
``advance_particles``; ``update_particles`` conditions between the two.

Weights are renormalized whenever a conditioning step changed them (an
unconditioned update is an exact fixed point of the weight vector).  There is
no resampling step by default; an optional effective-sample-size triggered
systematic resampler is provided as a clearly flagged extension for long
episodes.

An update advances the cloud in place and returns the same ``ParticleSet``:
callers must not keep views of its arrays across an update.  Partition blocks
are strided slices, so a block's states and windows are views, not copies.
Policies run over the cloud in slices of ``ROW_BLOCK`` rows, so each layer's
intermediate stays in cache instead of spilling a cloud-sized temporary to
memory on every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .policy import ACTIVE, PolicyParams, policy_forward

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
    blocks: list                # slice(p, K, n_eq) per block p; read-only, shared
    degenerate: bool = False    # set when a weight collapse forced a reset

    @property
    def k_all(self):
        return self.states.shape[0]


def round_robin_partition(k_all, n_eq):
    """n_eq disjoint, exhaustive strided slices with sizes differing by <= 1."""
    return [slice(p, k_all, n_eq) for p in range(n_eq)]


def init_particles(game, k_all, n_eq, rng):
    """Fresh cloud: states i.i.d. from the initial distribution, zero-filled
    observation windows, uniform weights, round-robin partition."""
    if k_all < n_eq or n_eq < 1:
        raise ValueError(f"need k_all >= n_eq >= 1, got {k_all}, {n_eq}")
    states = game.pack_state(game.sample_initial(rng, k_all))
    hists = [np.zeros((k_all, game.t_past * game.obs_dim(i)))
             for i in range(game.n_players)]
    weights = np.full(k_all, 1.0 / k_all)
    return ParticleSet(states=states, hists=hists, weights=weights,
                       blocks=round_robin_partition(k_all, n_eq))


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


def _forward(theta, hist, out):
    """Write ``theta``'s actions for the rows of ``hist`` into ``out``; a
    passive policy's action is its sequence's first block."""
    for lo in range(0, hist.shape[0], ROW_BLOCK):
        out[lo:lo + ROW_BLOCK] = policy_forward(theta, hist[lo:lo + ROW_BLOCK])[:, :theta.action_dim]


def observe_particles(pset, game, rng):
    """Fresh joint observations of every row's current state, one array per
    player.  None aliases the cloud (an exactly seen state is copied), so each
    can be overwritten and outlives the states' in-place advance."""
    state = game.unpack_state(pset.states)
    obs = []
    for i in range(game.n_players):
        eps = rng.standard_normal((pset.k_all, game.noise_dim(i)))
        z = np.asarray(game.observe(state, i, eps))
        obs.append(z.copy() if np.may_share_memory(z, pset.states) else z)
    return obs


def advance_particles(pset, game, block_policies, obs):
    """The open-loop round step of every row, in place, each block under its
    own per-player policies; returns every row's actions, one array per
    player.  Passive policies read the pre-push window, the windows take
    ``obs``, active policies read the pushed window, and the states
    transition.  Windows and states go a ``ROW_BLOCK``-row chunk at a time,
    so the actions are the only cloud-sized allocations."""
    actions = [np.empty((pset.k_all, t.action_dim)) for t in block_policies[0]]

    def forward(active):
        for block, thetas in zip(pset.blocks, block_policies):
            for t, h, a in zip(thetas, pset.hists, actions):
                if (t.mode == ACTIVE) == active:
                    _forward(t, h[block], a[block])

    forward(active=False)
    for h, z in zip(pset.hists, obs):   # ag.shift_last in place, by chunks
        width, lo = h.shape[1], z.shape[1]
        for r in range(0, pset.k_all, ROW_BLOCK):
            h[r:r + ROW_BLOCK, :width - lo] = h[r:r + ROW_BLOCK, lo:]
            h[r:r + ROW_BLOCK, width - lo:] = z[r:r + ROW_BLOCK]
    forward(active=True)
    for r in range(0, pset.k_all, ROW_BLOCK):
        rows = game.unpack_state(pset.states[r:r + ROW_BLOCK])
        pset.states[r:r + ROW_BLOCK] = game.pack_state(
            game.transition(rows, [a[r:r + ROW_BLOCK] for a in actions]))
    return actions


def update_particles(pset, game, policies, true_obs, player, gamma, rng,
                     resample_threshold=None):
    """One forward update of the cloud, in place; returns ``pset`` itself.

    Per particle: draw a fresh joint observation of its current state
    (``observe_particles``); with probability ``gamma`` overwrite
    ``player``'s component with the true observation ``true_obs`` and
    multiply the weight by that observation's (untrimmed Gaussian) density
    under the particle state; then take the round step
    (``advance_particles``).  With ``true_obs=None`` the update is fully
    open-loop (gamma treated as zero) and the weight vector is left
    bit-for-bit unchanged.

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
    block_policies = policies if per_block else [policies] * len(pset.blocks)
    if per_block and len(policies) != len(pset.blocks):
        raise ValueError(f"{len(policies)} candidate policies for {len(pset.blocks)} blocks")
    widths = [h.shape[1] for h in pset.hists]
    if any([t.input_width for t in thetas] != widths for thetas in block_policies):
        raise ValueError(f"policy input widths differ from the window widths {widths}")
    if true_obs is not None and np.size(true_obs) != game.obs_dim(player):
        raise ValueError(f"true_obs has {np.size(true_obs)} entries, not {game.obs_dim(player)}")

    k = pset.k_all
    obs = observe_particles(pset, game, rng)
    conditioned = False
    if true_obs is not None and gamma > 0.0:
        mask = rng.random(k) < gamma
        if np.any(mask):
            conditioned = True
            z_bar = np.asarray(true_obs, dtype=float).reshape(1, -1)
            obs[player][mask] = z_bar
            rows = game.unpack_state(pset.states[mask])
            logd = game.obs_logdensity(rows, player, np.broadcast_to(z_bar, (int(mask.sum()), z_bar.shape[1])))
            pset.weights[mask] = pset.weights[mask] * np.exp(logd)

    advance_particles(pset, game, block_policies, obs)

    pset.degenerate = False
    if conditioned:
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
    weights, written into the set's own arrays; returns ``pset``.  Partition
    blocks keep their index positions."""
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

def _position_columns(game, player):
    off = game.state_offset(player)
    width = game.state_comps(player)[0]
    return slice(off, off + width)


def gaussian_summary(pset, game, player):
    """Weighted mean and covariance of one player's position marginal,
    regularized by 1e-6 * I so a singular support never fails."""
    cols = _position_columns(game, player)
    x = pset.states[:, cols]
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


def dump_particles(pset, game, fh, step, agent=-1):
    """Append one step of the cloud as columnar text: positions + weights.

    ``agent`` labels whose belief this is (-1 for a shared brain).
    """
    for player in range(game.n_players):
        cols = _position_columns(game, player)
        pos = pset.states[:, cols]
        for k in range(pset.k_all):
            coords = " ".join(repr(float(c)) for c in pos[k])
            fh.write(f"{step} {agent} {player} {k} {coords} {float(pset.weights[k])!r}\n")
