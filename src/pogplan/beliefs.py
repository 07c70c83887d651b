"""Particle approximation of the joint state / observation-history law.

The planner never tracks a belief hierarchy.  Instead every agent keeps one
weighted particle cloud over the *joint* quantity (all players' states, all
players' recent observation windows).  Each planning round the cloud is
pushed forward open-loop under the current equilibrium policies; a small
fraction ``gamma`` of particles is additionally conditioned on the agent's
own true observation and reweighted by its likelihood, trading opponent-model
fidelity for closed-loop accuracy.

Weights are renormalized whenever a conditioning step changed them (an
unconditioned update is an exact fixed point of the weight vector).  There is
no resampling step by default; an optional effective-sample-size triggered
systematic resampler is provided as a clearly flagged extension for long
episodes.

Policies run over the cloud in slices of ``ROW_BLOCK`` rows, so each layer's
intermediate stays in cache instead of spilling a cloud-sized temporary to
memory on every layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .policy import ACTIVE, policy_forward

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
    blocks: list                # disjoint index arrays covering range(K)
    degenerate: bool = False    # set when a weight collapse forced a reset

    @property
    def k_all(self):
        return self.states.shape[0]

    def copy(self):
        return ParticleSet(states=self.states.copy(),
                           hists=[h.copy() for h in self.hists],
                           weights=self.weights.copy(),
                           blocks=[b.copy() for b in self.blocks],
                           degenerate=self.degenerate)


def round_robin_partition(k_all, n_eq):
    """n_eq disjoint, exhaustive index sets with sizes differing by <= 1."""
    return [np.arange(p, k_all, n_eq) for p in range(n_eq)]


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


def sample_batch(pset, k_batch, rng):
    """Indices of k_batch particles drawn i.i.d. proportional to weight,
    with replacement."""
    total = pset.weights.sum()
    if not total > 0.0:
        raise ValueError("cannot sample a batch: all particle weights are zero")
    p = pset.weights / total
    return rng.choice(pset.k_all, size=k_batch, replace=True, p=p)


def _apply_policies(game, policies, new_hists, old_hists, idx):
    # Active policies read the freshly pushed window; passive ones read the
    # pre-push window (their plans never depend on the newest observation),
    # matching the rollout and real-world conventions.
    actions = []
    for i in range(game.n_players):
        hist = (new_hists[i] if policies[i].mode == ACTIVE else old_hists[i])[idx]
        actions.append(np.concatenate([
            policy_forward(policies[i], hist[lo:lo + ROW_BLOCK], t_offset=0)
            for lo in range(0, len(idx), ROW_BLOCK)]))
    return actions


def update_particles(pset, game, policies, true_obs, player, gamma, rng,
                     resample_threshold=None):
    """One forward update of the cloud (returns a new ParticleSet).

    Per particle: draw a fresh joint observation of its current state; with
    probability ``gamma`` overwrite ``player``'s component with the true
    observation ``true_obs`` and multiply the weight by that observation's
    (untrimmed Gaussian) density under the particle state; shift the windows;
    advance the state with the policies applied to each particle's own
    window.  With ``true_obs=None`` the update is fully open-loop (gamma
    treated as zero) and the weight vector is returned bit-for-bit unchanged.

    ``policies`` is either one per-player list (applied to every particle) or
    one such list per partition block (each candidate policy drives its own
    block).  Weights are renormalized after the sweep; a collapse below
    ``DEGENERACY_FLOOR`` resets them to uniform and flags the set.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    per_block = not _is_policy_list(policies)
    block_policies = policies if per_block else [policies] * len(pset.blocks)
    if per_block and len(policies) != len(pset.blocks):
        raise ValueError(f"{len(policies)} candidate policies for {len(pset.blocks)} blocks")

    k = pset.k_all
    state = game.unpack_state(pset.states)
    new_weights = pset.weights.copy()
    conditioned = False

    # Fresh joint observations of the current states, one draw per player.
    obs = []
    for i in range(game.n_players):
        eps = rng.standard_normal((k, game.noise_dim(i)))
        obs.append(np.asarray(game.observe(state, i, eps)))

    if true_obs is not None and gamma > 0.0:
        mask = rng.random(k) < gamma
        if np.any(mask):
            conditioned = True
            z_bar = np.asarray(true_obs, dtype=float).reshape(1, -1)
            obs[player] = obs[player].copy()
            obs[player][mask] = z_bar
            rows = game.unpack_state(pset.states[mask])
            logd = game.obs_logdensity(rows, player, np.broadcast_to(z_bar, (int(mask.sum()), z_bar.shape[1])))
            new_weights[mask] = new_weights[mask] * np.exp(logd)

    # Shift every window by one observation.
    new_hists = []
    for i in range(game.n_players):
        zdim = game.obs_dim(i)
        new_hists.append(np.concatenate([pset.hists[i][:, zdim:], obs[i]], axis=1))

    # Advance each block's particles under its own candidate policy.
    new_states = np.empty_like(pset.states)
    for block, thetas in zip(pset.blocks, block_policies):
        actions = _apply_policies(game, thetas, new_hists, pset.hists, block)
        rows = game.unpack_state(pset.states[block])
        new_states[block] = game.pack_state(game.transition(rows, actions))

    degenerate = False
    if conditioned:
        total = new_weights.sum()
        if total < DEGENERACY_FLOOR:
            new_weights[:] = 1.0 / k
            degenerate = True
        else:
            new_weights = new_weights / total

    out = ParticleSet(states=new_states, hists=new_hists, weights=new_weights,
                      blocks=[b.copy() for b in pset.blocks], degenerate=degenerate)
    if resample_threshold is not None and effective_sample_size(out) < resample_threshold:
        out = systematic_resample(out, rng)
    return out


def _is_policy_list(policies):
    return len(policies) > 0 and hasattr(policies[0], "weights")


def effective_sample_size(pset):
    w = pset.weights / pset.weights.sum()
    return 1.0 / np.sum(w * w)


def systematic_resample(pset, rng):
    """Optional extension (off by default): systematic resampling to uniform
    weights.  Partition blocks keep their index positions."""
    k = pset.k_all
    positions = (rng.random() + np.arange(k)) / k
    cum = np.cumsum(pset.weights / pset.weights.sum())
    cum[-1] = 1.0
    idx = np.searchsorted(cum, positions)
    return ParticleSet(states=pset.states[idx].copy(),
                       hists=[h[idx].copy() for h in pset.hists],
                       weights=np.full(k, 1.0 / k),
                       blocks=[b.copy() for b in pset.blocks],
                       degenerate=pset.degenerate)


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


def surprisal(pset, game, player, true_position):
    """Negative log likelihood (nats) of the true position under the
    Gaussian fit of the belief's position marginal for ``player``."""
    mean, cov = gaussian_summary(pset, game, player)
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
