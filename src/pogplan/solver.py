"""Monte Carlo game objective and gradient-play equilibrium search.

``expected_cost`` estimates one player's finite-horizon cost by rolling the
game out from a weighted batch of belief particles, with observation noise
drawn once per call and held fixed (pathwise reparameterization); the whole
batch is rolled out on one tape, which records only what depends on that
player's policy parameters, so a single backward pass yields the exact
gradient of the estimate with respect to them.

``calc_eq`` runs gradient play: round-robin over players, one Adam step each
on a freshly sampled batch, until every player's cost stops moving on a fixed
common-random-numbers evaluation batch (fresh batches would make the stopping
test fire on noise).

Window convention, shared with the particle update and the real world: at
every step a fresh observation of the *current* state is pushed into each
active player's window before acting.  Passive players read the pre-push
window, frozen at planning time, so their action sequence cannot depend on
any not-yet-realized observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import adgraph as ag
from .adgraph import Tape
from .beliefs import sample_batch
from .policy import (
    ACTIVE,
    action_block,
    adam_init,
    adam_step,
    lift_policy,
    policy_forward,
    policy_leaves,
)


@dataclass
class EquilibriumResult:
    """Outcome of one gradient-play solve."""

    thetas: list
    adam_states: list
    costs: list           # last evaluation-batch cost per player
    deltas: list          # last cost change per player
    iterations: int
    converged: bool
    aborted: bool = False
    adam_skips: int = 0   # Adam updates skipped for a non-finite gradient
    cost_trace: list = field(default_factory=list)   # per player: per-iteration costs
    grad_step_seconds: list = field(default_factory=list)


def draw_noise(game, k, rng):
    """Observation noise for one rollout batch: eps[t][player] ~ N(0, 1)."""
    return [[rng.standard_normal((k, game.noise_dim(i)))
             for i in range(game.n_players)]
            for _ in range(game.t_future)]


def _shift_window(hist, obs, obs_dim):
    return ag.concat([ag.slice_last(hist, obs_dim, hist.shape[-1]), obs])


def _run_rollout(game, state, hists, thetas, eps, cost_players, record=False):
    """Shared rollout engine over Node or ndarray inputs.

    Returns (reward sums per cost player, trajectory record or None).  Only
    active players' observations are sampled unless ``record`` asks for all.
    A passive policy reads only the planning-time window, so its network runs
    once here and each step takes one block of the emitted sequence.
    """
    n = game.n_players
    sequences = {i: policy_forward(thetas[i], hists[i], t_offset=None)
                 for i in range(n) if thetas[i].mode != ACTIVE}
    hists = list(hists)
    acc = {i: None for i in cost_players}
    traj = {"states": [], "observations": [], "actions": []} if record else None

    for t in range(game.t_future):
        step_obs = [None] * n
        for i in range(n):
            if thetas[i].mode == ACTIVE or record:
                z = game.observe(state, i, eps[t][i])
                step_obs[i] = z
                hists[i] = _shift_window(hists[i], z, game.obs_dim(i))
        actions = []
        for i in range(n):
            if thetas[i].mode == ACTIVE:
                actions.append(policy_forward(thetas[i], hists[i]))
            else:
                actions.append(action_block(thetas[i], sequences[i], t))
        state = game.transition(state, actions)
        for i in cost_players:
            r = game.reward(state, i)
            acc[i] = r if acc[i] is None else ag.add(acc[i], r)
        if record:
            traj["states"].append(state)
            traj["observations"].append(step_obs)
            traj["actions"].append(actions)
    return acc, traj


def _batch_inputs(game, pset, idx):
    rows = pset.states[idx]
    state = game.unpack_state(rows)
    hists = [pset.hists[i][idx] for i in range(game.n_players)]
    return state, hists


def expected_cost(game, pset, thetas, player, k_batch, rng):
    """Mean rollout cost for ``player`` over a weighted particle batch and
    its gradient with respect to that player's parameters.

    Only that player's parameters go on the tape; batch rows, windows, noise
    and the opponents' policies enter as plain arrays, so the tape records
    only values a gradient can reach.  The tape checks only what it records,
    so the raw inputs are checked for finiteness once here.  A cost that does
    not depend on the parameters has zero gradients.
    """
    idx = sample_batch(pset, k_batch, rng)
    eps = draw_noise(game, k_batch, rng)
    state, hists = _batch_inputs(game, pset, idx)
    opponents = [leaf for i, th in enumerate(thetas) if i != player
                 for leaf in policy_leaves(th)]
    for source, values in (("particle states", [c for block in state for c in block]),
                           ("observation windows", hists),
                           ("opponent policies", opponents)):
        for value in values:
            ag.check_finite(value, source)

    tape = Tape()
    lifted = list(thetas)
    lifted[player] = lift_policy(tape, thetas[player])
    acc, _ = _run_rollout(game, state, hists, lifted, eps, [player])
    cost = 0.0 if game.t_future == 0 else ag.affine(ag.asum(acc[player]), -1.0 / k_batch, 0.0)
    if not isinstance(cost, ag.Node):
        ag.check_finite(np.asarray(cost), "cost")
        return float(cost), [np.zeros_like(a) for a in policy_leaves(thetas[player])]
    tape.backward(cost)
    return float(cost.value), [leaf.grad for leaf in policy_leaves(lifted[player])]


def evaluation_batch(game, pset, k_batch, rng):
    """Freeze a common-random-numbers batch for convergence tests."""
    idx = sample_batch(pset, k_batch, rng)
    eps = draw_noise(game, k_batch, rng)
    return idx, eps


def run_batch(game, pset, thetas, batch, players=None, record=False):
    """Forward-only batch rollout on a frozen (indices, noise) pair.

    Returns (mean costs per requested player, trajectory record or None);
    the trajectory holds per-step state structures for plan analysis.
    """
    idx, eps = batch
    players = list(range(game.n_players)) if players is None else players
    state, hists = _batch_inputs(game, pset, idx)
    acc, traj = _run_rollout(game, state, hists, thetas, eps, players, record=record)
    if game.t_future == 0:
        costs = {i: 0.0 for i in players}
    else:
        costs = {i: -float(np.sum(acc[i])) / len(idx) for i in players}
    return costs, traj


def eval_cost(game, pset, thetas, player, batch):
    """Forward-only cost of ``player`` on a frozen evaluation batch."""
    return run_batch(game, pset, thetas, batch, [player])[0][player]


def calc_eq(game, pset, thetas, rng, *, eps_tol=1e-3, max_iters=100,
            k_batch=10, lr=1e-3, adam_states=None):
    """Gradient play over particles until the cost deltas settle.

    Round-robin over players: one Adam step on a fresh batch gradient, then a
    cost re-evaluation on the fixed evaluation batch; stop when every
    player's |delta| drops below ``eps_tol`` or after ``max_iters``.  The
    solve aborts, returning the last finite parameters, when
    ``expected_cost`` raises ``FloatingPointError``: a non-finite particle
    state, window or opponent weight, a non-finite value recorded on the
    tape (see :mod:`pogplan.adgraph` for which ops check), or a non-finite
    cost.  It also aborts on a non-finite evaluation cost.  A finite rollout
    whose gradient is non-finite skips that player's Adam update;
    ``adam_skips`` counts these, and an iteration with a skip never counts
    as converged.
    Warm starts: pass the previous round's thetas/adam_states.
    """
    n = game.n_players
    thetas = [th.copy() for th in thetas]
    if adam_states is None:
        adam_states = [adam_init(th, lr=lr) for th in thetas]
    else:
        adam_states = [st.copy() for st in adam_states]
    batch = evaluation_batch(game, pset, k_batch, rng)

    prev = [np.inf] * n
    deltas = [np.inf] * n
    trace = [[] for _ in range(n)]
    times = []
    converged = False
    aborted = False
    adam_skips = 0
    iterations = 0

    for _ in range(max_iters):
        iterations += 1
        skips_before = adam_skips
        for i in range(n):
            backup = thetas[i]
            t0 = time.perf_counter()
            try:
                _, grads = expected_cost(game, pset, thetas, i, k_batch, rng)
            except FloatingPointError:
                thetas[i] = backup
                aborted = True
                break
            thetas[i], adam_states[i], skipped = adam_step(thetas[i], grads, adam_states[i])
            adam_skips += skipped
            times.append(time.perf_counter() - t0)
            c = eval_cost(game, pset, thetas, i, batch)
            if not np.isfinite(c):
                thetas[i] = backup
                aborted = True
                break
            deltas[i] = c - prev[i]
            prev[i] = c
            trace[i].append(c)
        if aborted:
            break
        # A skipped update leaves its parameters unchanged, so its delta is
        # zero by construction and says nothing about convergence.
        if adam_skips == skips_before and all(abs(d) < eps_tol for d in deltas):
            converged = True
            break

    return EquilibriumResult(thetas=thetas, adam_states=adam_states,
                             costs=list(prev), deltas=list(deltas),
                             iterations=iterations, converged=converged,
                             aborted=aborted, adam_skips=adam_skips, cost_trace=trace,
                             grad_step_seconds=times)
