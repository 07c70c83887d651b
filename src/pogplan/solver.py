"""Monte Carlo game objective and gradient-play equilibrium search.

``expected_cost`` estimates one player's finite-horizon cost by rolling the
game out from a weighted batch of belief particles, with observation noise
drawn once per call and held fixed (pathwise reparameterization); the whole
batch is rolled out on one tape, which records only what depends on that
player's policy parameters, so a single backward pass yields the exact
gradient of the estimate with respect to them.

``calc_eq`` runs gradient play: round-robin over players, one Adam step each
on a freshly sampled batch, until every player's gradient norm is small in
the same iteration (the first-order Nash condition, tested on the gradients
the steps already compute).  The solved policies are then scored once on a
common-random-numbers evaluation batch frozen at the start of the solve.

Window convention, the one ``beliefs.advance_particles`` defines for the
particle update and the real world: at every step a fresh observation of the
*current* state is pushed into each active player's window before acting.
Passive players read the pre-push window, frozen at planning time, so their
action sequence cannot depend on any not-yet-realized observation.  The
rollout keeps its own step on tape nodes: only active players observe, and a
passive player takes one block per step of a sequence emitted once.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import adgraph as ag
from .adgraph import Tape
from .beliefs import sample_batch, sampling_cdf
from .policy import (
    ACTIVE,
    action_block,
    adam_init,
    adam_step,
    policy_forward,
)


@dataclass
class EquilibriumResult:
    """Outcome of one gradient-play solve."""

    thetas: list
    adam_states: list
    costs: list           # evaluation-batch cost per player; nan after an abort
    grad_norms: list      # last gradient L2 norm per player
    iterations: int
    converged: bool
    aborted: bool = False
    cost_trace: list = field(default_factory=list)   # per player: per-iteration batch costs
    grad_step_seconds: list = field(default_factory=list)


def draw_noise(game, k, rng):
    """Observation noise for one rollout batch: eps[t][player] ~ N(0, 1)."""
    return [[rng.standard_normal((k, game.noise_dim(i)))
             for i in range(game.n_players)]
            for _ in range(game.t_future)]


@np.errstate(over="ignore")
def _run_rollout(game, state, hists, thetas, eps, cost_players):
    """Shared rollout engine over Node or ndarray inputs: the batch total of
    each of ``cost_players``' reward sums, keyed by player (0.0 without
    steps).

    Only active players observe; a passive policy reads only the
    planning-time window, so its network runs once here and each step takes
    one block of the emitted sequence.  An overflow prints no numpy warning:
    the tape's finiteness checks raise on it, and a raw total comes out
    non-finite for the caller to flag.
    """
    n = game.n_players
    sequences = {i: policy_forward(thetas[i], hists[i])
                 for i in range(n) if thetas[i].mode != ACTIVE}
    hists = list(hists)
    acc = {i: None for i in cost_players}

    for t in range(game.t_future):
        for i in range(n):
            if thetas[i].mode == ACTIVE:
                hists[i] = ag.shift_last(hists[i], game.observe(state, i, eps[t][i]))
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
    return {i: 0.0 if r is None else ag.asum(r) for i, r in acc.items()}


def _batch_inputs(game, pset, idx):
    rows = pset.states[idx]
    state = game.unpack_state(rows)
    hists = [pset.hists[i][idx] for i in range(game.n_players)]
    return state, hists


def expected_cost(game, pset, thetas, player, k_batch, rng, cdf=None):
    """Mean rollout cost for ``player`` over a weighted particle batch and
    its gradient with respect to that player's parameters: ``(cost, grad)``,
    ``grad`` one array in ``PolicyParams.flat`` order.

    Only that player's parameter vector goes on the tape, as one leaf; batch
    rows, windows, noise and the opponents' policies enter as plain arrays,
    so the tape records only values a gradient can reach.  The tape checks
    only what it records, so the raw inputs are checked for finiteness once
    here.  A cost that does not depend on the parameters has zero gradients.  ``cdf``, the
    ``sampling_cdf`` of ``pset.weights``, saves rebuilding it per call.
    """
    idx, eps = evaluation_batch(game, pset, k_batch, rng, cdf)
    state, hists = _batch_inputs(game, pset, idx)
    opponents = [th.flat for i, th in enumerate(thetas) if i != player]
    for source, values in (("particle states", [c for block in state for c in block]),
                           ("observation windows", hists),
                           ("opponent policies", opponents)):
        for value in values:
            ag.check_finite(value, source)

    tape = Tape()
    lifted = list(thetas)
    lifted[player] = replace(thetas[player], flat=tape.param(thetas[player].flat))
    total = _run_rollout(game, state, hists, lifted, eps, [player])[player]
    cost = ag.affine(total, -1.0 / k_batch, 0.0)
    if not isinstance(cost, ag.Node):
        ag.check_finite(np.asarray(cost), "cost")
        return float(cost), np.zeros_like(thetas[player].flat)
    tape.backward(cost)
    return float(cost.value), lifted[player].flat.grad


def evaluation_batch(game, pset, k_batch, rng, cdf=None):
    """One rollout batch, ``(indices, noise)``: particle rows drawn by weight,
    then observation noise.  ``calc_eq`` freezes one as the common random
    numbers that score a solve's final costs; ``cdf``, the ``sampling_cdf``
    of ``pset.weights``, saves rebuilding it per call."""
    idx = sample_batch(sampling_cdf(pset.weights) if cdf is None else cdf, k_batch, rng)
    return idx, draw_noise(game, k_batch, rng)


def eval_cost(game, pset, thetas, players, batch):
    """Forward-only mean costs of ``players`` on a frozen (indices, noise)
    batch, from one rollout: a list aligned with ``players``."""
    idx, eps = batch
    state, hists = _batch_inputs(game, pset, idx)
    totals = _run_rollout(game, state, hists, thetas, eps, players)
    if game.t_future == 0:
        return [0.0] * len(players)
    return [-float(totals[i]) / len(idx) for i in players]


def calc_eq(game, pset, thetas, rng, *, eps_tol=1e-3, max_iters=100,
            k_batch=10, lr=1e-3, adam_states=None):
    """Gradient play over particles until every player's gradient is small.

    Round-robin over players: one Adam step each on a fresh batch gradient.
    A player passes when the L2 norm of that gradient, over all of its
    parameters, is below ``eps_tol``; the solve stops when every player
    passes in the same iteration, or after ``max_iters``.  An iteration in
    which any Adam update was skipped never counts as converged.  After the
    loop, every player's cost is evaluated by one rollout of an evaluation
    batch drawn at the start of the solve; ``cost_trace`` holds the
    per-iteration costs of the fresh gradient batches.

    The solve aborts, keeping the parameters it has, when ``expected_cost``
    raises ``FloatingPointError``: a non-finite particle state, window or
    opponent weight, a non-finite value recorded on the tape (see
    :mod:`pogplan.adgraph` for which ops check), or a non-finite cost.  A
    non-finite final evaluation cost also marks the solve aborted.  A finite
    rollout whose gradient is non-finite skips that player's Adam update,
    which leaves that player's ``AdamState.step`` where it was.

    The cyclic garbage collector is paused for the solve, since its tapes
    hold no reference cycles and are freed by reference counting; the
    caller's collector state is restored on every exit, raising included.
    Warm starts: pass the previous round's thetas/adam_states.  A
    ``k_batch`` below 1 raises ``ValueError`` before any draw.
    """
    if k_batch < 1:
        raise ValueError(f"k_batch must be at least 1, got {k_batch}")
    n = game.n_players
    thetas = [th.copy() for th in thetas]
    if adam_states is None:
        adam_states = [adam_init(th, lr=lr) for th in thetas]
    else:
        adam_states = [st.copy() for st in adam_states]
    cdf = sampling_cdf(pset.weights)   # the weights are fixed for the solve
    batch = evaluation_batch(game, pset, k_batch, rng, cdf)

    costs = [np.nan] * n
    grad_norms = [np.inf] * n
    trace = [[] for _ in range(n)]
    times = []
    converged = False
    aborted = False
    iterations = 0

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max_iters):
            iterations += 1
            for i in range(n):
                t0 = time.perf_counter()
                try:
                    cost, grad = expected_cost(game, pset, thetas, i, k_batch, rng, cdf)
                except FloatingPointError:
                    aborted = True
                    break
                thetas[i], adam_states[i] = adam_step(thetas[i], grad, adam_states[i])
                times.append(time.perf_counter() - t0)
                # a skipped update's gradient is non-finite, so its norm never
                # passes: an iteration with a skip cannot converge
                grad_norms[i] = float(np.sqrt(np.vdot(grad, grad)))
                trace[i].append(cost)
            if aborted:
                break
            if all(g < eps_tol for g in grad_norms):
                converged = True
                break
        if not aborted:
            costs = eval_cost(game, pset, thetas, list(range(n)), batch)
            if not np.all(np.isfinite(costs)):
                aborted = True
                converged = False
    finally:
        if gc_was_enabled:
            gc.enable()

    return EquilibriumResult(thetas=thetas, adam_states=adam_states,
                             costs=costs, grad_norms=grad_norms,
                             iterations=iterations, converged=converged,
                             aborted=aborted, cost_trace=trace,
                             grad_step_seconds=times)
