"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from the spans they record.

Each wrapper is installed at the name its caller looks up (for example
``pogplan.runner.calc_eq``, not ``pogplan.solver.calc_eq``), game methods are
wrapped on the game instance, and Python's cyclic collector is timed through
``gc.callbacks``.  ``Tracer.installed`` removes every wrapper on exit, so
untraced runs execute the original functions.

Round boundaries come from ``stamped_rounds``, which reads the clock once per
round, when the runner builds the round's ``StepRecord``.
"""

from __future__ import annotations

import gc
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

from pogplan import adgraph, beliefs, experiments, runner, solver
from pogplan.adgraph import Node

from stats import percentile, self_time

Span = namedtuple("Span", "name start end parent info")
STAMP = "bench_t_end"          # attribute a stamped StepRecord carries
TRIAL = "experiments.trial"
GAME_METHODS = ("observe", "transition", "reward", "obs_logdensity")


class StampedStepRecord(runner.StepRecord):
    """A StepRecord carrying the clock reading at the end of its round.  A
    class, not a factory, so that records still pickle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        setattr(self, STAMP, perf_counter())


@contextmanager
def stamped_rounds():
    """Make the runner build every round's record as a StampedStepRecord."""
    original = runner.StepRecord
    runner.StepRecord = StampedStepRecord
    try:
        yield
    finally:
        runner.StepRecord = original


def _has_node(x, depth=3):
    if isinstance(x, Node):
        return True
    if depth == 0:
        return False
    if isinstance(x, (list, tuple)):
        return any(_has_node(e, depth - 1) for e in x)
    weights = getattr(x, "weights", None)   # a policy
    return weights is not None and _has_node(weights, depth - 1)


def _taped(args):
    return ".taped" if any(_has_node(a) for a in args) else ".raw"


def _solve_info(args, result):
    return result.iterations, result.converged, result.aborted


def _belief_info(args, pset):
    ess = beliefs.effective_sample_size(pset)
    return pset.k_all, float(ess) / pset.k_all, pset.degenerate


def _tape_info(args, _):
    nodes = args[0].nodes
    ops = [n.op for n in nodes]
    return {"nodes": len(nodes), "slice": ops.count("slice"), "concat": ops.count("concat"),
            "const": ops.count("const"), "bytes": sum(n.value.nbytes for n in nodes)}


class Tracer:
    """Records spans (name, start, end, parent index, info) in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, info=None, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)            # reserve the slot: children point here
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        done = False
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            done = True
            return out
        finally:
            t1 = perf_counter()
            self._stack.pop()
            detail = info(args, out) if (done and info is not None) else None
            self.spans[idx] = Span(name, t0, t1, parent, detail)

    def trial(self, fn, *args):
        """Run one trial under a span; return (result, its spans), the trial
        span first and parents re-indexed from it."""
        start = len(self.spans)
        out = self.call(TRIAL, fn, *args)
        taken = [s._replace(parent=None if s.parent is None or s.parent < start
                            else s.parent - start)
                 for s in self.spans[start:]]
        del self.spans[start:]
        return out, taken

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span("gc", self._gc_start, perf_counter(), parent,
                                   info["generation"]))
            self._gc_start = None

    # -- installation ------------------------------------------------------

    def wrap(self, name, fn, info=None, classify=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            full = name + classify(args) if classify else name
            return self.call(full, fn, *args, info=info, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def wrap_game(self, game):
        for meth in GAME_METHODS:
            classify = None if meth == "obs_logdensity" else _taped
            self._patch(game, meth, self.wrap(f"scenarios.{meth}", getattr(game, meth),
                                              classify=classify))
        return game

    def _traced_trial_game(self, fn):
        @wraps(fn)
        def trial_game(*args, **kwargs):
            return self.wrap_game(fn(*args, **kwargs))
        return trial_game

    @contextmanager
    def installed(self):
        wrap = self.wrap
        targets = [
            (runner, "calc_eq", wrap("solver.calc_eq", runner.calc_eq, info=_solve_info)),
            (runner, "update_particles",
             wrap("beliefs.update", runner.update_particles, info=_belief_info)),
            (runner, "surprisal", wrap("beliefs.surprisal", runner.surprisal)),
            (runner, "act", wrap("runner.act", runner.act)),
            (runner, "policy_forward", wrap("policy.forward", runner.policy_forward,
                                            classify=_taped)),
            (solver, "expected_cost", wrap("solver.grad_step", solver.expected_cost)),
            (solver, "eval_cost", wrap("solver.eval", solver.eval_cost)),
            (solver, "adam_step", wrap("policy.adam_step", solver.adam_step)),
            (solver, "policy_forward", wrap("policy.forward", solver.policy_forward,
                                            classify=_taped)),
            (beliefs, "policy_forward", wrap("policy.forward", beliefs.policy_forward,
                                             classify=_taped)),
            (adgraph.Tape, "backward",
             wrap("adgraph.backward", adgraph.Tape.backward, info=_tape_info)),
            (experiments, "write_trial_record",
             wrap("experiments.record_write", experiments.write_trial_record)),
            (experiments, "trial_game", self._traced_trial_game(experiments.trial_game)),
        ]
        gc.callbacks.append(self._on_gc)
        try:
            for owner, attr, new in targets:
                self._patch(owner, attr, new)
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            while self._undo:
                owner, attr, own, old = self._undo.pop()
                if own:
                    setattr(owner, attr, old)
                else:
                    delattr(owner, attr)


# ---------------------------------------------------------------------------
# Per-layer metrics from recorded spans.
# ---------------------------------------------------------------------------

def rounds_of(record, spans=None):
    """(start, end) of each round of one episode.  Round 0 starts at the
    first solve when spans are given; without them it is left out."""
    ends = [getattr(step, STAMP) for step in record.steps]
    starts = ends[:-1]
    if spans is not None:
        first = [s.start for s in spans if s.name == "solver.calc_eq"]
        if first and ends:
            return list(zip([min(first)] + starts, ends))
    return list(zip(starts, ends[1:]))


def layer_metrics(episodes, loose, fallback, busy_wall):
    """Per-layer metrics from traced episodes.

    ``episodes``: (record, spans) per trial, spans as ``Tracer.trial`` gives
    them; ``loose``: spans recorded outside any trial (record writes,
    collections between episodes); ``busy_wall``: seconds of the traced
    loop; ``fallback``: spans of the traced output
    checks, used for any layer the episodes never reached.  Returns
    {name: (value, sample description)}.
    """
    by = defaultdict(list)
    rounds, round_self = [], []
    for record, spans in episodes:
        for s in spans:
            by[s.name].append(s)
        top = [(s.start, s.end) for s in spans if s.parent == 0]
        for lo, hi in rounds_of(record, spans):
            rounds.append(hi - lo)
            round_self.append(self_time(lo, hi, top))
    for s in loose:
        by[s.name].append(s)
    spare = defaultdict(list)
    for s in fallback:
        spare[s.name].append(s)

    def spans_of(name):
        return by[name] or spare[name]

    def durs(name):
        return [s.end - s.start for s in spans_of(name)]

    def mean(name, scale=1e6):
        d = durs(name)
        return (scale * float(np.mean(d)) if d else 0.0), f"n={len(d)}"

    def p(name, q, scale=1e3):
        pc = percentile(durs(name), q)
        return scale * pc.value, pc.describe()

    n_rounds = max(len(rounds), 1)
    round_total = sum(rounds) or float("nan")
    tapes = [s.info for s in spans_of("adgraph.backward")]
    steps = max(len(tapes), 1)
    nodes = sum(t["nodes"] for t in tapes) or 1
    grad = durs("solver.grad_step")
    back = durs("adgraph.backward")
    solves = [s.info for s in spans_of("solver.calc_eq") if s.info]
    updates = [s.info for s in spans_of("beliefs.update") if s.info]
    gcs = spans_of("gc")
    m = {}
    m["adgraph.nodes_per_step"] = (nodes / steps, f"steps={len(tapes)}")
    for op in ("slice", "concat", "const"):
        m[f"adgraph.{op}_nodes_per_step"] = (sum(t[op] for t in tapes) / steps,
                                             f"steps={len(tapes)}")
    m["adgraph.record_us_per_node"] = (1e6 * (sum(grad) - sum(back)) / nodes, f"nodes={nodes}")
    m["adgraph.backward_us_per_node"] = (1e6 * sum(back) / nodes, f"nodes={nodes}")
    m["adgraph.tape_mb"] = (float(np.mean([t["bytes"] for t in tapes])) / 2**20 if tapes
                            else 0.0, f"tapes={len(tapes)}")
    m["adgraph.gc_pause_ms_per_round"] = (1e3 * sum(s.end - s.start for s in gcs) / n_rounds,
                                          f"collections={len(gcs)}, rounds={len(rounds)}")
    m["adgraph.gc_gen2_per_round"] = (sum(1 for s in gcs if s.info == 2) / n_rounds,
                                      f"rounds={len(rounds)}")
    m["policy.forward_calls_per_step"] = (len(spans_of("policy.forward.taped")) / steps,
                                          f"steps={len(tapes)}")
    m["policy.forward_us.raw"] = mean("policy.forward.raw")
    m["policy.adam_step_us"] = mean("policy.adam_step")
    for meth, path in (("observe", ".taped"), ("observe", ".raw"),
                       ("transition", ".taped"), ("reward", ".taped")):
        m[f"scenarios.{meth}_us{path}"] = mean(f"scenarios.{meth}{path}")
    m["scenarios.obs_logdensity_us"] = mean("scenarios.obs_logdensity")
    m["solver.iters_per_solve"] = (float(np.mean([s[0] for s in solves])) if solves else 0.0,
                                   f"solves={len(solves)}")
    m["solver.converged_frac"] = (float(np.mean([s[1] for s in solves])) if solves else 0.0,
                                  f"solves={len(solves)}")
    m["solver.aborted"] = (float(sum(s[2] for s in solves)), f"solves={len(solves)}")
    m["solver.grad_step_ms.p50"] = p("solver.grad_step", 50)
    m["solver.grad_step_ms.p99"] = p("solver.grad_step", 99)
    m["solver.eval_ms.p50"] = p("solver.eval", 50)
    m["solver.calc_eq_share"] = (sum(durs("solver.calc_eq")) / round_total,
                                 f"rounds={len(rounds)}")
    m["solver.grad_step_share"] = (sum(grad) / round_total, f"rounds={len(rounds)}")
    m["beliefs.update_ms.p50"] = p("beliefs.update", 50)
    particles = sum(u[0] for u in updates) or 1
    m["beliefs.update_ns_per_particle"] = (1e9 * sum(durs("beliefs.update")) / particles,
                                           f"updates={len(updates)}")
    m["beliefs.update_share"] = (sum(durs("beliefs.update")) / round_total,
                                 f"rounds={len(rounds)}")
    m["beliefs.surprisal_us"] = mean("beliefs.surprisal")
    m["beliefs.ess_frac.min"] = (min((u[1] for u in updates), default=0.0),
                                 f"updates={len(updates)}")
    m["beliefs.degenerate"] = (float(sum(u[2] for u in updates)), f"updates={len(updates)}")
    m["runner.act_ms.p50"] = p("runner.act", 50)
    m["runner.round_self_ms"] = (1e3 * float(np.mean(round_self)) if round_self else 0.0,
                                 f"rounds={len(rounds)}")
    m["experiments.pool_busy_frac"] = (sum(durs(TRIAL)) / busy_wall,
                                       f"trials={len(durs(TRIAL))}, 1 process")
    m["experiments.record_write_ms"] = mean("experiments.record_write", 1e3)
    return m
