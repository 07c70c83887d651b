"""The benchmark's tracer patches program functions by name from outside the
program.  Entering and leaving its hooks here catches a rename in ``src``
that would break a traced benchmark run, and binding the benchmark's calls
to the program's signatures catches a signature change.  The benchmark's
fixed-seed golden values are checked here too, so a change to the numbers
fails the test suite before it reaches a benchmark run."""

import ast
import gc
import glob
import importlib
import inspect
import os
import sys

import pytest

from pogplan import adgraph, beliefs, experiments, runner, solver
from pogplan.config import ExperimentConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")

PATCHED = [
    (runner, "calc_eq"), (runner, "update_particles"), (runner, "surprisal"),
    (runner, "act"), (runner, "policy_forward"),
    (solver, "expected_cost"), (solver, "eval_cost"), (solver, "adam_step"),
    (solver, "policy_forward"), (beliefs, "policy_forward"),
    (adgraph.Tape, "backward"),
    (experiments, "write_trial_record"), (experiments, "trial_game"),
]


def _bench_module(monkeypatch, name, *imports):
    """Import the benchmark's top-level module ``name``, which imports the
    benchmark's ``imports``, without writing bytecode under the benchmark;
    yields it, then forgets all of them."""
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module(name)
    for module in (name, *imports):
        sys.modules.pop(module, None)


@pytest.fixture
def tracing(monkeypatch):
    yield from _bench_module(monkeypatch, "tracing", "stats")


@pytest.fixture
def checks(monkeypatch):
    yield from _bench_module(monkeypatch, "checks", "workloads")


def test_golden_values_match_the_recorded_ones(checks):
    """``expected_cost`` and ``update_particles`` at the benchmark's fixed
    seeds give the values in ``perfbench/golden.json``."""
    assert checks.compare_golden(checks.golden_values(), checks.load_golden()["values"]) == {}


@pytest.mark.parametrize("brain, combo, digest, solves", [
    ("shared", ("passive", "active"), "2438a07b39c48c18", 4),
    ("separate", ("active", "active"), "37633ac0b8787461", 8),
])
def test_benchmark_view_of_a_record_is_pinned(checks, brain, combo, digest, solves):
    """The benchmark reads a round's record through ``checks.digest`` and
    through ``harness.solve_counts``, which counts the entries of
    ``solve_iterations``; two short fixed-seed episodes give the values
    recorded here, so a change to how a round is recorded cannot move
    either."""
    workloads = importlib.import_module("workloads")   # on the path the fixture set
    cfg = ExperimentConfig(**dict(workloads.PAPER, brain=brain, episode_steps=2, max_iters=3,
                                  k_all=200, n_eq=(2,), seed=5))
    _, record = workloads.play(cfg, combo, cfg.seed)
    assert checks.digest(record) == digest
    assert sum(len(c) for s in record.steps for c in s.solve_iterations) == solves


def test_stamped_rounds_swaps_and_restores_step_record(tracing):
    original = runner.StepRecord
    with tracing.stamped_rounds():
        assert runner.StepRecord is tracing.StampedStepRecord
    assert runner.StepRecord is original


def test_tracer_patches_every_hook_and_restores_it(tracing):
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    callbacks = list(gc.callbacks)
    cfg = ExperimentConfig(t_past=2, t_future=2)
    with tracing.Tracer().installed():
        for (owner, attr), original in zip(PATCHED, originals):
            assert getattr(owner, attr) is not original, attr
        game = experiments.trial_game(cfg, 0)
        for meth in tracing.GAME_METHODS:   # wrapped on the instance
            assert meth in vars(game), meth
    for (owner, attr), original in zip(PATCHED, originals):
        assert getattr(owner, attr) is original, attr
    assert gc.callbacks == callbacks
    assert not any(meth in vars(game) for meth in tracing.GAME_METHODS)


def test_traced_belief_updates_read_what_the_round_records(tracing):
    """The tracer takes k_all, the ESS fraction and the reset flag from the
    set that ``update_particles`` returns; in a traced separate-brain round
    they equal what the round's record keeps for each agent."""
    cfg = ExperimentConfig(brain="separate", episode_steps=1, max_iters=2, k_all=40,
                           k_batch=4, hidden=(4,), t_past=2, t_future=2, gamma=0.5)
    with tracing.Tracer().installed() as tracer:
        game = experiments.trial_game(cfg, 3)
        record = runner.run_episode(game, experiments.episode_options(cfg, ("active",) * 2), 3)
    step, = record.steps
    updates = [s.info for s in tracer.spans if s.name == "beliefs.update"]
    assert len(updates) == game.n_players
    assert updates == [(cfg.k_all, *step.belief_health[p]) for p in range(game.n_players)]


# Every span name ``tracing.layer_metrics`` reads from a traced episode,
# except the collector's "gc", which a short episode may never record.
EPISODE_SPANS = (
    "experiments.trial", "solver.calc_eq", "solver.grad_step", "solver.eval",
    "adgraph.backward", "policy.forward.taped", "policy.forward.raw", "policy.adam_step",
    "scenarios.observe.taped", "scenarios.observe.raw", "scenarios.transition.taped",
    "scenarios.reward.taped", "scenarios.obs_logdensity", "beliefs.update",
    "beliefs.surprisal", "runner.act",
)


def test_a_traced_episode_records_every_span_the_layer_metrics_read(tracing):
    """A one-round, separate-brain, conditioned tag episode records each
    span in ``EPISODE_SPANS``, and those are all the metrics read: renaming
    every other span changes no metric.  The world's round step runs its
    policies under ``runner.act``, so a refactor of the step cannot leave a
    per-layer metric with no samples."""
    cfg = ExperimentConfig(brain="separate", episode_steps=1, max_iters=2, k_all=40,
                           k_batch=4, hidden=(4,), t_past=2, t_future=2, gamma=0.5)
    tracer = tracing.Tracer()
    with tracing.stamped_rounds(), tracer.installed():
        game = experiments.trial_game(cfg, 3)
        record, spans = tracer.trial(runner.run_episode, game,
                                     experiments.episode_options(cfg, ("active",) * 2), 3)
    names = {s.name for s in spans}
    assert not set(EPISODE_SPANS) - names, set(EPISODE_SPANS) - names
    acts = [i for i, s in enumerate(spans) if s.name == "runner.act"]
    assert any(s.parent in acts and s.name == "policy.forward.raw" for s in spans)

    kept = [s if s.name in EPISODE_SPANS or s.name == "gc" else s._replace(name="unread")
            for s in spans]
    metrics = tracing.layer_metrics([(record, spans)], [], [], busy_wall=1.0)
    assert tracing.layer_metrics([(record, kept)], [], [], busy_wall=1.0) == metrics


def _pogplan_calls(path):
    """(dotted name, call) for every call in one benchmark file to a name it
    imports from ``pogplan`` or to an attribute of one."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = {}   # local name -> dotted pogplan name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pogplan":
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({a.asname or a.name: a.name for a in node.names
                          if a.name.split(".")[0] == "pogplan"})
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in bound:
            calls.append((".".join([bound[func.id], *parts]), node))
    return calls


def _resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_benchmark_calls_bind_to_the_program_signatures():
    """Every call ``perfbench/*.py`` makes to a ``pogplan`` function or
    class binds, by its positional and keyword shape, to that callable's
    signature, e.g. ``experiments.write_trial_record(record, game, cfg,
    label, path)`` inside the benchmark's timed loop."""
    checked, broken = set(), []
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        for dotted, call in _pogplan_calls(path):
            where = f"{os.path.basename(path)}:{call.lineno} {dotted}"
            try:
                target = _resolve(dotted)
            except (ImportError, AttributeError) as exc:
                broken.append(f"{where}: {exc}")
                continue
            if not callable(target) or any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                continue   # a module, or a shape known only at run time
            try:
                inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                broken.append(f"{where}: {exc}")
            checked.add(dotted)
    assert not broken, broken
    assert {"pogplan.experiments.write_trial_record",
            "pogplan.experiments.modes_for_combo"} <= checked
