"""Tests of the benchmark's own logic (not of the planner)."""

import gc
import json
import os
from dataclasses import fields, replace

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import harness
import hostspeed
import tracing
import workloads
from benchenv import ROOT
from pogplan import adgraph, beliefs, experiments, runner, solver
from pogplan.config import ExperimentConfig
from stats import MIN_BEYOND, percentile, self_time, spread


# -- percentiles with sample counts ------------------------------------------

def test_percentile_reports_value_and_sample_count():
    p = percentile(range(1, 10), 50)
    assert (p.value, p.n, p.beyond) == (5.0, 9, 4)
    assert p.describe() == "n=9, unresolved: 4 beyond"


def test_tail_percentile_resolved_only_with_ten_samples_beyond():
    p = percentile(np.arange(900.0), 99)
    assert p.beyond == 9 and not p.resolved
    p = percentile(np.arange(1000.0), 99)
    assert p.resolved and p.beyond == MIN_BEYOND
    assert p.describe() == "n=1000"


def test_percentile_of_nothing_is_flagged_zero():
    p = percentile([], 50)
    assert (p.value, p.n, p.resolved) == (0.0, 0, False)


def test_spread_is_iqr_over_median():
    med, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert med == 3.0 and rel == pytest.approx((4.5 - 1.5) / 3.0)


# -- host-speed correction ---------------------------------------------------

def test_times_are_scaled_to_nominal_host_speed():
    assert hostspeed.factor(2 * hostspeed.NOMINAL_S) == 0.5
    step = SimpleNamespace(**{tracing.STAMP: 0.0})
    late = SimpleNamespace(**{tracing.STAMP: 3.0})
    record = SimpleNamespace(steps=[step, late])
    # the host ran at half speed: 4 s raw for two rounds is 2 s at nominal speed
    timed = harness.Timed(cfg=None, trials=[harness.Trial(1, record, None, 4.0, 0.5)],
                          wall=4.0)
    assert timed.rounds_per_s() == 1.0 and timed.rounds_per_s(corrected=False) == 0.5
    assert timed.round_p50().value == 1.5 and timed.round_p50(corrected=False).value == 3.0


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # overlapping children count once; parts outside the parent are clipped
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0), (-2.0, -1.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)


def test_self_time_without_children_is_the_duration():
    assert self_time(2.0, 5.0, []) == 3.0


# -- wrappers ----------------------------------------------------------------

def _tiny(cfg_seed=0):
    wl = workloads.WORKLOADS["tag-shared"]
    return replace(wl.config(seed=cfg_seed), k_all=40, max_iters=2, hidden=(4,),
                   episode_steps=2)


def _originals():
    return {
        "runner": {k: getattr(runner, k) for k in
                   ("calc_eq", "update_particles", "surprisal", "act", "policy_forward",
                    "StepRecord")},
        "solver": {k: getattr(solver, k) for k in
                   ("expected_cost", "eval_cost", "adam_step", "policy_forward")},
        "beliefs": {"policy_forward": beliefs.policy_forward},
        "experiments": {k: getattr(experiments, k) for k in
                        ("write_trial_record", "trial_game", "_one_trial")},
        "backward": vars(adgraph.Tape)["backward"],
        "gc": list(gc.callbacks),
    }


def test_wrappers_are_removed_after_the_traced_run():
    before = _originals()
    cfg = _tiny()
    tracer = tracing.Tracer()
    with tracing.stamped_rounds(), tracer.installed():
        assert runner.calc_eq is not before["runner"]["calc_eq"]
        assert vars(adgraph.Tape)["backward"] is not before["backward"]
        (game, traced), spans = tracer.trial(workloads.play, cfg, workloads.PASSIVE_ACTIVE, 3)
        assert "observe" in vars(game)
    assert _originals() == before
    assert "observe" not in vars(game)

    # an untraced run afterwards executes the original functions: no spans
    n = len(tracer.spans)
    _, plain = workloads.play(cfg, workloads.PASSIVE_ACTIVE, 3)
    assert len(tracer.spans) == n
    assert type(plain.steps[0]) is runner.StepRecord
    assert checks.digest(plain) == checks.digest(traced)

    names = {s.name for s in spans}
    assert {tracing.TRIAL, "solver.calc_eq", "solver.grad_step", "adgraph.backward",
            "beliefs.update", "runner.act", "scenarios.observe.taped",
            "policy.forward.taped", "policy.forward.raw"} <= names
    assert spans[0].name == tracing.TRIAL and spans[0].parent is None


def test_layer_metrics_from_a_traced_episode():
    cfg = _tiny()
    tracer = tracing.Tracer()
    with tracing.stamped_rounds(), tracer.installed():
        (_, record), spans = tracer.trial(workloads.play, cfg, workloads.PASSIVE_ACTIVE, 4)
    m = tracing.layer_metrics([(record, spans)], [], [], busy_wall=1e9)
    assert m["solver.iters_per_solve"][0] == 2.0
    assert m["adgraph.nodes_per_step"][0] > 0
    assert m["policy.forward_calls_per_step"][0] == 12.0   # passive net reruns per step
    assert 0.0 < m["runner.round_self_ms"][0] < 1e3 * (spans[0].end - spans[0].start)
    assert 0.0 < m["solver.calc_eq_share"][0] < 1.0
    assert len(tracing.rounds_of(record, spans)) == 2
    assert len(tracing.rounds_of(record)) == 1


# -- digests and golden values -------------------------------------------------

def test_digest_tells_seeds_apart_and_repeats():
    cfg = _tiny()
    _, a = workloads.play(cfg, workloads.PASSIVE_ACTIVE, 1)
    _, b = workloads.play(cfg, workloads.PASSIVE_ACTIVE, 1)
    _, c = workloads.play(cfg, workloads.PASSIVE_ACTIVE, 2)
    assert checks.digest(a) == checks.digest(b) != checks.digest(c)
    assert checks.digest(a, rounds=1) != checks.digest(a)


def test_golden_values_hold_at_this_commit():
    assert checks.compare_golden(checks.golden_values(), checks.load_golden()["values"]) == {}


def test_golden_check_rejects_a_perturbation_of_1e_9_relative():
    golden = checks.load_golden()["values"]
    for name in ("tag.expected_cost.p1.value", "tag.expected_cost.p0.grad",
                 "tag.update_particles.weights"):
        bumped = dict(golden)
        bumped[name] = [v * (1.0 + 1e-9) for v in golden[name]]
        bad = checks.compare_golden(bumped, golden)
        assert list(bad) == [name] and bad[name] == pytest.approx(1e-9, rel=1e-3)


# -- workload and metric declarations ----------------------------------------

def test_every_workload_pins_every_config_field():
    assert set(workloads.PAPER) == {f.name for f in fields(ExperimentConfig)}
    for wl in workloads.WORKLOADS.values():
        assert set(wl.overrides) <= set(workloads.PAPER)


def test_trial_seeds_follow_the_workload_seed():
    a = workloads.trial_seeds(1, "tag-shared", 4)
    assert a == workloads.trial_seeds(1, "tag-shared", 4)
    assert a != workloads.trial_seeds(2, "tag-shared", 4)
    assert a != workloads.trial_seeds(1, "hideseek-wide", 4)


def test_benchmark_json_matches_workloads_and_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "catalog.json")) as fh:
        catalog = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(catalog["end_to_end"])
    assert {m["name"] for m in spec["per_layer"]} == set(catalog["per_layer"])
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in
               spec["end_to_end"]) for m in spec["end_to_end"])
    names = {w["name"] for w in spec["workloads"]}
    for meta in catalog["per_layer"].values():
        assert set(meta["most_on"]) | set(meta["not_on"]) <= names
        assert set(meta["moves"]) <= set(catalog["end_to_end"])


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.layer_metrics([], [], [], busy_wall=1.0))
    assert produced | {"trace.overhead_frac"} == declared
