"""Timed runs of one workload, their output checks, and the metrics they give.

An untraced run plays episodes back to back for the requested seconds, then
measures set-up in fresh interpreters.  A traced run plays the same episodes
untraced and then traced, for ``trace.overhead_frac`` and the per-layer
metrics.  End-to-end times are corrected to nominal host speed with the
reference loop of ``hostspeed``, timed between episodes and before each
set-up probe; per-layer times are raw.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter

from pogplan import experiments

import benchenv
import checks
import hostspeed
import tracing
import workloads
from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
POOL_THREADS = 2    # processes for the run_matrix replay of the pool check
N_SEEDS = 64        # trial seeds derived per run; each is played twice in a row


@dataclass
class Trial:
    seed: int
    record: object
    spans: list = None
    seconds: float = 0.0   # the episode plus writing its record
    speed: float = 1.0     # host-speed correction for this episode's times


@dataclass
class Timed:
    cfg: object
    trials: list
    wall: float       # seconds inside the timed loop

    @property
    def rounds(self):
        return sum(len(t.record.steps) for t in self.trials)

    def rounds_per_s(self, corrected=True):
        """Median over the run's episodes of rounds per second, so a burst
        of load from outside slows one episode, not the metric."""
        return statistics.median(len(t.record.steps) / (t.seconds * (t.speed if corrected else 1))
                                 for t in self.trials)

    def round_p50(self, corrected=True):
        """Median round after the first of each episode, from the round stamps."""
        return percentile([(hi - lo) * (t.speed if corrected else 1) for t in self.trials
                           for lo, hi in tracing.rounds_of(t.record)], 50)


@dataclass
class Result:
    metrics: dict     # name -> (value, sample description)
    checks: list      # (name, passed, detail)
    solves: int
    aborted: int

    @property
    def attempted(self):
        return self.solves + len(self.checks)

    @property
    def failed(self):
        return self.aborted + sum(1 for _, ok, _ in self.checks if not ok)


def run_timed(wl, seed, seconds, outdir, min_reps, tracer=None):
    """Play the workload for about ``seconds``, and at least ``min_reps``
    episodes: one more starts unless it would probably end more than half
    an episode late."""
    seeds = workloads.trial_seeds(seed, wl.name, N_SEEDS)
    cfg = wl.config(outdir=outdir)
    label = workloads.label(cfg, wl.combo)
    trials = []
    ref = hostspeed.reference_seconds()
    with tracing.stamped_rounds():
        t0 = perf_counter()
        while (len(trials) < min_reps
               or perf_counter() - t0 + trials[-1].seconds / 2 < seconds):
            t1 = perf_counter()
            trial_seed = seeds[(len(trials) // 2) % N_SEEDS]
            if tracer is None:
                (game, record), spans = workloads.play(cfg, wl.combo, trial_seed), None
            else:
                (game, record), spans = tracer.trial(workloads.play, cfg, wl.combo,
                                                     trial_seed)
            experiments.write_trial_record(record, game, cfg, label, os.path.join(
                outdir, f"record_{len(trials)}.txt"))
            took = perf_counter() - t1
            ref, before = hostspeed.reference_seconds(), ref
            trials.append(Trial(trial_seed, record, spans, took,
                                hostspeed.factor((before + ref) / 2)))
        wall = perf_counter() - t0
    return Timed(cfg=cfg, trials=trials, wall=wall)


def peak_rss_mb():
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(wl, seed, n=SETUP_PROBES):
    """Seconds from starting a fresh interpreter to its first solve, as
    (corrected to nominal host speed, raw) lists."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", wl.name,
           "--seed", str(seed)]
    times, raw = [], []
    for _ in range(n):
        speed = hostspeed.factor(hostspeed.reference_seconds())
        t0 = time.time()
        out = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True,
                             timeout=150, check=False)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        raw.append(float(out.stdout.split()[-1]) - t0)
        times.append(raw[-1] * speed)
    return times, raw


# ---------------------------------------------------------------------------
# Checks over the timed runs
# ---------------------------------------------------------------------------

def repeat_checks(timed, what):
    groups = defaultdict(list)
    for t in timed.trials:
        groups[t.seed].append(checks.digest(t.record))
    return [(f"digest.repeat.{what} {seed}", len(set(ds)) == 1, f"{len(ds)} runs")
            for seed, ds in groups.items() if len(ds) > 1]


def traced_matches_untraced(untraced, traced):
    want = {t.seed: checks.digest(t.record) for t in untraced.trials}
    return [(f"digest.traced {t.seed}", checks.digest(t.record) == want[t.seed], "")
            for t in traced.trials if t.seed in want]


def pool_matches_inprocess(wl, timed):
    """``run_matrix`` on a process pool reproduces the in-process episode of
    the same (config, seed) over the round they share."""
    first = timed.trials[0]
    cfg = replace(timed.cfg, seed=first.seed, trials=POOL_THREADS, episode_steps=1)
    benchenv.set_threads(POOL_THREADS)
    try:
        _, by_label = experiments.run_matrix(cfg)
    finally:
        benchenv.set_threads(1)
    pooled = next(r for r in by_label[workloads.label(cfg, wl.combo)] if r.seed == first.seed)
    ok = checks.digest(pooled, rounds=1) == checks.digest(first.record, rounds=1)
    return (f"digest.pool_vs_inprocess {first.seed}", ok,
            f"round 0, {POOL_THREADS} processes")


def solve_counts(trials):
    solves = aborted = 0
    for t in trials:
        solves += sum(len(c) for s in t.record.steps for c in s.solve_iterations)
        if t.record.aborted:
            solves += 1
            aborted += 1
    return solves, aborted


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def measure(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    outdir = os.path.join(benchenv.ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    try:
        if trace:
            return _measure_traced(wl, seed, seconds, outdir)
        return _measure(wl, seed, seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:
            pass


def _measure(wl, seed, seconds, outdir):
    timed = run_timed(wl, seed, seconds, outdir, min_reps=2)
    rss = peak_rss_mb()
    results = repeat_checks(timed, "untraced") + checks.program_checks()
    if wl.pool_check:
        results.append(pool_matches_inprocess(wl, timed))
    setups, raw_setups = setup_times(wl, seed)
    rounds = timed.round_p50()
    speeds = ", ".join(f"{t.speed:.3f}" for t in timed.trials)
    metrics = {
        "rounds_per_s": (timed.rounds_per_s(),
                         f"median of {len(timed.trials)} episodes; "
                         f"rounds={timed.rounds}, wall={timed.wall:.2f} s; "
                         f"raw {timed.rounds_per_s(corrected=False):.4f}; "
                         f"host-speed factors {speeds}"),
        "round_s.p50": (rounds.value, f"{rounds.describe()}; "
                                      f"raw {timed.round_p50(corrected=False).value:.4f}"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups)
                    + f"; raw {statistics.median(raw_setups):.4f}"),
        "peak_rss_mb": (rss, "the process that ran the timed episodes"),
    }
    return Result(metrics, results, *solve_counts(timed.trials))


def _measure_traced(wl, seed, seconds, outdir):
    untraced = run_timed(wl, seed, seconds / 2, outdir, min_reps=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run_timed(wl, seed, seconds / 2, outdir, min_reps=1, tracer=tracer)
        loose = list(tracer.spans)
        tracer.spans.clear()
        program = checks.program_checks()
        fallback = list(tracer.spans)
    results = (repeat_checks(untraced, "untraced") + repeat_checks(traced, "traced")
               + traced_matches_untraced(untraced, traced) + program)
    metrics = tracing.layer_metrics([(t.record, t.spans) for t in traced.trials], loose,
                                    fallback, traced.wall)
    metrics["trace.overhead_frac"] = (
        untraced.rounds_per_s() / traced.rounds_per_s() - 1.0,
        f"untraced {untraced.rounds_per_s():.4f} vs traced {traced.rounds_per_s():.4f} "
        "rounds/s, host-speed corrected")
    solves, aborted = solve_counts(untraced.trials + traced.trials)
    return Result(metrics, results, solves, aborted)
