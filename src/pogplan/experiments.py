"""Experiment harness: trial batteries, sweeps, oracle suites, file outputs.

Trials are embarrassingly parallel; set POGPLAN_THREADS to fan them out over
processes.  Each battery command (``run_matrix``, a ``t_future``/``k_batch``
``sweep``, the n_eq grid) makes one ``map_trials`` call, so it runs every
(setting, seed) pair on one pool, and its results come out in setting and
seed order: bit-for-bit the same whatever the pool size.  Every output file
is plain columnar text under ``#`` header lines, one row per line.  A trial
record (its format is documented at ``_record_sections``) reads back every
section but ``[gradtimes]``, which is written for people: a record read and
written back has ``step 0 0.0 0.0`` rows there.  An older record, written
before the gradient norms and ``[belief_health]``, reads back with no norms
and no health entries.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import replace
from itertools import product

import numpy as np

from . import adgraph as ag
from .adgraph import grad_check
from .beliefs import init_particles, update_particles
from .config import ExperimentConfig, write_config
from .policy import ACTIVE, PASSIVE, adam_init, init_policy
from .runner import SEPARATE, SHARED, EpisodeOptions, StepRecord, TrialRecord, run_episode
from .scenarios import group_names, make_game, mode_groups, sample_tasks
from .solver import calc_eq, draw_noise, eval_cost, evaluation_batch, _run_rollout

THREADS_ENV = "POGPLAN_THREADS"


def _n_threads():
    """The pool size POGPLAN_THREADS sets, 1 when it is unset."""
    text = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {text!r}") from None


def map_trials(fn, settings, cfg):
    """Yield ``[fn(setting, seed) for seed in seeds]`` per setting, in order,
    as soon as its results are in; the seeds are ``cfg.seed + t`` for ``t <
    cfg.trials``.  Every (setting, seed) pair runs on one process pool of
    POGPLAN_THREADS workers when that is above 1 (``fn`` must then be a
    module-level function), else in this process when its setting is due."""
    seeds = [cfg.seed + t for t in range(cfg.trials)]
    args = [s for s in settings for _ in seeds], seeds * len(settings)
    n = min(_n_threads(), len(args[1]))
    if n > 1:
        from concurrent.futures import ProcessPoolExecutor   # only a pool run pays its import
    with ProcessPoolExecutor(max_workers=n) if n > 1 else nullcontext() as pool:
        results = pool.map(fn, *args) if n > 1 else map(fn, *args)
        for _ in settings:
            yield [next(results) for _ in seeds]


def mean_stderr(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan"), float("nan")
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


# ---------------------------------------------------------------------------
# Trial construction
# ---------------------------------------------------------------------------

def trial_game(cfg, trial_seed):
    """Scenario instance for one trial (warehouse task layout is per-seed);
    the settings are checked as given, before sampled tasks replace ``wh_tasks``."""
    if cfg.scenario == "warehouse" and cfg.warehouse_random_tasks:
        cfg = replace(cfg.validate(), wh_tasks=sample_tasks(
            np.random.default_rng(np.random.SeedSequence((trial_seed, 77)))))
    return make_game(cfg)


def episode_options(cfg, modes, dump_path=None):
    """One trial's ``EpisodeOptions``, checked and resolved once: ``modes``
    has one entry per player, and a single ``n_eq`` entry applies to every
    agent.  A passive player needs ``t_future`` of at least 1, since its
    policy emits one action per planned step."""
    if cfg.brain not in (SHARED, SEPARATE):
        raise ValueError(f"unknown brain mode '{cfg.brain}'")
    if PASSIVE in modes and cfg.t_future < 1:
        raise ValueError(f"t_future must be at least 1 with a passive player, got {cfg.t_future}")
    n_agents = 1 if cfg.brain == SHARED else len(modes)
    n_eq = [int(x) for x in cfg.n_eq]
    if len(n_eq) == 1:
        n_eq = n_eq * n_agents
    if len(n_eq) != n_agents:
        raise ValueError(f"need {n_agents} n_eq entries, got {len(n_eq)}")
    return EpisodeOptions(config=cfg, modes=list(modes), n_eq=n_eq, particle_dump=dump_path)


def modes_for_combo(game, combo):
    """Per-player modes from one active/passive choice per mode group;
    entries past the last group are ignored."""
    groups = mode_groups(game)
    if len(combo) < len(groups) or not set(combo) <= {ACTIVE, PASSIVE}:
        raise ValueError(f"need an active or passive mode for each of "
                         f"{len(groups)} mode groups, got {tuple(combo)}")
    modes = [ACTIVE] * game.n_players  # players without a choice default active
    for players, mode in zip(groups, combo):
        for p in players:
            modes[p] = mode
    return modes


def _one_trial(setting, trial_seed):
    """One episode of ``setting``, a (config, combo) pair; its particle
    clouds go to ``cloud_<label>_<seed>.txt`` when the config dumps them."""
    cfg, combo = setting
    game = trial_game(cfg, trial_seed)
    dump = None
    if cfg.dump_particles:
        label = combo_label(group_names(game), combo)
        dump = os.path.join(cfg.outdir, f"cloud_{label}_{trial_seed}.txt")
    opts = episode_options(cfg, modes_for_combo(game, combo), dump)
    return run_episode(game, opts, trial_seed)


# ---------------------------------------------------------------------------
# Trial battery
# ---------------------------------------------------------------------------

def combo_label(names, combo):
    return ",".join(f"{name}={mode}" for name, mode in zip(names, combo))


def run_matrix(cfg):
    """Every active/passive configuration of the scenario's mode groups.

    Returns (summary rows, {label: [TrialRecord]}), each summary row a dict
    whose keys name its columns; also writes the config echo, per-trial
    records, and the summary under cfg.outdir.
    """
    probe = trial_game(cfg, cfg.seed)   # validate the settings before writing anything
    names = group_names(probe)
    combos = list(product((PASSIVE, ACTIVE), repeat=len(mode_groups(probe))))
    episode_options(cfg, modes_for_combo(probe, combos[0]))
    _n_threads()                        # and POGPLAN_THREADS
    os.makedirs(cfg.outdir, exist_ok=True)
    write_config(cfg, os.path.join(cfg.outdir, "config_echo.txt"))

    rows = []
    all_records = {}
    if cfg.trials == 0:
        print("warning: 0 trials requested; summary is empty")
        combos = []
    battery = map_trials(_one_trial, [(cfg, combo) for combo in combos], cfg)
    for records, combo in zip(battery, combos):
        label = combo_label(names, combo)
        all_records[label] = records
        for gname, players in probe.player_groups():
            costs = [np.mean([r.episode_cost(p) for p in players]) for r in records]
            mean, err = mean_stderr(costs)
            times = [t for r in records for t in r.grad_step_times()]
            rows.append({"label": label, "group": gname, "mean_cost": mean, "stderr": err,
                         "trials": len(records),
                         "grad_seconds": float(np.mean(times)) if times else float("nan")})
        for record in records:
            path = os.path.join(cfg.outdir, f"record_{label}_{record.seed}.txt")
            write_trial_record(record, trial_game(cfg, record.seed), cfg, label, path)
    write_summary(cfg.scenario, rows, os.path.join(cfg.outdir, "summary.txt"))
    return rows, all_records


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

def first_step_stats(cfg, trial_seed):
    """Solve just the first planning round and report, for the focal (last)
    player, ``{cost, seconds}``: the cost of the solved policies on a large
    frozen batch and the solve's wall time.  The solve stops when every
    player's gradient norm is below ``eps_tol`` or after ``max_iters``."""
    game = trial_game(cfg, trial_seed)
    focal = game.n_players - 1
    modes = modes_for_combo(game, cfg.gathering)
    ss = np.random.SeedSequence(trial_seed)
    init_ss, theta_ss, solve_ss, eval_ss = ss.spawn(4)
    pset = init_particles(game, cfg.k_all, 1, np.random.default_rng(init_ss))
    seeds = theta_ss.generate_state(game.n_players)
    thetas = [init_policy(game, i, modes[i], int(seeds[i]), hidden=tuple(cfg.hidden))
              for i in range(game.n_players)]
    t0 = time.perf_counter()
    res = calc_eq(game, pset, thetas, [adam_init(t, lr=cfg.lr) for t in thetas],
                  np.random.default_rng(solve_ss),
                  eps_tol=cfg.eps_tol, max_iters=cfg.max_iters, k_batch=cfg.k_batch)
    seconds = time.perf_counter() - t0

    # the solved policies are scored on a large frozen batch so the
    # reported cost reflects the policy, not evaluation sampling noise
    batch = evaluation_batch(game, pset, max(cfg.k_batch, 256),
                             np.random.default_rng(eval_ss))
    cost, = eval_cost(game, pset, res.thetas, [focal], batch)
    return {"cost": cost, "seconds": seconds}


def sweep(cfg, param, values):
    """Scaling study over t_future, k_batch, or n_eq.

    Each row is a dict whose keys name its columns.  t_future / k_batch:
    first-round solve per seed, a row ``{param: value, mean_cost, ...}`` per
    value.  n_eq: pairwise grid of separate-brain episodes, reporting mean
    inter-player distance and each agent's mean surprisal.  Every swept
    config is checked before the first trial runs.
    """
    if not values:
        raise ValueError(f"no values to sweep {param} over")
    if param in ("t_future", "k_batch"):
        rows = []
        subs = [replace(cfg, **{param: int(value)}).validate() for value in values]
        for results, value in zip(map_trials(first_step_stats, subs, cfg), values):
            cost_m, cost_e = mean_stderr([r["cost"] for r in results])
            sec_m, sec_e = mean_stderr([r["seconds"] for r in results])
            rows.append({param: int(value), "mean_cost": cost_m, "stderr_cost": cost_e,
                         "mean_seconds": sec_m, "stderr_seconds": sec_e,
                         "costs": [r["cost"] for r in results]})
        return rows
    if param == "n_eq":
        return neq_grid(cfg, values)
    raise ValueError(f"parameter '{param}' is not sweepable")


def neq_grid(cfg, values):
    """Pairwise candidate-count grid for separate-brain two-player play."""
    game = trial_game(cfg, cfg.seed)
    if game.n_players != 2:
        raise ValueError("the n_eq grid needs a two-player scenario")
    rows = []
    pairs = list(product([int(v) for v in values], repeat=2))
    grid = map_trials(_one_trial, [(replace(cfg, brain=SEPARATE, n_eq=pair,
                                            dump_particles=False).validate(),
                                    (ACTIVE, ACTIVE)) for pair in pairs], cfg)
    for records, pair in zip(grid, pairs):
        dists, surp0, surp1 = [], [], []
        for r in records:
            states = [game.unpack_state(s.state) for s in r.steps]
            per_step = [np.linalg.norm(st[0][0] - st[1][0]) for st in states]
            dists.append(float(np.mean(per_step)))
            surp0.append(float(np.mean([s.surprisal[(0, 1)] for s in r.steps])))
            surp1.append(float(np.mean([s.surprisal[(1, 0)] for s in r.steps])))
        d_m, d_e = mean_stderr(dists)
        rows.append({"n_eq_0": pair[0], "n_eq_1": pair[1],
                     "mean_distance": d_m, "stderr_distance": d_e,
                     "mean_surprisal_0": mean_stderr(surp0)[0],
                     "mean_surprisal_1": mean_stderr(surp1)[0],
                     "surprisal_0": surp0, "surprisal_1": surp1})
    return rows


# ---------------------------------------------------------------------------
# Oracle suites (also exposed as CLI subcommands)
# ---------------------------------------------------------------------------

def rollout_gradcheck(scenario, programs, seed):
    """Worst relative error of the tape gradient of random rollout programs
    against central finite differences (step 1e-4).

    Each program: a two-step window and horizon, a random reachable joint
    state, random windows and noise, random small (one hidden layer of 4)
    policies, one focal player; the whole rollout cost is differentiated
    with respect to that player's parameters.
    """
    game = make_game(ExperimentConfig(scenario=scenario, t_past=2, t_future=2))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(programs):
        focal = int(rng.integers(game.n_players))
        modes = [ACTIVE if rng.random() < 0.8 else PASSIVE
                 for _ in range(game.n_players)]
        thetas = [init_policy(game, i, modes[i], int(rng.integers(2 ** 31)),
                              hidden=(4,)) for i in range(game.n_players)]
        state = _random_reachable_state(game, rng)
        hists = [rng.normal(scale=0.5, size=(1, game.t_past * game.obs_dim(i)))
                 for i in range(game.n_players)]
        eps = draw_noise(game, 1, rng)

        def program(flat):
            trial = list(thetas)
            trial[focal] = replace(thetas[focal], flat=flat)
            return ag.affine(_run_rollout(game, state, hists, trial, eps, [focal])[focal], -1.0)

        worst = max(worst, grad_check(program, thetas[focal].flat, h=1e-4))
    return worst


def _random_reachable_state(game, rng):
    state = []
    for i in range(game.n_players):
        comps = game.state_comps(i)
        pos = rng.normal(scale=1.5, size=(1, comps[0]))
        vel = rng.uniform(-0.9, 0.9, size=(1, comps[1])) * game.v_max[i]
        state.append((pos, vel))
    return state


def belief_bayes_check(k_particles=10_000, steps=5, *, seed):
    """Total-variation gap between the conditioned particle marginal and the
    exact enumerated posterior on the two-state toy game."""
    from .toygame import ToyFilterGame, exact_posterior   # only this check uses it

    game = ToyFilterGame()
    ss = np.random.SeedSequence(seed)
    init_ss, obs_ss, upd_ss = ss.spawn(3)
    pset = init_particles(game, k_particles, 1, np.random.default_rng(init_ss))
    thetas = [init_policy(game, 0, ACTIVE, seed=0, hidden=(4,))]
    obs_rng = np.random.default_rng(obs_ss)
    upd_rng = np.random.default_rng(upd_ss)

    true_x = 1.0
    observations = []
    for _ in range(steps):
        z = game.observe([(np.array([[true_x]]),)], 0, obs_rng.standard_normal((1, 1)))
        observations.append(float(z[0, 0]))
        pset = update_particles(pset, game, thetas, true_obs=z[0], player=0,
                                gamma=1.0, rng=upd_rng)
    oracle = exact_posterior(game, observations)
    mass_one = pset.weights[pset.states[:, 0] > 0.5].sum()
    particle = np.array([1.0 - mass_one, mass_one])
    return float(0.5 * np.abs(particle - oracle).sum())


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _line(values):
    """One row of columnar text: flags as ``true``/``false``, integers and
    strings as they are, every other number as the repr of its float."""
    return " ".join(str(v).lower() if isinstance(v, (bool, np.bool_))
                    else str(v) if isinstance(v, (int, np.integer, str))
                    else repr(float(v)) for v in values) + "\n"


def _write_lines(path, head, rows):
    """Write the ``head`` lines, then one ``_line`` per row; returns the text."""
    text = "".join(f"{h}\n" for h in head) + "".join(map(_line, rows))
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_summary(scenario, rows, path):
    columns = ("label", "group", "mean_cost", "stderr", "trials", "grad_seconds")
    _write_lines(path, ["# pogplan summary v1", f"# scenario {scenario}",
                        f"# columns: {' '.join(columns)}"],
                 ([row[k] for k in columns] for row in rows))


def write_sweep(rows, path):
    """Write the scalar columns of sweep rows under a header of their keys;
    per-seed lists are left out.  Returns the text written."""
    columns = [k for row in rows[:1] for k, v in row.items() if not isinstance(v, list)]
    return _write_lines(path, ["# pogplan sweep v1", f"# columns: {' '.join(columns)}"],
                        ([row[k] for k in columns] for row in rows))


def _slot(lists, i):
    """``lists[i]``, opening it when ``i`` is one past the end: rows are read
    in the order they were written."""
    if i == len(lists):
        lists.append([])
    return lists[i]


def _floats(values, width):
    if len(values) != width:
        raise ValueError(f"{len(values)} values where {width} belong")
    return [float(v) for v in values]


def _flag(word):
    """A ``true``/``false`` column as a bool; any other word is an error."""
    if word not in ("true", "false"):
        raise ValueError(f"flag '{word}' is neither true nor false")
    return word == "true"


def _record_sections(record, game):
    """The sections of a trial record after ``[meta]``, one
    ``(name, header, rows, read)`` entry each.  ``write_trial_record``
    writes ``rows`` under ``[name]`` and ``# header``; ``read_trial_record``
    passes each row of ``[name]``, as strings, to ``read``, which adds it to
    ``record``.  Widths come from ``game``; agent -1 is the shared brain.

    - ``[steps]``: step, player, the player's slice of the packed true state
      after the transition, its action, its boundary-free and full rewards;
    - ``[solves]``: step, agent, candidate, iterations, converged, then the
      last gradient norm per player (older records end at the flag);
    - ``[gradtimes]``: step, count, mean and std of the round's gradient-step
      seconds; written for people, not read back, so a record read and
      written back has ``step 0 0.0 0.0`` rows here;
    - ``[surprisal]``: step, agent, opponent, nats;
    - ``[belief]``: step, agent, player, mean of the player's position;
    - ``[belief_health]``: step, agent, ESS fraction, reset flag (absent
      from older records);
    - ``[trace]``: agent, candidate, player, iteration, first-round cost.

    Each ``[solves]`` row is one ``StepRecord.solves`` entry and each
    ``[belief_health]`` row one ``belief_health`` entry.  An older record
    reads back with no norms and no health entries, so it is written back
    without norm columns or ``[belief_health]`` rows.
    """
    steps, at = record.steps, {}

    def read_steps(step, p, *values):
        sd, ad = game.state_dim(int(p)), game.action_dim(int(p))
        values = _floats(values, sd + ad + 2)
        if int(step) not in at:
            at[int(step)] = StepRecord(
                step=int(step), state=np.empty((1, 0)), actions=[], rewards_report=[],
                rewards_full=[], solves=[], grad_seconds=[], surprisal={}, belief_means={},
                belief_health={})
            steps.append(at[int(step)])
        s = at[int(step)]
        s.state = np.concatenate([s.state, [values[:sd]]], axis=1)
        s.actions.append(np.array([values[sd:sd + ad]]))
        s.rewards_report.append(values[-2])
        s.rewards_full.append(values[-1])

    def read_solves(step, agent, candidate, iterations, converged, *norms):
        _slot(at[int(step)].solves, int(agent)).append(
            (int(iterations), _flag(converged), [float(g) for g in norms]))

    def read_surprisal(step, agent, opponent, nats):
        at[int(step)].surprisal[int(agent), int(opponent)] = float(nats)

    def read_belief(step, agent, p, *mean):
        at[int(step)].belief_means[int(agent), int(p)] = np.array(
            _floats(mean, game.state_comps(int(p))[0]))

    def read_belief_health(step, agent, ess_frac, reset):
        at[int(step)].belief_health[int(agent)] = (float(ess_frac), _flag(reset))

    def read_trace(agent, candidate, p, iteration, cost):
        _slot(_slot(_slot(record.first_traces, int(agent)), int(candidate)),
              int(p)).append(float(cost))

    return [
        ("steps", "step player x y vx vy ax ay reward_report reward_full",
         [(s.step, p, *s.state[0, game.state_offset(p):game.state_offset(p) + game.state_dim(p)],
           *s.actions[p][0], s.rewards_report[p], s.rewards_full[p])
          for s in steps for p in range(game.n_players)], read_steps),
        ("solves", "step agent candidate iterations converged grad_norm per player",
         [(s.step, ai, ci, it, cv, *gn) for s in steps for ai, solves in enumerate(s.solves)
          for ci, (it, cv, gn) in enumerate(solves)], read_solves),
        ("gradtimes", "step count mean std",
         [(s.step, len(s.grad_seconds), np.mean(s.grad_seconds or [0.0]),
           np.std(s.grad_seconds or [0.0])) for s in steps], None),
        ("surprisal", "step agent opponent nll",
         [(s.step, *key, nats) for s in steps for key, nats in sorted(s.surprisal.items())],
         read_surprisal),
        ("belief", "step agent player mean_x mean_y",
         [(s.step, *key, *mean) for s in steps for key, mean in sorted(s.belief_means.items())],
         read_belief),
        ("belief_health", "step agent ess_frac reset",
         [(s.step, agent, *health) for s in steps
          for agent, health in sorted(s.belief_health.items())], read_belief_health),
        ("trace", "agent candidate player iteration cost",
         [(ai, ci, p, it, cost) for ai, cands in enumerate(record.first_traces)
          for ci, traces in enumerate(cands) for p, trace in enumerate(traces)
          for it, cost in enumerate(trace)], read_trace),
    ]


def write_trial_record(record, game, cfg, label, path):
    """Serialize one episode: the ``[meta]`` block, then every section of
    ``_record_sections``."""
    meta = {"scenario": cfg.scenario, "label": label, "seed": record.seed,
            "brain": record.brain, "modes": ",".join(record.modes),
            "n_eq": ",".join(map(str, record.n_eq)), "aborted": str(record.aborted).lower(),
            "players": game.n_players}
    parts = ["# pogplan trial record v1\n[meta]\n", *(f"{k} = {v}\n" for k, v in meta.items())]
    for name, header, rows, _ in _record_sections(record, game):
        parts += [f"[{name}]\n# {header}\n", *map(_line, rows)]
    with open(path, "w") as fh:
        fh.write("".join(parts))


def read_trial_record(path):
    """Parse a record file back into a TrialRecord, on the game its
    ``scenario`` line names; a malformed file raises ``ValueError``."""
    meta, sections, current = {}, {}, None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = []
            elif current == "meta":
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
            elif current is None:
                raise ValueError(f"malformed trial record {path}: a row before any [section]")
            else:
                sections[current].append(line.split())
    try:
        players = int(meta["players"])
        record = TrialRecord(seed=int(meta["seed"]), brain=meta["brain"],
                             modes=meta["modes"].split(","),
                             n_eq=[int(x) for x in meta["n_eq"].split(",")],
                             aborted=_flag(meta["aborted"]))
        game = make_game(ExperimentConfig(scenario=meta["scenario"]))
    except KeyError as exc:
        raise ValueError(f"malformed trial record {path}: [meta] has no {exc} line") from exc
    except ValueError as exc:
        raise ValueError(f"malformed trial record {path}: [meta]: {exc}") from exc
    for name, _, _, read in _record_sections(record, game):
        for row in sections.get(name, []) if read else []:
            try:
                read(*row)
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed trial record {path}: [{name}] row "
                                 f"'{' '.join(row)}': {exc!r}") from exc
    if any(len(s.actions) != players for s in record.steps):
        raise ValueError(f"malformed trial record {path}: a step lacks a player's row")
    return record


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

def emit_plot_data(records, kind, path, player):
    """Write plot-ready columnar text for one figure family.

    ``records`` is a list of TrialRecord (fresh or re-read).  No plotting
    happens here; the files carry a single header line naming the columns.
    """
    if not records:
        raise ValueError("no records to emit from")
    if kind == "trajectory":
        record = records[0]
        n = len(record.modes)
        head = "# step player x y vx vy reward_units_distance"
        rows = [(s.step, p, *state, s.rewards_report[p])
                for s in record.steps for p, state in enumerate(s.state.reshape(n, -1))]
    elif kind == "convergence":
        n = len(records[0].modes)
        player = n - 1 if player is None else player
        if not 0 <= player < n:
            raise ValueError(f"player {player} outside range({n})")
        traces = [r.first_traces[0][0][player] for r in records if r.first_traces]
        if not traces:
            raise ValueError("records carry no first-step cost traces")
        length = min(len(t) for t in traces)
        head = "# iteration mean_cost stderr"
        rows = [(it, *mean_stderr([t[it] for t in traces])) for it in range(length)]
    elif kind == "surprisal":
        if any(len(r.modes) != 2 for r in records):
            raise ValueError("the surprisal plot needs two-player records")
        player = 1 if player is None else player
        if not 0 <= player < 2:
            raise ValueError(f"player {player} outside range(2)")
        groups = {}
        for r in records:
            # a shared brain (agent -1, the only entry of n_eq) holds every belief
            agent, brain = (-1, 0) if r.brain == SHARED else (player, player)
            key = (agent, 1 - player)
            values = [s.surprisal[key] for s in r.steps if key in s.surprisal]
            if not values:
                raise ValueError("records carry no surprisal entries for the "
                                 f"requested agent {player}")
            groups.setdefault(r.n_eq[brain], []).append(float(np.mean(values)))
        head = "# n_eq mean_surprisal stderr"
        rows = [(key, *mean_stderr(groups[key])) for key in sorted(groups)]
    else:
        raise ValueError(f"unknown plot-data kind '{kind}'")
    _write_lines(path, [head], rows)
    return path
