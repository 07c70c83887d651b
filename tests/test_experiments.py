"""Harness: trial batteries, record/summary files, sweeps, CLI plumbing."""

import concurrent.futures
import os
from itertools import product

import numpy as np
import pytest

from pogplan import experiments
from pogplan.cli import main
from pogplan.config import ExperimentConfig, parse_config_text
from pogplan.experiments import (
    belief_bayes_check,
    combo_label,
    emit_plot_data,
    episode_options,
    first_step_stats,
    mean_stderr,
    modes_for_combo,
    read_trial_record,
    rollout_gradcheck,
    run_matrix,
    sweep,
    trial_game,
    write_trial_record,
)
from pogplan.runner import run_episode
from pogplan.scenarios import group_names

RECORDS = os.path.join(os.path.dirname(__file__), "data", "records")


def _tiny_cfg(tmp_path, **kw):
    base = dict(scenario="tag", trials=2, episode_steps=2, max_iters=2,
                k_all=20, k_batch=2, hidden=(4,), t_past=2, t_future=2,
                outdir=str(tmp_path / "out"), lr=0.01)
    base.update(kw)
    return ExperimentConfig(**base)


def test_mean_stderr_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    m, e = mean_stderr(x)
    assert m == pytest.approx(x.mean())
    assert e == pytest.approx(x.std(ddof=1) / np.sqrt(40))
    # quadrupling the sample roughly halves the standard error
    big = rng.normal(size=160)
    assert mean_stderr(big)[1] == pytest.approx(e / 2, rel=0.4)


def test_run_matrix_tag_shape_and_files(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    rows, records = run_matrix(cfg)
    assert len(records) == 4  # 2 mode groups -> 4 configurations
    assert len(rows) == 8  # x 2 reporting groups
    assert os.path.exists(os.path.join(cfg.outdir, "config_echo.txt"))
    assert os.path.exists(os.path.join(cfg.outdir, "summary.txt"))
    files = os.listdir(cfg.outdir)
    assert sum(f.startswith("record_") for f in files) == 4 * 2

    # stderr matches the direct computation from the per-trial costs
    label = rows[0]["label"]
    group_players = [0]
    costs = [r.episode_cost(0) for r in records[label]]
    m, e = mean_stderr(costs)
    assert rows[0]["mean_cost"] == pytest.approx(m)
    assert rows[0]["stderr"] == pytest.approx(e)


def test_run_matrix_warehouse_has_two_configurations(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse")
    rows, records = run_matrix(cfg)
    assert len(records) == 2  # only P2 distinguishes active from passive
    assert {r["label"] for r in rows} == {"p2=passive", "p2=active"}


def test_run_matrix_zero_trials(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path, trials=0)
    rows, records = run_matrix(cfg)
    assert rows == []
    assert records == {}
    assert "0 trials" in capsys.readouterr().out


def test_run_matrix_is_the_same_on_any_process_count(tmp_path, monkeypatch):
    """An episode is a pure function of (config, seed): run on one process
    or on a pool of two, a battery writes the same records and summary.
    Only the wall times differ: ``[gradtimes]`` and ``grad_seconds``."""
    cfg = _tiny_cfg(tmp_path, episode_steps=1)

    def written(threads):
        monkeypatch.setenv("POGPLAN_THREADS", str(threads))
        run_matrix(cfg)
        files = {}
        for name in sorted(os.listdir(cfg.outdir)):
            with open(os.path.join(cfg.outdir, name)) as fh:
                text = fh.read()
            if name.startswith("record_"):
                head, _, rest = text.partition("[gradtimes]\n")
                text = head + rest[rest.index("\n["):]
            elif name == "summary.txt":
                text = [line.rsplit(" ", 1)[0] for line in text.splitlines()]
            files[name] = text
        return files

    one, two = written(1), written(2)
    assert sum(name.startswith("record_") for name in one) == 4 * 2
    assert one == two


def test_run_matrix_validates_before_writing(tmp_path):
    for bad, message in (({"t_past": 0}, "t_past must be at least 1"),
                         ({"brain": "Separate"}, "unknown brain mode"),
                         ({"k_batch": 0}, "k_batch must be at least 1"),
                         ({"gamma": 1.5, "brain": "separate"}, r"gamma must lie in \[0, 1\]"),
                         ({"n_eq": (0,)}, "need k_all >= n_eq >= 1"),
                         ({"k_all": 1, "n_eq": (2,)}, "need k_all >= n_eq >= 1"),
                         ({"scenario": "tagchain", "chain_players": 0}, "chain_players"),
                         ({"scenario": "tagchain", "chain_players": -2}, "chain_players"),
                         ({"t_future": 0}, "t_future must be at least 1 with a passive player"),
                         ({"scenario": "warehouse", "t_future": 0}, "t_future"),
                         ({"hidden": (-3,)}, "hidden widths must be at least 1"),
                         ({"hidden": (4, 0)}, "hidden widths must be at least 1"),
                         ({"seed": -1}, "seed must be non-negative"),
                         ({"init_pos_std": -1.0}, "init_pos_std must be non-negative"),
                         ({"max_iters": -2}, "max_iters must be non-negative"),
                         ({"first_step_iters": -1}, "first_step_iters must be non-negative"),
                         ({"episode_steps": -1}, "episode_steps must be non-negative"),
                         ({"trials": -1}, "trials must be non-negative"),
                         ({"resample_ess_fraction": -0.5}, r"resample_ess_fraction must lie in \[0, 1\]"),
                         ({"resample_ess_fraction": 1.5}, r"resample_ess_fraction must lie in \[0, 1\]"),
                         ({"lr": -0.001}, "lr must be positive"),
                         ({"lr": 0.0}, "lr must be positive"),
                         ({"sigma2_base": -0.01}, "sigma2_base must be positive"),
                         ({"sigma2_base": 0.0}, "sigma2_base must be positive"),
                         ({"v_max_pursuer": -0.3}, "v_max_pursuer must be positive"),
                         ({"v_max_evader": 0.0}, "v_max_evader must be positive"),
                         ({"scenario": "warehouse", "wh_v_max_p1": 0.0}, "wh_v_max_p1 must be positive"),
                         ({"scenario": "warehouse", "wh_v_max_p2": -0.15}, "wh_v_max_p2 must be positive"),
                         ({"play_radius": 0.0, "obstacles": ()}, "play_radius must be positive"),
                         ({"play_radius": -5.0, "obstacles": ()}, "play_radius must be positive"),
                         ({"c_scale": -5.0}, "c_scale must be non-negative"),
                         ({"lr": float("nan")}, "lr must be finite"),
                         ({"sigma2_base": float("nan")}, "sigma2_base must be finite"),
                         ({"v_max_evader": float("nan")}, "v_max_evader must be finite"),
                         ({"play_radius": float("inf")}, "play_radius must be finite"),
                         ({"eps_tol": float("nan")}, "eps_tol must be finite"),
                         ({"gamma": float("nan")}, "gamma must be finite"),
                         ({"spawn_east": (float("inf"), 0.0)}, "spawn_east must be finite"),
                         ({"obstacles": ((1.8, 1.2, float("nan")),)}, "obstacles must be finite"),
                         ({"accel_ratio": 0.0}, "accel_ratio must be positive"),
                         ({"accel_ratio": -2.0}, "accel_ratio must be positive"),
                         ({"fov": 0.0}, "fov must be positive"),
                         ({"fov": -1.0}, "fov must be positive"),
                         ({"boundary_weight": -10.0}, "boundary_weight must be non-negative"),
                         ({"scenario": "warehouse", "warehouse_random_tasks": False,
                           "wh_tasks": ()}, "Warehouse requires at least one task")):
        cfg = _tiny_cfg(tmp_path, **bad)
        with pytest.raises(ValueError, match=message):
            run_matrix(cfg)
        assert not os.path.exists(cfg.outdir)
    # a zero horizon stays a valid game and a valid sweep value
    rows = sweep(_tiny_cfg(tmp_path, gathering=("passive", "passive"), trials=1),
                 "t_future", [0])
    assert rows[0]["costs"] == [0.0]


@pytest.mark.parametrize("scenario, line, message", [
    ("warehouse", "wh_tasks = 0.3", "wh_tasks needs two coordinates"),
    ("warehouse", "wh_tasks = 0.25,0.25,0.1; 0.75,0.6", "wh_tasks needs two coordinates"),
    ("warehouse", "wh_station = 0.5", "wh_station needs two coordinates"),
    ("tag", "spawn_east = 2.5", "spawn_east needs two coordinates"),
    ("tag", "spawn_west = east,west", "spawn_west needs two coordinates"),
    ("tag", "evader_start = 0,0,0", "evader_start needs two coordinates"),
    ("hideseek", "obstacles = 1.8,1.2", r"an obstacle needs \(cx, cy, radius\)"),
    ("hideseek", "obstacles = 1.8,1.2,-0.7", "positive radius"),
    ("hideseek", "obstacles = 1.8,1.2,0.0", "positive radius"),
])
def test_malformed_points_and_obstacles_are_refused_before_writing(
        scenario, line, message, tmp_path, capsys):
    """A planar point needs two numbers and an obstacle three, with a
    positive radius; a config file that gives another shape is refused by
    ``pogplan run`` before it writes anything, with the setting named.  A
    random warehouse layout replaces ``wh_tasks`` per trial, but the value
    as given is still checked."""
    outdir = tmp_path / "out"
    path = tmp_path / "exp.cfg"
    path.write_text(f"scenario = {scenario}\n{line}\noutdir = {outdir}\n"
                    "trials = 1\nepisode_steps = 1\nmax_iters = 1\nk_all = 20\nhidden = 4\n")
    with pytest.raises(ValueError, match=message):
        run_matrix(parse_config_text(path.read_text(), str(path)))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["run", "k_batch", "n_eq"])
def test_a_malformed_thread_count_is_named_before_writing(command, tmp_path, monkeypatch):
    """A ``POGPLAN_THREADS`` that is not an integer stops a battery, a sweep
    or the n_eq grid before it writes anything, with the variable named."""
    monkeypatch.setenv("POGPLAN_THREADS", "two")
    cfg = _tiny_cfg(tmp_path, trials=1)
    with pytest.raises(ValueError, match="POGPLAN_THREADS must be an integer, got 'two'"):
        if command == "run":
            run_matrix(cfg)
        else:
            sweep(cfg, command, [1, 2])
    assert not os.path.exists(cfg.outdir)


def test_run_matrix_keeps_earlier_combos_when_a_later_trial_raises(tmp_path, monkeypatch):
    """A trial that raises in the last combo leaves every earlier combo's
    records and particle clouds on disk."""
    monkeypatch.delenv("POGPLAN_THREADS", raising=False)
    cfg = _tiny_cfg(tmp_path, episode_steps=1, dump_particles=True)

    def failing(game, opts, seed):
        if opts.modes == ["active", "active"]:
            raise RuntimeError("trial failed")
        return run_episode(game, opts, seed)

    monkeypatch.setattr(experiments, "run_episode", failing)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_matrix(cfg)
    names = group_names(trial_game(cfg, cfg.seed))
    labels = [combo_label(names, c) for c in product(("passive", "active"), repeat=2)][:3]
    assert sorted(os.listdir(cfg.outdir)) == sorted(
        ["config_echo.txt"] + [f"{kind}_{label}_{seed}.txt" for kind in ("cloud", "record")
                               for label in labels for seed in (0, 1)])


def _without_seconds(rows):
    return [{k: v for k, v in row.items() if "seconds" not in k} for row in rows]


def test_each_battery_command_fans_out_through_one_pool(tmp_path, monkeypatch):
    """On 2 processes, ``run_matrix``, a two-value ``k_batch`` sweep and a
    two-value n_eq grid each build one process pool, and each gives the rows
    of one process, but for the seconds columns."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    cfg = _tiny_cfg(tmp_path, episode_steps=1)
    for command in (lambda: run_matrix(cfg)[0], lambda: sweep(cfg, "k_batch", [1, 2]),
                    lambda: sweep(cfg, "n_eq", [1, 2])):
        monkeypatch.setenv("POGPLAN_THREADS", "1")
        one = command()
        monkeypatch.setenv("POGPLAN_THREADS", "2")
        pools.clear()
        two = command()
        assert pools == [{"max_workers": 2}]
        assert _without_seconds(two) == _without_seconds(one)


def test_record_round_trip(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    table, records = run_matrix(cfg)
    label = next(iter(records))
    fresh = records[label][0]
    path = os.path.join(cfg.outdir, f"record_{label}_{fresh.seed}.txt")
    loaded = read_trial_record(path)
    assert loaded.seed == fresh.seed
    assert loaded.modes == fresh.modes
    assert len(loaded.steps) == len(fresh.steps)
    for a, b in zip(loaded.steps, fresh.steps):
        np.testing.assert_array_equal(a.state, b.state)
        assert a.rewards_report == b.rewards_report
        assert a.solve_iterations == b.solve_iterations
        assert a.surprisal == b.surprisal
    for ta, tb in zip(loaded.first_traces[0][0], fresh.first_traces[0][0]):
        assert ta == tb
    assert loaded.episode_cost(1) == pytest.approx(fresh.episode_cost(1))


def test_record_grad_norms_round_trip_and_older_records_parse(tmp_path):
    """Each ``[solves]`` row carries the solve's last gradient norm per
    player after the flag; a record from before those columns still parses,
    each solve with the same iterations and flag and no norms."""
    cfg = _tiny_cfg(tmp_path, brain="separate", n_eq=(2,))
    game = trial_game(cfg, 5)
    record = run_episode(game, episode_options(cfg, ("active", "passive")), 5)
    path = tmp_path / "record.txt"
    write_trial_record(record, game, cfg, "label", path)
    loaded = read_trial_record(path)
    assert [s.solves for s in loaded.steps] == [s.solves for s in record.steps]
    norms = [[gn for _, _, gn in c] for c in record.steps[0].solves]
    assert len(norms) == 2 and all(len(c) == 2 for c in norms)  # agents, candidates
    assert all(len(p) == game.n_players and all(g > 0 for g in p) for c in norms for p in c)

    lines, section = [], None
    for line in path.read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[solves]" and not line.startswith("#"):
            line = " ".join(line.split()[:5])
        lines.append(line)
    older = tmp_path / "older.txt"
    older.write_text("\n".join(lines) + "\n")
    old = read_trial_record(older)
    for a, b in zip(old.steps, loaded.steps, strict=True):
        assert a.solves == [[(it, cv, []) for it, cv, _ in c] for c in b.solves]


def test_belief_resets_and_ess_recorded_and_round_trip(tmp_path, monkeypatch):
    """Every update's reset flag and ESS fraction land in the step record,
    per agent, and survive a write/read round trip; a record without the
    ``[belief_health]`` section reads back with no health entries.  At gamma = 1 with a
    sharp view cone, agent 1's weights collapse in the second update."""
    from pogplan import beliefs, runner

    seen = []

    def spy(*args, **kwargs):
        pset = beliefs.update_particles(*args, **kwargs)
        seen.append((args[4], beliefs.effective_sample_size(pset) / pset.k_all,
                     pset.degenerate))
        return pset

    monkeypatch.setattr(runner, "update_particles", spy)
    cfg = _tiny_cfg(tmp_path, brain="separate", gamma=1.0, sigma2_base=1e-6, episode_steps=2)
    game = trial_game(cfg, 2)
    record = run_episode(game, episode_options(cfg, ("active", "active")), 2)
    got = [(agent, *s.belief_health[agent])
           for s in record.steps for agent in sorted(s.belief_health)]
    assert got == seen
    assert [r for _, _, r in got] == [False, False, False, True]

    path = tmp_path / "record.txt"
    write_trial_record(record, game, cfg, "label", path)
    loaded = read_trial_record(path)
    for a, b in zip(loaded.steps, record.steps):
        assert a.belief_health == b.belief_health

    text = path.read_text()
    head, _, rest = text.partition("[belief_health]\n")
    older = tmp_path / "older.txt"
    older.write_text(head + rest[rest.index("[trace]"):])
    old = read_trial_record(older)
    assert all(s.belief_health == {} for s in old.steps)
    for a, b in zip(old.steps, loaded.steps):   # the [belief] rows still parse
        assert a.belief_means.keys() == b.belief_means.keys()
        for key, mean in a.belief_means.items():
            np.testing.assert_array_equal(mean, b.belief_means[key])


def test_emit_plot_data_schemas(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    _, records = run_matrix(cfg)
    batch = next(iter(records.values()))

    traj = tmp_path / "traj.txt"
    emit_plot_data(batch, "trajectory", traj, player=None)
    lines = [l for l in traj.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == cfg.episode_steps * 2  # steps x players

    conv = tmp_path / "conv.txt"
    emit_plot_data(batch, "convergence", conv, player=None)
    rows = [l.split() for l in conv.read_text().splitlines() if not l.startswith("#")]
    assert all(len(r) == 3 for r in rows)  # iteration mean stderr
    assert len(rows) == cfg.max_iters
    for player in (5, -1):   # no player 5; -1 is no alias of the last player
        with pytest.raises(ValueError, match=f"player {player} outside range"):
            emit_plot_data(batch, "convergence", conv, player=player)

    surp = tmp_path / "surp.txt"
    loaded = [read_trial_record(os.path.join(cfg.outdir, f))
              for f in sorted(os.listdir(cfg.outdir)) if f.startswith("record_")]
    # shared-brain records carry surprisal for every player under agent -1,
    # none under a player's own agent: the shared brain's entries are read
    shared = [r for r in loaded if r.brain == "shared"]
    assert shared and all(r.n_eq == [1] for r in shared)
    emit_plot_data(shared, "surprisal", surp, player=None)
    rows = [l.split() for l in surp.read_text().splitlines() if not l.startswith("#")]
    assert [r[0] for r in rows] == ["1"] and all(len(r) == 3 for r in rows)
    # the brain's surprisal about player 0, the default agent's opponent
    want = mean_stderr([np.mean([s.surprisal[(-1, 0)] for s in r.steps]) for r in shared])
    assert [float(v) for v in rows[0][1:]] == list(want)
    for player in (2, -1):   # a two-player record has no agent 2, and no agent -1
        with pytest.raises(ValueError, match=rf"player {player} outside range\(2\)"):
            emit_plot_data(shared, "surprisal", surp, player=player)
    # a chain's player 1 is a teammate of player 0: the plot takes two players only
    chain = [read_trial_record(os.path.join(RECORDS, "tagchain_shared.txt"))]
    with pytest.raises(ValueError, match="two-player records"):
        emit_plot_data(chain, "surprisal", surp, player=None)
    with pytest.raises(ValueError):
        emit_plot_data([], "trajectory", surp, player=None)


def test_sweep_t_future_rows(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse", trials=2, max_iters=3)
    rows = sweep(cfg, "t_future", [1, 2])
    assert [r["t_future"] for r in rows] == [1, 2]
    for r in rows:
        assert np.isfinite(r["mean_cost"])
        assert r["mean_seconds"] > 0
        assert len(r["costs"]) == 2


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(ValueError, match="not sweepable"):
        sweep(_tiny_cfg(tmp_path), "k_all", [1])


def test_sweep_checks_every_value_before_the_first_trial(tmp_path, monkeypatch):
    """A bad swept value is refused before any trial of a good one is played."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial ran before every swept setting was checked")

    monkeypatch.setattr(experiments, "run_episode", unreachable)
    monkeypatch.setattr(experiments, "calc_eq", unreachable)
    cfg = _tiny_cfg(tmp_path, trials=1)
    for param, values, message in (("n_eq", [1, 0], "need k_all >= n_eq >= 1"),
                                   ("k_batch", [4, 0], "k_batch must be at least 1"),
                                   ("t_future", [2, -1], "t_future must be non-negative")):
        with pytest.raises(ValueError, match=message):
            sweep(cfg, param, values)


EPISODE_SETTINGS = os.path.join(os.path.dirname(__file__), "data", "episode_settings.npz")


def _episode_settings_arrays():
    """Episodes driven through ``episode_options`` on the settings an episode
    derives values from (per-agent candidate counts, first-solve iterations,
    resampling threshold, gamma), plus ``neq_grid`` rows: per-step states,
    actions, solve iterations and surprisals as named arrays."""
    tiny = dict(episode_steps=3, max_iters=2, k_all=24, k_batch=2, hidden=(4,),
                t_past=2, t_future=2, lr=0.01)
    cases = {
        "tag": (ExperimentConfig(scenario="tag", brain="separate", n_eq=(2,),
                                 first_step_iters=5, resample_ess_fraction=0.9,
                                 gamma=0.5, **tiny), ("active", "passive"), 5),
        "tagchain": (ExperimentConfig(scenario="tagchain", brain="separate",
                                      n_eq=(1, 2, 1, 2), **tiny),
                     ("passive", "active"), 6),
        "warehouse": (ExperimentConfig(scenario="warehouse", brain="shared", **tiny),
                      ("active",), 7),
    }
    out = {}
    for name, (cfg, combo, seed) in cases.items():
        game = trial_game(cfg, seed)
        record = run_episode(game, episode_options(cfg, modes_for_combo(game, combo)), seed)
        out[f"{name}/n_eq"] = np.array(record.n_eq)
        for s in record.steps:
            out[f"{name}/{s.step}/state"] = s.state
            for i, a in enumerate(s.actions):
                out[f"{name}/{s.step}/action{i}"] = a
            out[f"{name}/{s.step}/iterations"] = np.concatenate(
                [np.array(iters) for iters in s.solve_iterations])
            out[f"{name}/{s.step}/surprisal"] = np.array(
                [[agent, opp, value] for (agent, opp), value in sorted(s.surprisal.items())])

    grid_cfg = ExperimentConfig(scenario="tag", trials=2, **dict(tiny, episode_steps=2))
    for r, row in enumerate(sweep(grid_cfg, "n_eq", [1, 2])):
        for key, value in row.items():
            out[f"neq_grid/{r}/{key}"] = np.array(value)
    return out


def test_episode_settings_match_recorded_values():
    """Episodes and ``neq_grid`` rows built from an ``ExperimentConfig`` are
    bit for bit those recorded in ``tests/data/episode_settings.npz``
    (written by ``np.savez(EPISODE_SETTINGS, **_episode_settings_arrays())``)."""
    got = _episode_settings_arrays()
    with np.load(EPISODE_SETTINGS) as rec:
        assert sorted(rec.files) == sorted(got)
        for key, value in got.items():
            want = rec[key]
            assert value.shape == want.shape, key
            assert value.dtype == want.dtype, key
            assert value.tobytes() == want.tobytes(), key


def test_neq_grid_shape(tmp_path):
    cfg = _tiny_cfg(tmp_path, trials=1, episode_steps=2, max_iters=1)
    rows = sweep(cfg, "n_eq", [1, 2])
    assert len(rows) == 4  # pairwise grid
    for r in rows:
        assert np.isfinite(r["mean_distance"])
        assert np.isfinite(r["mean_surprisal_0"])


def test_neq_grid_rejects_a_four_player_chain(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="tagchain", trials=1)
    with pytest.raises(ValueError, match="needs a two-player scenario"):
        sweep(cfg, "n_eq", [1])
    assert not os.path.exists(cfg.outdir)


def _without_traces(records):
    for r in records:
        r.first_traces = []


def _without_surprisal(records):
    for r in records:
        for s in r.steps:
            s.surprisal.clear()


@pytest.mark.parametrize("kind, strip, match", [
    ("convergence", _without_traces, "no first-step cost traces"),
    ("surprisal", _without_surprisal, "no surprisal entries for the requested agent 1"),
    ("histogram", None, "unknown plot-data kind 'histogram'"),
])
def test_emit_plot_data_refuses_what_it_cannot_plot(tmp_path, kind, strip, match):
    records = [read_trial_record(os.path.join(RECORDS, "tag_separate.txt"))]
    if strip:
        strip(records)
    path = tmp_path / "plot.txt"
    with pytest.raises(ValueError, match=match):
        emit_plot_data(records, kind, path, player=None)
    assert not path.exists()


def test_first_step_stats_warehouse(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse", max_iters=3)
    out = first_step_stats(cfg, 0)
    assert set(out) == {"cost", "seconds"}
    assert np.isfinite(out["cost"])
    assert out["seconds"] > 0


def test_rollout_gradcheck_fast():
    assert rollout_gradcheck("tag", programs=3, seed=1) < 1e-4


def test_belief_bayes_check_api():
    assert belief_bayes_check(k_particles=4000, steps=4, seed=2) < 0.03


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, **kw):
    cfg = _tiny_cfg(tmp_path, **kw)
    from pogplan.config import write_config

    path = tmp_path / "exp.cfg"
    write_config(cfg, path)
    return str(path), cfg


def test_cli_run_and_emit(tmp_path, capsys):
    path, cfg = _write_cfg(tmp_path)
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "summary" in out

    dest = str(tmp_path / "traj.txt")
    assert main(["emit", "--records", cfg.outdir, "--kind", "trajectory",
                 "--out", dest]) == 0
    assert os.path.exists(dest)

    conv = str(tmp_path / "conv.txt")
    assert main(["emit", "--records", cfg.outdir, "--kind", "convergence",
                 "--out", conv]) == 0

    surp = tmp_path / "surp.txt"
    assert main(["emit", "--records", cfg.outdir, "--kind", "surprisal",
                 "--out", str(surp)]) == 0
    rows = [l.split() for l in surp.read_text().splitlines() if not l.startswith("#")]
    assert [r[0] for r in rows] == ["1"]   # the shared brain's one candidate


def test_cli_emit_surprisal_by_candidate_count(tmp_path):
    # separate brains: each record is keyed by its agent's own n_eq
    path, cfg = _write_cfg(tmp_path, brain="separate", n_eq=(2,), trials=1)
    assert main(["run", "--config", path]) == 0
    records = [read_trial_record(os.path.join(cfg.outdir, f))
               for f in os.listdir(cfg.outdir) if f.startswith("record_")]
    assert records and all(r.n_eq == [2, 2] for r in records)
    surp = tmp_path / "surp.txt"
    assert main(["emit", "--records", cfg.outdir, "--kind", "surprisal",
                 "--out", str(surp)]) == 0
    rows = [l.split() for l in surp.read_text().splitlines() if not l.startswith("#")]
    assert [r[0] for r in rows] == ["2"]


def test_cli_sweep(tmp_path, capsys):
    path, cfg = _write_cfg(tmp_path, scenario="warehouse", trials=1, max_iters=2)
    assert main(["sweep", "--config", path, "--param", "t_future",
                 "--values", "1,2"]) == 0
    assert os.path.exists(os.path.join(cfg.outdir, "sweep_t_future.txt"))


def test_cli_sweep_n_eq_writes_and_prints_the_grid(tmp_path, capsys):
    path, cfg = _write_cfg(tmp_path, trials=1, episode_steps=2, max_iters=1)
    assert main(["sweep", "--config", path, "--param", "n_eq",
                 "--values", "1,2"]) == 0
    header = ("# columns: n_eq_0 n_eq_1 mean_distance stderr_distance "
              "mean_surprisal_0 mean_surprisal_1")
    with open(os.path.join(cfg.outdir, "sweep_n_eq.txt")) as fh:
        text = fh.read()
    lines = text.splitlines()
    assert lines[:2] == ["# pogplan sweep v1", header]
    rows = [line.split() for line in lines[2:]]
    assert [r[:2] for r in rows] == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
    assert all(len(r) == 6 for r in rows)
    assert capsys.readouterr().out.endswith(text)   # the table as written


def test_cli_checks(capsys):
    assert main(["gradcheck", "--scenario", "tag", "--programs", "2"]) == 0
    assert main(["beliefcheck", "--particles", "2000", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma = banana\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "gamma" in capsys.readouterr().err

    path, _ = _write_cfg(tmp_path, k_batch=0)
    assert main(["run", "--config", path]) == 1
    assert "k_batch must be at least 1" in capsys.readouterr().err


def test_cli_empty_sweep_exits_nonzero(tmp_path, capsys):
    path, cfg = _write_cfg(tmp_path)
    assert main(["sweep", "--config", path, "--param", "k_batch", "--values", ","]) == 1
    assert "no values to sweep k_batch over" in capsys.readouterr().err
    assert not os.path.exists(cfg.outdir)
    with pytest.raises(ValueError, match="no values"):
        sweep(cfg, "n_eq", [])


def test_cli_zero_width_window_exits_nonzero(tmp_path, capsys):
    path, _ = _write_cfg(tmp_path, t_past=0)
    assert main(["run", "--config", path]) == 1
    assert "t_past must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("gathering", [("passive",), ("passive", "Active")])
def test_cli_sweep_refuses_a_gathering_without_a_mode_per_group(tmp_path, capsys, gathering):
    """A ``gathering`` must give ``active`` or ``passive`` for every mode group
    of the scenario: a short one would silently leave the last group active."""
    path, cfg = _write_cfg(tmp_path, gathering=gathering, trials=1)
    assert main(["sweep", "--config", path, "--param", "t_future", "--values", "1"]) == 1
    assert "for each of 2 mode groups" in capsys.readouterr().err
    assert not os.path.exists(cfg.outdir)
    # entries past the last group are ignored: warehouse has one group
    game = trial_game(_tiny_cfg(tmp_path, scenario="warehouse"), 0)
    assert modes_for_combo(game, ("passive", "active")) == ["active", "passive"]


def test_cli_missing_records_dir(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    dest = tmp_path / "x.txt"
    for kind, message in (("trajectory", "no trial records found under"),
                          ("particle-cloud", "no particle clouds under")):
        assert main(["emit", "--records", str(empty), "--kind", kind, "--out", str(dest)]) == 1
        assert message in capsys.readouterr().err
        assert not dest.exists()


def test_cli_particle_cloud(tmp_path):
    path, cfg = _write_cfg(tmp_path, dump_particles=True, trials=1)
    assert main(["run", "--config", path]) == 0
    dest = tmp_path / "clouds.txt"
    assert main(["emit", "--records", cfg.outdir, "--kind", "particle-cloud",
                 "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("# source step agent")
    assert len(lines) > 10
