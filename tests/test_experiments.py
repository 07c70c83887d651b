"""Harness: trial batteries, record/summary files, sweeps, CLI plumbing."""

import os

import numpy as np
import pytest

from pogplan.cli import main
from pogplan.config import ExperimentConfig, parse_config_text
from pogplan.experiments import (
    belief_bayes_check,
    emit_plot_data,
    first_step_stats,
    mean_stderr,
    read_summary,
    read_trial_record,
    rollout_gradcheck,
    run_matrix,
    sweep,
)


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
    table, records = run_matrix(cfg)
    assert len(records) == 4  # 2 mode groups -> 4 configurations
    assert len(table.rows) == 8  # x 2 reporting groups
    assert os.path.exists(os.path.join(cfg.outdir, "config_echo.txt"))
    assert os.path.exists(os.path.join(cfg.outdir, "summary.txt"))
    files = os.listdir(cfg.outdir)
    assert sum(f.startswith("record_") for f in files) == 4 * 2

    # stderr matches the direct computation from the per-trial costs
    label = table.rows[0].label
    group_players = [0]
    costs = [r.episode_cost(0) for r in records[label]]
    m, e = mean_stderr(costs)
    assert table.rows[0].mean_cost == pytest.approx(m)
    assert table.rows[0].stderr == pytest.approx(e)


def test_run_matrix_warehouse_has_two_configurations(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse")
    table, records = run_matrix(cfg)
    assert len(records) == 2  # only P2 distinguishes active from passive
    assert {r.label for r in table.rows} == {"p2=passive", "p2=active"}


def test_run_matrix_zero_trials(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path, trials=0)
    table, records = run_matrix(cfg)
    assert table.rows == []
    assert records == {}
    assert "0 trials" in capsys.readouterr().out


def test_summary_round_trip(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    table, _ = run_matrix(cfg)
    back = read_summary(os.path.join(cfg.outdir, "summary.txt"))
    assert back.scenario == table.scenario
    assert len(back.rows) == len(table.rows)
    for a, b in zip(back.rows, table.rows):
        assert a == b  # float repr round-trips exactly


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


def test_emit_plot_data_schemas(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    _, records = run_matrix(cfg)
    batch = next(iter(records.values()))

    traj = tmp_path / "traj.txt"
    emit_plot_data(batch, "trajectory", traj)
    lines = [l for l in traj.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == cfg.episode_steps * 2  # steps x players

    conv = tmp_path / "conv.txt"
    emit_plot_data(batch, "convergence", conv)
    rows = [l.split() for l in conv.read_text().splitlines() if not l.startswith("#")]
    assert all(len(r) == 3 for r in rows)  # iteration mean stderr
    assert len(rows) == cfg.max_iters

    surp = tmp_path / "surp.txt"
    loaded = [read_trial_record(os.path.join(cfg.outdir, f))
              for f in sorted(os.listdir(cfg.outdir)) if f.startswith("record_")]
    # shared-brain records carry surprisal for every player under agent -1;
    # separate-brain runs would group by own candidate count
    shared = [r for r in loaded if r.brain == "shared"]
    with pytest.raises(ValueError):
        emit_plot_data([], "trajectory", surp)


def test_sweep_t_future_rows(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse", trials=2, max_iters=3)
    rows = sweep(cfg, "t_future", [1, 2])
    assert [r["value"] for r in rows] == [1, 2]
    for r in rows:
        assert np.isfinite(r["mean_cost"])
        assert r["mean_seconds"] > 0
        assert len(r["costs"]) == 2


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(ValueError, match="not sweepable"):
        sweep(_tiny_cfg(tmp_path), "k_all", [1])


def test_neq_grid_shape(tmp_path):
    cfg = _tiny_cfg(tmp_path, trials=1, episode_steps=2, max_iters=1)
    rows = sweep(cfg, "n_eq", [1, 2])
    assert len(rows) == 4  # pairwise grid
    for r in rows:
        assert np.isfinite(r["mean_distance"])
        assert np.isfinite(r["mean_surprisal_0"])


def test_first_step_stats_warehouse(tmp_path):
    cfg = _tiny_cfg(tmp_path, scenario="warehouse", max_iters=3)
    out = first_step_stats(cfg, 0)
    assert np.isfinite(out["cost"])
    assert np.isfinite(out["min_station_dist"])
    assert len(out["trace"]) == out["iterations"]


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


def test_cli_sweep(tmp_path, capsys):
    path, cfg = _write_cfg(tmp_path, scenario="warehouse", trials=1, max_iters=2)
    assert main(["sweep", "--config", path, "--param", "t_future",
                 "--values", "1,2"]) == 0
    assert os.path.exists(os.path.join(cfg.outdir, "sweep_t_future.txt"))


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


def test_cli_missing_records_dir(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    assert main(["emit", "--records", str(empty), "--kind", "trajectory",
                 "--out", str(tmp_path / "x.txt")]) == 1


def test_cli_particle_cloud(tmp_path):
    path, cfg = _write_cfg(tmp_path, dump_particles=True, trials=1)
    assert main(["run", "--config", path]) == 0
    dest = tmp_path / "clouds.txt"
    assert main(["emit", "--records", cfg.outdir, "--kind", "particle-cloud",
                 "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("# source step agent")
    assert len(lines) > 10
