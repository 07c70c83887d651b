"""Recorded harness files: trial records, summary, sweep and plot-data text.

``tests/data/records/`` holds the bytes these files had when they were
recorded, written by ``_write_recorded_files(RECORDS, tmp_path)``.  Wall-clock
seconds are the only nondeterministic values: a record's ``[gradtimes]`` is
made deterministic by giving every step fixed ``grad_seconds`` before the
write, and the summary and sweep files are compared with their seconds
columns masked.
"""

import os

import numpy as np
import pytest

from pogplan.cli import main
from pogplan.config import ExperimentConfig, write_config
from pogplan.experiments import (
    episode_options,
    modes_for_combo,
    read_trial_record,
    trial_game,
    write_trial_record,
)
from pogplan.runner import run_episode

RECORDS = os.path.join(os.path.dirname(__file__), "data", "records")

TINY = dict(episode_steps=3, max_iters=2, k_all=24, k_batch=2, hidden=(4,),
            t_past=2, t_future=2, lr=0.01)

# name: (config, one mode per mode group, seed)
CASES = {
    "tag_separate": (ExperimentConfig(scenario="tag", brain="separate", n_eq=(2,), **TINY),
                     ("active", "passive"), 5),
    "tagchain_shared": (ExperimentConfig(scenario="tagchain", chain_players=6, **TINY),
                        ("passive", "active"), 6),
    "hideseek": (ExperimentConfig(scenario="hideseek", brain="separate", **TINY),
                 ("active", "active"), 7),
    "warehouse": (ExperimentConfig(scenario="warehouse", **TINY), ("active",), 8),
}

BATTERY_FILES = ("summary.txt", "sweep_k_batch.txt", "sweep_n_eq.txt",
                 "emit_trajectory.txt", "emit_convergence.txt", "emit_surprisal.txt")


def _fixed_grad_seconds(record):
    """Give every step's gradient-step times fixed values, keeping their count."""
    for s in record.steps:
        s.grad_seconds = [1e-3 * (i + 1) for i in range(len(s.grad_seconds))]
    return record


def _episode(name):
    cfg, combo, seed = CASES[name]
    game = trial_game(cfg, seed)
    record = run_episode(game, episode_options(cfg, modes_for_combo(game, combo)), seed)
    return cfg, game, _fixed_grad_seconds(record)


@pytest.fixture(scope="module")
def episodes():
    return {name: _episode(name) for name in CASES}


def _older(text):
    """A record as written before ``[belief_health]`` and the gradient-norm
    columns of ``[solves]`` existed."""
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        if section == "[belief_health]":
            continue
        if section == "[solves]" and not line.startswith(("#", "[")):
            line = " ".join(line.split()[:5])
        lines.append(line)
    return "\n".join(lines) + "\n"


def _mask_seconds(text):
    """Every value under a ``# columns:`` name that holds 'seconds' becomes '*'."""
    lines, columns = [], None
    for line in text.splitlines():
        if line.startswith("# columns:"):
            columns = line.split()[2:]
        elif columns and not line.startswith("#"):
            line = " ".join("*" if "seconds" in c else v for c, v in zip(columns, line.split()))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _battery(tmp_path):
    """One tiny shared-brain tag battery through the CLI: the summary, the
    k_batch and n_eq sweeps, and the three record-based plot-data kinds."""
    cfg = ExperimentConfig(scenario="tag", trials=2, outdir=str(tmp_path / "out"),
                           **dict(TINY, episode_steps=2))
    cfg_path = str(tmp_path / "exp.cfg")
    write_config(cfg, cfg_path)
    assert main(["run", "--config", cfg_path]) == 0
    for param in ("k_batch", "n_eq"):
        assert main(["sweep", "--config", cfg_path, "--param", param, "--values", "1,2"]) == 0
    for kind in ("trajectory", "convergence", "surprisal"):
        assert main(["emit", "--records", cfg.outdir, "--kind", kind,
                     "--out", os.path.join(cfg.outdir, f"emit_{kind}.txt")]) == 0
    texts = {}
    for name in BATTERY_FILES:
        with open(os.path.join(cfg.outdir, name)) as fh:
            texts[name] = _mask_seconds(fh.read())
    return texts


def _write_recorded_files(directory, tmp_path):
    os.makedirs(directory, exist_ok=True)
    for name in CASES:
        cfg, game, record = _episode(name)
        write_trial_record(record, game, cfg, name, os.path.join(directory, f"{name}.txt"))
    with open(os.path.join(directory, "tag_separate.txt")) as fh:
        older = _older(fh.read())
    with open(os.path.join(directory, "older.txt"), "w") as fh:
        fh.write(older)
    for name, text in _battery(tmp_path).items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def _recorded(name):
    with open(os.path.join(RECORDS, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_episodes_write_the_recorded_records(name, episodes, tmp_path):
    cfg, game, record = episodes[name]
    path = tmp_path / "record.txt"
    write_trial_record(record, game, cfg, name, path)
    assert path.read_text() == _recorded(f"{name}.txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_read_back_to_the_same_bytes(name, episodes, tmp_path):
    """Every field a record holds is read back, except the gradient-step
    times, which are carried over from the episode that wrote it."""
    cfg, game, record = episodes[name]
    loaded = read_trial_record(os.path.join(RECORDS, f"{name}.txt"))
    assert all(s.grad_seconds == [] for s in loaded.steps)
    for a, b in zip(loaded.steps, record.steps, strict=True):
        a.grad_seconds = b.grad_seconds
    path = tmp_path / "record.txt"
    write_trial_record(loaded, game, cfg, name, path)
    assert path.read_text() == _recorded(f"{name}.txt")


def test_older_records_parse_without_norms_or_belief_health():
    old = read_trial_record(os.path.join(RECORDS, "older.txt"))
    full = read_trial_record(os.path.join(RECORDS, "tag_separate.txt"))
    assert len(old.steps) == len(full.steps) == CASES["tag_separate"][0].episode_steps
    for a, b in zip(old.steps, full.steps):
        assert all(gn for c in b.solves for _, _, gn in c)
        assert a.solves == [[(it, cv, []) for it, cv, _ in c] for c in b.solves]
        assert a.belief_health == {} and b.belief_health
        assert a.surprisal == b.surprisal
        np.testing.assert_array_equal(a.state, b.state)
        assert a.belief_means.keys() == b.belief_means.keys()
        for key, mean in a.belief_means.items():
            np.testing.assert_array_equal(mean, b.belief_means[key])
    assert old.first_traces == full.first_traces


def test_older_records_write_back_to_an_equal_record(tmp_path):
    """A record read from an older file, with no gradient norms and no
    belief health, is written without those columns and rows, and reads
    back field for field equal."""
    old = read_trial_record(os.path.join(RECORDS, "older.txt"))
    cfg, _, seed = CASES["tag_separate"]
    path = tmp_path / "record.txt"
    write_trial_record(old, trial_game(cfg, seed), cfg, "tag_separate", path)
    back = read_trial_record(path)

    def fields(record):
        return {**vars(record), "steps": [vars(s) for s in record.steps]}

    np.testing.assert_equal(fields(back), fields(old))


def test_battery_files_match_the_recorded_files(tmp_path):
    texts = _battery(tmp_path)
    for name in BATTERY_FILES:
        assert texts[name] == _recorded(name), name


def _drop_steps_rows(text, prefix):
    """The record without the ``[steps]`` rows that start with ``prefix``."""
    lines, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        if section == "[steps]" and line.startswith(prefix):
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def _edit_first_row(text, section, edit):
    """The record with the words of the first ``[section]`` row passed through ``edit``."""
    head, _, rest = text.partition(f"[{section}]\n")
    header, row, rest = rest.split("\n", 2)
    return f"{head}[{section}]\n{header}\n{' '.join(edit(row.split()))}\n{rest}"


MALFORMED = {
    "aborted_flag_no": lambda text: text.replace("aborted = false", "aborted = no"),
    "converged_flag_flase": lambda text: _edit_first_row(text, "solves",
                                                         lambda w: w[:4] + ["flase"] + w[5:]),
    "no_players_line": lambda text: text[:text.index("players = ")],
    "reset_flag_yes": lambda text: _edit_first_row(text, "belief_health",
                                                   lambda w: w[:3] + ["yes"]),
    "row_outside_a_section": lambda text: "0 1 2.0\n" + text,
    "short_steps_row": lambda text: _edit_first_row(text, "steps", lambda w: w[:-1]),
    "short_surprisal_row": lambda text: _edit_first_row(text, "surprisal", lambda w: w[:-1]),
    "step_without_steps_rows": lambda text: _drop_steps_rows(text, "2 "),
    "step_without_a_players_row": lambda text: _drop_steps_rows(text, "2 1 "),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_malformed_record_is_an_error_naming_the_file(fault, tmp_path, capsys):
    path = tmp_path / "record_bad.txt"
    path.write_text(MALFORMED[fault](_recorded("tag_separate.txt")))
    with pytest.raises(ValueError, match="record_bad.txt"):
        read_trial_record(path)
    assert main(["emit", "--records", str(tmp_path), "--kind", "trajectory",
                 "--out", str(tmp_path / "traj.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record_bad.txt" in err
