"""Configuration parsing: defaults, diagnostics, round trip."""

import os
from dataclasses import fields, replace

import numpy as np
import pytest

from pogplan.config import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_text,
    write_config,
)
from pogplan.experiments import trial_game
from pogplan.scenarios import make_game, sample_tasks

DEFAULTS_FILE = os.path.join(os.path.dirname(__file__), "data", "config_defaults.cfg")


def test_empty_file_gives_experiment_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    # headline defaults of the benchmark setup
    assert cfg.t_future == 6
    assert cfg.t_past == 6
    assert cfg.gamma == 0.1
    assert cfg.k_all == 1000
    assert cfg.k_batch == 10
    assert cfg.max_iters == 100
    assert cfg.episode_steps == 20
    assert cfg.hidden == (64, 64)


def test_simple_overrides_and_comments():
    cfg = parse_config_text("""
        # harness
        gamma = 0.25
        scenario = warehouse   # trailing comment
        trials = 3
        hidden = 16, 8
        gathering = passive, active
        spawn_mode = true
        obstacles = 1.0,0.5,0.3 ; -1.0,-0.5,0.4
    """, source="<config>")
    assert cfg.gamma == 0.25
    assert cfg.scenario == "warehouse"
    assert cfg.trials == 3
    assert cfg.hidden == (16, 8)
    assert cfg.gathering == ("passive", "active")
    assert cfg.spawn_mode is True
    assert cfg.obstacles == ((1.0, 0.5, 0.3), (-1.0, -0.5, 0.4))


def test_malformed_value_names_the_key():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config_text("gamma = banana", source="<config>")
    with pytest.raises(ConfigError, match="trials"):
        parse_config_text("trials = 2.5", source="<config>")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words", source="<config>")
    # ';' separates groups only in a key whose default holds groups, and a
    # flag reads only a word for true or false
    for text in ("hidden = 4; 4", "wh_station = 0.5; 1.0", "n_eq = 1;", "dump_particles = maybe"):
        with pytest.raises(ConfigError, match=text.partition(" ")[0]):
            parse_config_text(text, source="<config>")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key 'flux'"):
        parse_config_text("flux = 1", source="<config>")


def test_missing_file_distinct_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_round_trip_exact(tmp_path):
    cfg = parse_config_text("""
        scenario = hideseek
        brain = separate
        gamma = 0.17
        n_eq = 2, 3
        hidden = 12, 7
        obstacles = 0.5,0.25,0.125 ; -2.0,1.0,0.5
        wh_station = 0.5, 1.0
        lr = 0.0035
        spawn_mode = true
        fov = 1.2345678901234567
    """, source="<config>")
    path = tmp_path / "echo.cfg"
    write_config(cfg, path)
    again = parse_config(path)
    assert again == cfg

    # one obstacle and one task: a key whose default holds groups reads one
    # group without a ';', so its echo parses back to the same one group
    cfg = parse_config_text("""
        scenario = warehouse
        warehouse_random_tasks = false
        obstacles = 1.8, 1.2, 0.7
        wh_tasks = 0.25,0.25
    """, source="<config>")
    assert cfg.obstacles == ((1.8, 1.2, 0.7),)
    assert cfg.wh_tasks == ((0.25, 0.25),)
    write_config(cfg, path)
    assert "obstacles = 1.8,1.2,0.7\n" in path.read_text()
    assert parse_config(path) == cfg

    # an empty tuple value reads as (), is echoed empty and reads back
    cfg = parse_config_text("hidden =", source="<config>")
    assert cfg.hidden == ()
    write_config(cfg, path)
    assert "hidden = \n" in path.read_text()
    assert parse_config(path) == cfg


def test_scenario_config_carries_constants():
    """An experiment config is the game's config: the game reads its
    constants, and a trial swaps in per-seed warehouse tasks only when
    ``warehouse_random_tasks`` is set."""
    cfg = parse_config_text("scenario = warehouse\nwh_alpha = 7.5\nt_future = 4\n"
                            "wh_tasks = 0.1,0.1; 0.9,0.9", source="<config>")
    game = make_game(cfg)
    assert game.config.wh_alpha == 7.5
    assert game.t_future == 4
    assert [tuple(t) for t in game.tasks] == [(0.1, 0.1), (0.9, 0.9)]

    seeded = trial_game(cfg, 3)
    want = sample_tasks(np.random.default_rng(np.random.SeedSequence((3, 77))))
    assert [tuple(t) for t in seeded.tasks] == [tuple(t) for t in want]
    assert seeded.config.wh_alpha == 7.5
    assert cfg.wh_tasks == ((0.1, 0.1), (0.9, 0.9))   # the caller's config is kept
    fixed = trial_game(replace(cfg, warehouse_random_tasks=False), 3)
    assert [tuple(t) for t in fixed.tasks] == [(0.1, 0.1), (0.9, 0.9)]


def test_every_numeric_setting_refuses_minus_one():
    """Each int or float setting has a bound that -1 breaks, and the error
    names the setting."""
    defaults = ExperimentConfig()
    numeric = [f.name for f in fields(ExperimentConfig)
               if type(getattr(defaults, f.name)) in (int, float)]
    assert "eps_tol" in numeric and "spawn_mode" not in numeric
    for name in numeric:
        bad = replace(defaults, **{name: type(getattr(defaults, name))(-1)})
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            bad.validate()


def test_committed_default_echo_still_parses_to_defaults():
    """An echo of the defaults written by an earlier version parses to the
    current defaults and names exactly the current keys."""
    assert parse_config(DEFAULTS_FILE) == ExperimentConfig()
    with open(DEFAULTS_FILE) as fh:
        keys = [line.partition("=")[0].strip() for line in fh if line.strip()]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
