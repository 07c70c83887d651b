"""The benchmark's workloads: fully pinned configurations and seeds.

Every workload sets every ``ExperimentConfig`` field explicitly, so a later
change of a default cannot change what the benchmark runs.  Episodes are
driven the way ``pogplan.experiments`` drives one trial (``trial_game``,
``modes_for_combo``, ``episode_options``, then ``runner.run_episode``), so an
in-process episode and a ``run_matrix`` trial of the same (config, seed) must
agree.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from pogplan import experiments, runner
from pogplan.config import ExperimentConfig
from pogplan.scenarios import group_names

# The paper's settings, written out field by field.
PAPER = {
    "scenario": "tag",
    "brain": "shared",
    "gathering": ("active", "active"),
    "t_past": 6,
    "t_future": 6,
    "k_all": 1000,
    "k_batch": 10,
    "gamma": 0.1,
    "n_eq": (1,),
    "max_iters": 100,
    "first_step_iters": 0,
    "eps_tol": 1e-3,
    "lr": 1e-3,
    "hidden": (64, 64),
    "episode_steps": 4,
    "trials": 1,
    "seed": 0,
    "outdir": "out",
    "warehouse_random_tasks": True,
    "dump_particles": False,
    "resample_ess_fraction": 0.0,
    "play_radius": 5.0,
    "boundary_weight": 10.0,
    "fov": 1.5707963267948966,
    "sigma2_base": 0.01,
    "c_scale": 5.0,
    "v_max_pursuer": 0.3,
    "v_max_evader": 0.375,
    "accel_ratio": 2.0,
    "init_pos_std": 2.0,
    "spawn_mode": False,
    "spawn_east": (2.5, 0.0),
    "spawn_west": (-2.5, 0.0),
    "evader_start": (0.0, 0.0),
    "chain_players": 4,
    "obstacles": ((1.8, 1.2, 0.7), (-1.8, -1.2, 0.7)),
    "wh_alpha": 4.0,
    "wh_beta": 20.0,
    "wh_eta1": 4.0,
    "wh_eta2": 4.0,
    "wh_station": (0.5, 1.0),
    "wh_tasks": ((0.25, 0.25), (0.75, 0.6)),
    "wh_v_max_p1": 0.1,
    "wh_v_max_p2": 0.15,
}

PASSIVE_ACTIVE = ("passive", "active")   # pursuer passive, evader active
ACTIVE_ACTIVE = ("active", "active")


@dataclass(frozen=True)
class Workload:
    name: str
    combo: tuple          # one mode per mode group
    pool_check: bool = False   # also replay its trials through run_matrix's pool
    overrides: dict = field(default_factory=dict)

    def config(self, seed=0, outdir="out"):
        values = dict(PAPER, **self.overrides)
        values.update(seed=seed, outdir=outdir)
        return ExperimentConfig(**values)


WORKLOADS = {w.name: w for w in (
    Workload("tag-shared", PASSIVE_ACTIVE, pool_check=True),
    Workload("hideseek-wide", ACTIVE_ACTIVE,
             overrides={"scenario": "hideseek", "k_batch": 1000, "max_iters": 10,
                        "episode_steps": 3}),
    Workload("tag-separate-cloud", ACTIVE_ACTIVE,
             overrides={"brain": "separate", "gamma": 0.1, "n_eq": (2,),
                        "k_all": 100_000, "max_iters": 3}),
)}


def trial_seeds(seed, name, n):
    """``n`` trial seeds derived from the workload seed and name."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode())])
    return [int(s) & 0x7FFFFFFF for s in ss.generate_state(n)]


def episode_setup(cfg, combo, seed):
    """(game, options) for one trial, exactly as ``run_matrix`` builds them."""
    game = experiments.trial_game(cfg, seed)
    modes = experiments.modes_for_combo(game, combo)
    return game, experiments.episode_options(cfg, modes)


def play(cfg, combo, seed):
    """Run one episode through ``runner.run_episode``; returns (game, record)."""
    game, opts = episode_setup(cfg, combo, seed)
    return game, runner.run_episode(game, opts, seed)


def label(cfg, combo):
    game = experiments.trial_game(cfg, cfg.seed)
    return experiments.combo_label(group_names(game), combo)
