"""Experiment configuration: a flat key = value text format.

One class holds every key: :class:`ExperimentConfig`, the scenario's
constants followed by the harness settings.  ``make_game`` takes it as the
game's config.  Every field has a default; an empty file is a valid
configuration.  Unknown keys, malformed values, and missing files produce
distinct diagnostics.  A full echo of the effective configuration is written
next to experiment outputs, and ``parse_config(write_config(cfg))``
reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from numbers import Real


class ConfigError(ValueError):
    pass


def _scalars(value):
    """A setting's scalars, nested tuples flattened."""
    return [x for v in value for x in _scalars(v)] if isinstance(value, tuple) else [value]


def _is_point(value, width):
    """Whether ``value`` is a tuple of ``width`` numbers."""
    return (isinstance(value, tuple) and len(value) == width
            and all(isinstance(x, Real) for x in value))


# Each kind of bound ``validate`` checks: its wording, its test, and the
# settings it holds for, in field order.
_BOUNDS = (
    ("be at least 1", lambda v: v >= 1, ("t_past", "k_batch")),
    ("be positive", lambda v: v > 0,
     ("play_radius", "fov", "sigma2_base", "v_max_pursuer", "v_max_evader", "accel_ratio",
      "wh_alpha", "wh_beta", "wh_eta1", "wh_eta2", "wh_v_max_p1", "wh_v_max_p2", "lr")),
    ("be non-negative", lambda v: v >= 0,
     ("t_future", "boundary_weight", "c_scale", "init_pos_std", "max_iters", "first_step_iters",
      "eps_tol", "episode_steps", "trials", "seed")),
    ("lie in [0, 1]", lambda v: 0 <= v <= 1, ("gamma", "resample_ess_fraction")),
)


@dataclass
class ExperimentConfig:
    """Scenario name, every game constant, and the harness settings.

    Each field is a flat key of a config file, and all are overridable.
    """

    scenario: str = "tag"
    t_past: int = 6
    t_future: int = 6

    # planar arena
    play_radius: float = 5.0
    boundary_weight: float = 10.0
    fov: float = math.pi / 2
    sigma2_base: float = 0.01
    c_scale: float = 5.0          # variance per radian outside the view cone
    v_max_pursuer: float = 0.3
    v_max_evader: float = 0.375   # evader slightly faster
    accel_ratio: float = 2.0      # accel bound as a multiple of v_max
    init_pos_std: float = 2.0     # spread of the Gaussian initial positions

    # two-player tag (and hideseek) variant: the pursuer starts at one of two
    # points, the evader between them; the other scenarios reject it
    spawn_mode: bool = False
    spawn_east: tuple = (2.5, 0.0)
    spawn_west: tuple = (-2.5, 0.0)
    evader_start: tuple = (0.0, 0.0)

    # tagchain: the chain's player count, even and at least 2; the first
    # half pursue, the second half evade
    chain_players: int = 4

    # HideSeek: circular view-blocking obstacles (cx, cy, radius)
    obstacles: tuple = ((1.8, 1.2, 0.7), (-1.8, -1.2, 0.7))

    # Warehouse
    wh_alpha: float = 4.0         # proximity-penalty weight on P2
    wh_beta: float = 20.0         # kernel sharpness
    wh_eta1: float = 4.0          # noise per unit of P1's distance from station
    wh_eta2: float = 4.0          # noise per unit of P2's distance from station
    wh_station: tuple = (0.5, 1.0)
    wh_tasks: tuple = ((0.25, 0.25), (0.75, 0.6))
    wh_v_max_p1: float = 0.1
    wh_v_max_p2: float = 0.15

    # harness
    brain: str = "shared"
    gathering: tuple = ("active", "active")  # per mode group, see run_matrix
    k_all: int = 1000
    k_batch: int = 10
    gamma: float = 0.1
    n_eq: tuple = (1,)
    max_iters: int = 100
    first_step_iters: int = 0      # 0: same as max_iters
    eps_tol: float = 1e-3          # stop when every gradient L2 norm is below this
    lr: float = 1e-3
    hidden: tuple = (64, 64)
    episode_steps: int = 20
    trials: int = 10
    seed: int = 0
    outdir: str = "out"
    warehouse_random_tasks: bool = True
    dump_particles: bool = False
    resample_ess_fraction: float = 0.0  # 0 disables the resampling extension

    def validate(self):
        """Every bound, then the structural checks; ``make_game`` runs them,
        so ``run_matrix`` rejects bad settings before writing anything."""
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x) for x in _scalars(value)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for bound, holds, names in _BOUNDS:
            for name in names:
                if not holds(getattr(self, name)):
                    raise ValueError(f"{name} must {bound}, got {getattr(self, name)}")
        if self.chain_players < 2 or self.chain_players % 2 != 0:
            raise ValueError(f"chain_players must be even and >= 2, got {self.chain_players}")
        if self.spawn_mode and self.scenario not in ("tag", "hideseek"):
            raise ValueError(f"spawn_mode places two tag players; {self.scenario} "
                             "does not take it")
        points = [(name, getattr(self, name)) for name in
                  ("spawn_east", "spawn_west", "evader_start", "wh_station")]
        for name, point in points + [("wh_tasks", task) for task in self.wh_tasks]:
            if not _is_point(point, 2):
                raise ValueError(f"{name} needs two coordinates per point, got {point}")
        for obstacle in self.obstacles:
            if not _is_point(obstacle, 3) or obstacle[2] <= 0:
                raise ValueError(f"an obstacle needs (cx, cy, radius) with a positive "
                                 f"radius, got {obstacle}")
            cx, cy, r = obstacle
            if math.hypot(cx, cy) + r > self.play_radius:
                raise ValueError(f"obstacle ({cx}, {cy}, r={r}) leaves the play area")
        if not all(width >= 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {self.hidden}")
        if not all(1 <= n <= self.k_all for n in self.n_eq):
            raise ValueError(f"need k_all >= n_eq >= 1, got {self.k_all}, {self.n_eq}")
        return self


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_DEFAULTS = ExperimentConfig()


def _parse_scalar(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(key, text, default):
    text = text.strip()
    kind = type(default)
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        if kind is tuple:
            # a key whose default holds groups always reads ';'-separated
            # groups, one group included; any other tuple key reads one group
            if default and isinstance(default[0], tuple):
                return tuple(tuple(_parse_scalar(v) for v in group.split(","))
                             for group in text.split(";") if group.strip())
            if ";" in text:
                raise ValueError(text)
            if text == "":
                return ()
            return tuple(_parse_scalar(v) for v in text.split(","))
    except ValueError:
        pass
    raise ConfigError(f"malformed value for key '{key}': {text!r}")


def parse_config_text(text, source):
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key '{key}'")
        cfg = replace(cfg, **{key: _parse_value(key, value, getattr(_DEFAULTS, key))})
    return cfg


def parse_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(",".join(repr(x) if isinstance(x, float) else str(x)
                                      for x in group) for group in value)
        return ",".join(repr(x) if isinstance(x, float) else str(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(cfg, path):
    """Echo every field as key = value; the result parses back exactly."""
    with open(path, "w") as fh:
        for f in fields(ExperimentConfig):
            fh.write(f"{f.name} = {_format_value(getattr(cfg, f.name))}\n")
