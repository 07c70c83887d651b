"""Experiment configuration: a flat key = value text format.

One class holds every key: :class:`ExperimentConfig`, the scenario's
:class:`~pogplan.scenarios.ScenarioConfig` plus the harness settings.
Every field has a default; an empty file is a valid configuration.  Unknown
keys, malformed values, and missing files produce distinct diagnostics.  A
full echo of the effective configuration is written next to experiment
outputs, and ``parse_config(write_config(cfg))`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .scenarios import ScenarioConfig


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig(ScenarioConfig):
    """Every scenario constant (inherited) plus the harness settings.

    An experiment config is the game's config: ``make_game`` takes it as is.
    """

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
        """The scenario checks, then the harness's; ``make_game`` runs them,
        so ``run_matrix`` rejects bad settings before writing anything."""
        super().validate()
        if self.k_batch < 1:
            raise ValueError(f"k_batch must be at least 1, got {self.k_batch}")
        if not all(width >= 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {self.hidden}")
        for quantity in ("seed", "max_iters", "first_step_iters", "episode_steps", "trials"):
            if getattr(self, quantity) < 0:
                raise ValueError(f"{quantity} must be non-negative, got {getattr(self, quantity)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.resample_ess_fraction <= 1.0:
            raise ValueError("resample_ess_fraction must lie in [0, 1], "
                             f"got {self.resample_ess_fraction}")
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
