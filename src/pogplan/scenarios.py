"""Concrete game definitions: the tag family and Warehouse.

One class, :class:`TagGame`, plays tag as a cyclic chain of pursuers and
evaders: the ``tag`` scenario is its two-player chain, ``tagchain`` a chain
of ``chain_players``, and ``hideseek`` is two-player tag with obstacles.
All are continuous planar games with double-integrator dynamics and
reparameterized Gaussian observations.  Constants live in
:class:`ScenarioConfig`; a scenario instance is immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import adgraph as ag
from .gamedef import PlanarGame, boundary_penalty, sq_dist

SMOOTHMIN_TEMP = 10.0  # sharpness of the soft minimum over obstacles


@dataclass
class ScenarioConfig:
    """Scenario name plus every game constant, all overridable.

    Each field is also a flat key of an experiment config file:
    :class:`pogplan.config.ExperimentConfig` subclasses this class, so an
    experiment config is itself the game's config.
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
    # points, the evader between them; tagchain rejects it
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

    def validate(self):
        if self.t_past < 1:
            raise ValueError(f"t_past must be at least 1, got {self.t_past}")
        if self.t_future < 0:
            raise ValueError(f"t_future must be non-negative, got {self.t_future}")
        if self.chain_players < 2 or self.chain_players % 2 != 0:
            raise ValueError(f"chain_players must be even and >= 2, got {self.chain_players}")
        if self.spawn_mode and self.scenario == "tagchain":
            raise ValueError("spawn_mode places two players; tagchain does not take it")
        for quantity in ("sigma2_base", "wh_alpha", "wh_beta", "wh_eta1", "wh_eta2"):
            if getattr(self, quantity) <= 0:
                raise ValueError(f"{quantity} must be positive")
        if self.init_pos_std < 0:
            raise ValueError(f"init_pos_std must be non-negative, got {self.init_pos_std}")
        for cx, cy, r in self.obstacles:
            if math.hypot(cx, cy) + r > self.play_radius:
                raise ValueError(f"obstacle ({cx}, {cy}, r={r}) leaves the play area")
        return self


def make_game(config):
    """Instantiate the configured scenario."""
    config.validate()
    if config.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{config.scenario}'")
    return SCENARIOS[config.scenario](config)


def _gaussian_logdensity(obs_block, mean, var):
    """numpy log density of an isotropic 2-D Gaussian block."""
    d2 = np.sum((np.asarray(obs_block) - mean) ** 2, axis=-1)
    return -np.log(2.0 * np.pi * var) - d2 / (2.0 * var)


class TagGame(PlanarGame):
    """Pursuit-evasion in a circular arena, as a cyclic chain of N players.

    Players 0..N/2-1 pursue and the rest evade: pursuer i chases evader i,
    evader j flees pursuer (j+1) mod N/2.  A pursuer's reward is minus its
    distance to its target, an evader's its distance from its threat, each
    less its own boundary penalty.  With two players this is tag, zero-sum
    apart from those penalties; a longer chain is general-sum.  Every player
    sees its own state exactly and every other player's position through a
    noisy forward-facing view cone.
    """

    def __init__(self, config, n_players=2):
        self.half = n_players // 2
        super().__init__(config, [config.v_max_pursuer] * self.half
                         + [config.v_max_evader] * self.half)

    def player_groups(self):
        """The two teams, whose players report team means and toggle their
        information-gathering mode together."""
        s = "" if self.half == 1 else "s"
        return [(f"pursuer{s}", list(range(self.half))),
                (f"evader{s}", list(range(self.half, self.n_players)))]

    def obs_dim(self, player):
        return 4 + 2 * (self.n_players - 1)

    def noise_dim(self, player):
        return 2 * (self.n_players - 1)

    def _pair_variance(self, state, observer, target):
        """(K, 1) observation variance for one observer/target pair."""
        cfg = self.config
        return ag.fov_variance(state[observer][0], state[observer][1], state[target][0],
                               cfg.fov, cfg.sigma2_base, cfg.c_scale)

    def observe(self, state, player, eps):
        r = self.config.play_radius
        parts = [state[player][0], state[player][1]]  # own state seen exactly
        col = 0
        for other in range(self.n_players):
            if other == player:
                continue
            var = self._pair_variance(state, player, other)
            parts.append(ag.trimmed_gauss(state[other][0], var, eps[..., col:col + 2], -r, r))
            col += 2
        return ag.concat(parts)

    def obs_logdensity(self, state, player, obs):
        obs = np.asarray(obs)
        logd = 0.0
        col = 4
        for other in range(self.n_players):
            if other == player:
                continue
            var = self._pair_variance(state, player, other)[..., 0]
            logd = logd + _gaussian_logdensity(obs[..., col:col + 2], state[other][0], var)
            col += 2
        return logd

    def reward_report(self, state, player):
        if player < self.half:  # pursuer i chases evader i
            target = self.half + player
            return ag.affine(ag.norm_eps(ag.sub(state[player][0], state[target][0])), -1.0, 0.0)
        threat = (player - self.half + 1) % self.half  # evader j flees pursuer (j+1) mod N/2
        return ag.norm_eps(ag.sub(state[player][0], state[threat][0]))

    def reward(self, state, player):
        cfg = self.config
        return ag.sub(self.reward_report(state, player),
                      boundary_penalty(state[player][0], cfg.play_radius, cfg.boundary_weight))

    def sample_initial(self, rng, k):
        cfg = self.config
        if cfg.spawn_mode:  # two players: pursuer at one of two points, evader between
            positions = [np.array([cfg.spawn_east, cfg.spawn_west])[rng.integers(0, 2, size=k)],
                         np.tile(np.asarray(cfg.evader_start, dtype=float), (k, 1))]
        else:
            positions = [rng.normal(0.0, cfg.init_pos_std, size=(k, 2))
                         for _ in range(self.n_players)]
        return [(pos, np.zeros((k, 2))) for pos in positions]


class HideSeekGame(TagGame):
    """Tag with circular obstacles that block the view and must be avoided.

    A sight line passing near an obstacle raises the observation variance in
    the same way as leaving the view cone does, and colliding with an
    obstacle is penalized like the exterior boundary.
    """

    def __init__(self, config):
        super().__init__(config)
        if not config.obstacles:
            raise ValueError("HideSeek requires at least one obstacle")
        self.obstacles = np.asarray(config.obstacles, dtype=float)   # rows (cx, cy, r)

    def _pair_variance(self, state, observer, target):
        # Occlusion raises the variance like leaving the view cone does.  The
        # softplus is sharpened (temperature matching the obstacle smooth-min)
        # so a clear sight line a couple of units away adds nothing.
        return ag.occluded_variance(super()._pair_variance(state, observer, target),
                                    state[observer][0], state[target][0], self.obstacles,
                                    SMOOTHMIN_TEMP, self.config.c_scale)

    def reward(self, state, player):
        return ag.obstacle_penalty(super().reward(state, player), state[player][0],
                                   self.obstacles, self.config.boundary_weight)


class WarehouseGame(PlanarGame):
    """Two pickup robots in the unit box; P2 plans around an oblivious P1.

    Both players are attracted to the task locations; P2 is additionally
    penalized for proximity to P1.  P1 senses only its own position.  P2
    senses itself exactly and P1 through a broadcast whose noise grows with
    both players' distances from the station (exact when both are at it).
    """

    def __init__(self, config):
        super().__init__(config, [config.wh_v_max_p1, config.wh_v_max_p2])
        self.station = np.asarray(config.wh_station, dtype=float)
        self.tasks = [np.asarray(t, dtype=float) for t in config.wh_tasks]

    def player_groups(self):
        return [("p1", [0]), ("p2", [1])]

    def obs_dim(self, player):
        return 2 if player == 0 else 4

    def noise_dim(self, player):
        return 0 if player == 0 else 2

    def _broadcast_sigma(self, state):
        """(K, 1) noise level of the station's broadcast of P1's position."""
        cfg = self.config
        d1 = ag.norm_eps(ag.sub(state[0][0], self.station))
        d2 = ag.norm_eps(ag.sub(state[1][0], self.station))
        return ag.add(ag.affine(d1, cfg.wh_eta1, 0.0), ag.affine(d2, cfg.wh_eta2, 0.0))

    def observe(self, state, player, eps):
        # The broadcast is left untrimmed: the station itself sits on the box
        # edge, where the exact-at-station contract rules out any saturation,
        # and noisy readings may legitimately land outside the box.
        if player == 0:
            return state[0][0]
        z1 = ag.gauss_reparam(state[0][0], self._broadcast_sigma(state), eps)
        return ag.concat([state[1][0], z1])

    def obs_logdensity(self, state, player, obs):
        if player == 0:
            k = np.asarray(state[0][0]).shape[0]
            return np.zeros(k)
        var = self._broadcast_sigma(state)[..., 0] ** 2 + 1e-12
        return _gaussian_logdensity(np.asarray(obs)[..., 2:4], state[0][0], var)

    def reward_report(self, state, player):
        cfg = self.config
        pos = state[player][0]
        r = None
        for task in self.tasks:
            term = ag.exp(ag.affine(sq_dist(pos, task), -cfg.wh_beta, 0.0))
            r = term if r is None else ag.add(r, term)
        if player == 1:
            near = ag.exp(ag.affine(sq_dist(state[1][0], state[0][0]), -cfg.wh_beta, 0.0))
            r = ag.sub(r, ag.affine(near, cfg.wh_alpha, 0.0))
        return r

    def reward(self, state, player):
        return self.reward_report(state, player)

    def sample_initial(self, rng, k):
        return [(rng.uniform(0.0, 1.0, size=(k, 2)), np.zeros((k, 2)))
                for _ in range(self.n_players)]


# Scenario name -> game constructor: the names ``make_game`` and the CLI accept.
SCENARIOS = {
    "tag": TagGame,
    "tagchain": lambda config: TagGame(config, config.chain_players),
    "hideseek": HideSeekGame,
    "warehouse": WarehouseGame,
}


def sample_tasks(rng):
    """Two random task locations in the unit box (per-trial warehouse layout)."""
    return tuple(tuple(rng.uniform(0.0, 1.0, size=2)) for _ in range(2))


def _gathering_groups(game):
    """The game's player groups whose players all observe with noise: only
    they have an active/passive distinction."""
    return [(name, players) for name, players in game.player_groups()
            if all(game.noise_dim(p) > 0 for p in players)]


def mode_groups(game):
    """Groups of players that share one information-gathering mode."""
    return [players for _, players in _gathering_groups(game)]


def group_names(game):
    """Human labels aligned with :func:`mode_groups`."""
    return [name for name, _ in _gathering_groups(game)]
