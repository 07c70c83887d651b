"""Concrete game definitions: the tag family and Warehouse.

One class, :class:`TagGame`, plays tag as a cyclic chain of pursuers and
evaders: the ``tag`` scenario is its two-player chain, ``tagchain`` a chain
of ``chain_players``, and ``hideseek`` is two-player tag with obstacles.
All are continuous planar games with double-integrator dynamics and
reparameterized Gaussian observations.  Constants live in
:class:`~pogplan.config.ExperimentConfig`, which ``make_game`` is given; a
scenario instance is immutable once built.
"""

from __future__ import annotations

import numpy as np

from . import adgraph as ag
from .gamedef import PlanarGame, boundary_penalty, sq_dist

SMOOTHMIN_TEMP = 10.0  # sharpness of the soft minimum over obstacles


def make_game(config):
    """Instantiate the configured scenario, once its name and settings are checked."""
    if config.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{config.scenario}'")
    return SCENARIOS[config.scenario](config.validate())


def _gaussian_logdensity(obs_block, mean, var):
    """numpy log density of an isotropic 2-D Gaussian block."""
    obs = np.asarray(obs_block)
    d0, d1 = obs[..., 0] - mean[..., 0], obs[..., 1] - mean[..., 1]
    return -np.log(2.0 * np.pi * var) - (d0 * d0 + d1 * d1) / (2.0 * var)


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
            parts.append(ag.trimmed_gauss(state[other][0], var, eps[..., col:col + 2], r))
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
            return ag.affine(ag.norm_eps(ag.sub(state[player][0], state[target][0])), -1.0)
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
        if not config.wh_tasks:
            raise ValueError("Warehouse requires at least one task")
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
        return ag.add(ag.affine(d1, cfg.wh_eta1), ag.affine(d2, cfg.wh_eta2))

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
            term = ag.exp(ag.affine(sq_dist(pos, task), -cfg.wh_beta))
            r = term if r is None else ag.add(r, term)
        if player == 1:
            near = ag.exp(ag.affine(sq_dist(state[1][0], state[0][0]), -cfg.wh_beta))
            r = ag.sub(r, ag.affine(near, cfg.wh_alpha))
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
