"""Shared test scaffolding: tiny fully-observable games with known equilibria."""

import numpy as np
import refchain as rc

from pogplan import adgraph as ag
from pogplan.gamedef import GameDef


class QuadraticGame(GameDef):
    """Players pick one scalar action; the state is just the last action.

    Observation-free (zero-width windows), noise-free, one- or few-step, with
    caller-supplied smooth rewards of the action profile: everything needed to
    hand-derive optima and Nash points for solver tests.
    """

    def __init__(self, reward_fns, t_future=1, t_past=1, action_bound=4.0):
        self.n_players = len(reward_fns)
        self.t_past = t_past
        self.t_future = t_future
        self.reward_fns = reward_fns
        self.action_bound = action_bound

    def state_comps(self, player):
        return (1,)

    def obs_dim(self, player):
        return 0

    def action_dim(self, player):
        return 1

    def noise_dim(self, player):
        return 0

    def action_scale(self, player):
        return self.action_bound

    def transition(self, state, actions):
        return [(a,) for a in actions]

    def observe(self, state, player, eps):
        k = state[0][0].shape[0]
        return np.zeros((k, 0))

    def obs_logdensity(self, state, player, obs):
        return np.zeros(state[0][0].shape[0])

    def reward(self, state, player):
        return self.reward_fns[player](state)

    reward_report = reward

    def sample_initial(self, rng, k):
        return [(np.zeros((k, 1)),) for _ in range(self.n_players)]


def single_quadratic(t_future=1):
    """One player, cost (a - 2)^2; optimum a* = 2."""
    def r(state):
        return ag.affine(rc.square(rc.affine(state[0][0], 1.0, -2.0)), -1.0)

    return QuadraticGame([r], t_future=t_future)


def two_player_quadratic():
    """Costs c1 = (a1 - a2)^2 + 0.1 a1^2 and c2 = (a2 - 1)^2.

    First-order conditions: 2(a1 - a2) + 0.2 a1 = 0 and 2(a2 - 1) = 0,
    so the unique Nash point is (a1, a2) = (1/1.1, 1).
    """
    def r1(state):
        gap = rc.square(ag.sub(state[0][0], state[1][0]))
        own = ag.affine(rc.square(state[0][0]), 0.1)
        return ag.affine(ag.add(gap, own), -1.0)

    def r2(state):
        return ag.affine(rc.square(rc.affine(state[1][0], 1.0, -1.0)), -1.0)

    return QuadraticGame([r1, r2])


def constant_reward_game(value=-1.0, t_future=6):
    """Every step pays ``value`` regardless of play."""
    def r(state):
        return rc.affine(ag.affine(state[0][0], 0.0), 1.0, value)

    return QuadraticGame([r], t_future=t_future)
