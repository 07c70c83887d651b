"""Tiny two-state, two-observation filtering game with an exact oracle.

Used to check the conditioned particle update against enumerable Bayes
filtering: one player, a static binary latent state, and a symmetric-noise
binary observation.  The observation channel is expressed through the same
standard-normal noise interface as the continuous games (the draw flips the
reading when |eps| exceeds the matching normal quantile), so the particle
update runs on it unchanged.  Not differentiable; never used with the tape.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .gamedef import GameDef


class ToyFilterGame(GameDef):
    """Latent x in {0, 1}, uniform prior; z = x flipped with probability
    ``flip_prob``.  Every constant is fixed: the oracle needs one game."""

    n_players = 1
    t_past = 3
    t_future = 1
    flip_prob = 0.2
    prior_one = 0.5
    _flip_quantile = NormalDist().inv_cdf(1.0 - flip_prob / 2.0)

    def state_comps(self, player):
        return (1,)

    def obs_dim(self, player):
        return 1

    def action_dim(self, player):
        return 1

    def noise_dim(self, player):
        return 1

    def action_scale(self, player):
        return 1.0

    def transition(self, state, actions):
        # static latent state; actions have no effect
        return [(np.asarray(state[0][0]).copy(),)]

    def observe(self, state, player, eps):
        x = np.asarray(state[0][0])
        flip = np.abs(np.asarray(eps)) > self._flip_quantile
        return np.where(flip, 1.0 - x, x)

    def obs_logdensity(self, state, player, obs):
        x = np.asarray(state[0][0])[..., 0]
        z = np.asarray(obs)[..., 0]
        match = np.abs(z - x) < 0.5
        return np.log(np.where(match, 1.0 - self.flip_prob, self.flip_prob))

    def reward(self, state, player):
        return np.zeros((np.asarray(state[0][0]).shape[0], 1))

    reward_report = reward

    def sample_initial(self, rng, k):
        x = (rng.random(k) < self.prior_one).astype(float)
        return [(x[:, None],)]


def exact_posterior(game, observations):
    """Enumerated Bayes posterior P(x = 0), P(x = 1) after the observation
    sequence; the independent oracle for the conditioned particle update."""
    p = np.array([1.0 - game.prior_one, game.prior_one])
    for z in observations:
        like = np.array([
            1.0 - game.flip_prob if abs(z - 0.0) < 0.5 else game.flip_prob,
            1.0 - game.flip_prob if abs(z - 1.0) < 0.5 else game.flip_prob,
        ])
        p = p * like
        p = p / p.sum()
    return p
