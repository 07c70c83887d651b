"""Abstract differentiable partially observable game, plus shared blocks.

A :class:`GameDef` bundles everything a planner needs: player/state/action/
observation dimensions, a deterministic transition, a reparameterized
observation sampler with its density, per-player instantaneous rewards, and
an initial-state sampler.  All stochasticity enters through explicit noise
arguments (``eps`` draws, ``rng``), so transition/observe/reward are pure and
tape-differentiable.

Joint states are structured as a list over players of tuples of arrays, all
carrying a leading batch axis (K particles, or K=1 for the real world).  A
block starts with its player's position: ``(position (K,2), velocity (K,2))``
in the planar UAV games.  ``pack_state``/``unpack_state`` convert to and from
a flat (K, D) layout used by the particle store.

Instances are immutable after construction and safe to share across rollouts.
"""

from __future__ import annotations

import numpy as np

from . import adgraph as ag


class GameDef:
    """Base class; scenarios override the abstract pieces."""

    n_players: int
    t_past: int
    t_future: int

    # -- dimensions -------------------------------------------------------
    def state_comps(self, player):
        """Per-component widths of this player's state block, e.g. (2, 2)."""
        raise NotImplementedError

    def obs_dim(self, player):
        raise NotImplementedError

    def action_dim(self, player):
        raise NotImplementedError

    def noise_dim(self, player):
        """Number of standard-normal draws one observation consumes."""
        raise NotImplementedError

    def action_scale(self, player):
        raise NotImplementedError

    # -- dynamics / observation / reward -----------------------------------
    def transition(self, state, actions):
        """Advance the joint state one step under the joint action."""
        raise NotImplementedError

    def observe(self, state, player, eps):
        """Sample player's observation of ``state`` via fixed noise ``eps``."""
        raise NotImplementedError

    def obs_logdensity(self, state, player, obs):
        """Log density of the stochastic observation components (numpy only).

        Used for conditioning particle weights on a true observation; the
        density is the plain (untrimmed) Gaussian of the noisy blocks.
        Players with noise-free observations return zeros.
        """
        raise NotImplementedError

    def reward(self, state, player):
        """Instantaneous reward, shape (K, 1); includes boundary penalties."""
        raise NotImplementedError

    def reward_report(self, state, player):
        """Reward used for reported costs: excludes boundary-style penalties."""
        raise NotImplementedError

    def sample_initial(self, rng, k):
        """Draw k joint states from the initial distribution (numpy)."""
        raise NotImplementedError

    # -- packing ------------------------------------------------------------
    def state_dim(self, player):
        return sum(self.state_comps(player))

    def state_offset(self, player):
        return sum(self.state_dim(i) for i in range(player))

    def pack_state(self, state):
        """Structure -> flat (K, D) array."""
        cols = []
        for block in state:
            cols.extend(np.asarray(c, dtype=np.float64) for c in block)
        return np.concatenate(cols, axis=-1)

    def unpack_state(self, arr):
        """Flat (K, D) array -> structure (views where possible)."""
        state = []
        off = 0
        for i in range(self.n_players):
            block = []
            for width in self.state_comps(i):
                block.append(arr[..., off:off + width])
                off += width
            state.append(tuple(block))
        return state


# ---------------------------------------------------------------------------
# Shared building blocks for the planar UAV games.
# ---------------------------------------------------------------------------

def double_integrator_step(pos, vel, accel, v_max):
    """One step of discrete double-integrator dynamics (dt = 1).

    The commanded acceleration is added to the velocity, which saturates
    smoothly at +-v_max per axis; the position then advances by the new
    velocity.  Deterministic: there is no process noise.
    """
    new_vel = ag.clamped_add(vel, accel, v_max)
    new_pos = ag.add(pos, new_vel)
    return new_pos, new_vel


def boundary_penalty(pos, radius, weight):
    """Soft penalty for leaving a circular play area.

    ``weight * softplus(|pos| - radius)^2``: about zero well inside the
    circle, growing quadratically outside; monotone in distance from the
    origin.  Returns shape (K, 1).
    """
    return ag.soft_barrier(pos, -radius, weight)


def sq_dist(a, b):
    """Squared euclidean distance along the last axis, kept as (K, 1)."""
    d = ag.sub(a, b)
    return ag.dot2(d, d)


class PlanarGame(GameDef):
    """Common skeleton for the 2-D double-integrator games.

    Built from the scenario's config and one velocity bound per player.
    Per-player state is (position, velocity); velocities saturate at
    ``v_max`` and actions are accelerations bounded by ``accel_max``,
    ``config.accel_ratio`` times ``v_max``.
    """

    def __init__(self, config, v_max):
        self.config = config
        self.n_players = len(v_max)
        self.t_past = config.t_past
        self.t_future = config.t_future
        self.v_max = list(v_max)
        self.accel_max = [config.accel_ratio * v for v in v_max]

    def state_comps(self, player):
        return (2, 2)

    def action_dim(self, player):
        return 2

    def action_scale(self, player):
        return self.accel_max[player]

    def transition(self, state, actions):
        out = []
        for i in range(self.n_players):
            pos, vel = state[i][0], state[i][1]
            new_pos, new_vel = double_integrator_step(pos, vel, actions[i], self.v_max[i])
            out.append((new_pos, new_vel))
        return out
