"""Abstract differentiable partially observable game, plus shared blocks.

A :class:`GameDef` bundles everything a planner needs: player/state/action/
observation dimensions, a deterministic transition, a reparameterized
observation sampler with its density, per-player instantaneous rewards, and
an initial-state sampler.  All stochasticity enters through explicit noise
arguments (``eps`` draws, ``rng``), so transition/observe/reward are pure and
tape-differentiable.

Joint states are structured as a list over players of tuples of arrays, all
carrying a leading batch axis (K particles, or K=1 for the real world).  For
the planar UAV games a block is ``(position (K,2), velocity (K,2))``.
``pack_state``/``unpack_state`` convert to and from a flat (K, D) layout used
by the particle store.

Instances are immutable after construction and safe to share across rollouts.
"""

from __future__ import annotations

import numpy as np

from . import adgraph as ag
from .adgraph import NORM_EPS


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

    def total_state_dim(self):
        return sum(self.state_dim(i) for i in range(self.n_players))

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
    new_vel = ag.smooth_clamp(ag.add(vel, accel), -v_max, v_max)
    new_pos = ag.add(pos, new_vel)
    return new_pos, new_vel


def bearing_to(pos_obs, vel_obs, pos_target):
    """Signed angle (K, 1) between the observer's heading and the target.

    The heading is the velocity direction; atan2 of (cross, dot) gives the
    bearing in [-pi, pi] without any normalization, and its adjoint is
    regularized so zero velocity yields finite (arbitrary) gradients.
    """
    d = ag.sub(pos_target, pos_obs)
    hx, hy = ag.slice_last(vel_obs, 0, 1), ag.slice_last(vel_obs, 1, 2)
    dx, dy = ag.slice_last(d, 0, 1), ag.slice_last(d, 1, 2)
    cross = ag.sub(ag.mul(hx, dy), ag.mul(hy, dx))
    dot = ag.add(ag.mul(hx, dx), ag.mul(hy, dy))
    return ag.atan2(cross, dot)


def fov_variance(bearing, fov, sigma2_base, c_scale):
    """Observation variance as a function of bearing.

    Constant at ``sigma2_base`` inside the view cone (|bearing| < fov/2) and
    growing linearly at ``c_scale`` per radian outside; continuous at the
    cone boundary.  |bearing| is the smooth eps-regularized absolute value.
    """
    b = ag.smooth_abs(bearing, NORM_EPS)
    excess = ag.relu(ag.affine(b, 1.0, -0.5 * fov))
    return ag.affine(excess, c_scale, sigma2_base)


def fov_observe(state, observer, target, eps, *, fov, sigma2_base, c_scale, play_radius):
    """Noisy field-of-view observation of another player's position.

    The target position receives Gaussian noise whose variance follows
    ``fov_variance`` of the bearing; the sample is then smoothly trimmed to
    the play area box.  ``eps`` is a fixed (K, 2) standard-normal draw.
    """
    pos_o, vel_o = state[observer][0], state[observer][1]
    pos_t = state[target][0]
    bearing = bearing_to(pos_o, vel_o, pos_t)
    var = fov_variance(bearing, fov, sigma2_base, c_scale)
    z = ag.gauss_reparam(pos_t, ag.sqrt(var), eps)
    return ag.smooth_clamp(z, -play_radius, play_radius)


def boundary_penalty(pos, radius, weight):
    """Soft penalty for leaving a circular play area.

    ``weight * softplus(|pos| - radius)^2``: about zero well inside the
    circle, growing quadratically outside; monotone in distance from the
    origin.  Returns shape (K, 1).
    """
    overshoot = ag.affine(ag.norm_eps(pos, NORM_EPS), 1.0, -radius)
    return ag.affine(ag.square(ag.softplus(overshoot)), weight, 0.0)


def sq_dist(a, b):
    """Squared euclidean distance along the last axis, kept as (K, 1)."""
    d = ag.sub(a, b)
    dx, dy = ag.slice_last(d, 0, 1), ag.slice_last(d, 1, 2)
    return ag.add(ag.square(dx), ag.square(dy))


class PlanarGame(GameDef):
    """Common skeleton for the 2-D double-integrator games.

    Per-player state is (position, velocity); actions are accelerations
    bounded by ``accel_max`` and velocities saturate at ``v_max``.
    """

    def __init__(self, n_players, t_past, t_future, v_max, accel_max):
        self.n_players = n_players
        self.t_past = t_past
        self.t_future = t_future
        self.v_max = list(v_max)
        self.accel_max = list(accel_max)

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
