"""Observation-history-to-action policies and the Adam optimizer.

A policy is a small feedforward tanh network mapping a flattened window of
recent observations to an action, squashed to the player's action bound.
Two information-gathering modes exist:

* ``active``  -- the network is queried every future step with the rolled
  observation window, so plans can branch on what will be observed.
* ``passive`` -- the network emits the entire future action sequence from the
  frozen planning-time window; future observations cannot influence it.

Policies are plain containers of weight arrays.  The same forward code runs
on raw numpy arrays (fast evaluation) or on tape nodes (differentiation);
see :mod:`pogplan.adgraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import adgraph as ag

ACTIVE = "active"
PASSIVE = "passive"


@dataclass
class PolicyParams:
    """One player's policy: layer weights/biases plus mode metadata."""

    weights: list  # per layer, shape (out, in); arrays or tape nodes
    biases: list   # per layer, shape (out,)
    mode: str
    input_width: int
    action_dim: int
    horizon: int          # number of future steps covered (passive emits all)
    action_scale: float

    @property
    def output_width(self):
        return self.action_dim * (self.horizon if self.mode == PASSIVE else 1)

    def copy(self):
        return replace(self, weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases])


def init_policy(game, player, mode, seed, hidden=(64, 64)):
    """Build a freshly initialized policy for one player.

    Weights are Glorot-uniform (+-sqrt(6/(fan_in+fan_out))), biases zero;
    identical seeds give bitwise-identical parameters.
    """
    if mode not in (ACTIVE, PASSIVE):
        raise ValueError(f"unknown policy mode '{mode}'")
    if not 0 <= player < game.n_players:
        raise ValueError(f"player index {player} out of range")
    input_width = game.t_past * game.obs_dim(player)
    action_dim = game.action_dim(player)
    out_width = action_dim * (game.t_future if mode == PASSIVE else 1)
    rng = np.random.default_rng(seed)
    sizes = [input_width, *hidden, out_width]
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return PolicyParams(weights=weights, biases=biases, mode=mode,
                        input_width=input_width, action_dim=action_dim,
                        horizon=game.t_future,
                        action_scale=game.action_scale(player))


def policy_forward(theta, history, t_offset=0):
    """Evaluate the policy on a flattened observation window.

    ``history`` is (input_width,) or batched (K, input_width), most recent
    observation last, zero-filled prehistory.  Active mode ignores
    ``t_offset``; passive mode selects the ``t_offset``-th action block of
    the emitted sequence, or returns the whole sequence when ``t_offset`` is
    None.  The output satisfies ``|action| <= action_scale`` per coordinate
    via a tanh squash.
    """
    width = history.shape[-1] if hasattr(history, "shape") else np.shape(history)[-1]
    if width != theta.input_width:
        raise ValueError(f"history width {width} != policy input width {theta.input_width}")
    h = history
    for w, b in zip(theta.weights, theta.biases):
        h = ag.dense_tanh(w, b, h)
    out = ag.scale(h, theta.action_scale)
    if theta.mode == PASSIVE and t_offset is not None:
        out = action_block(theta, out, t_offset)
    return out


def action_block(theta, sequence, t_offset):
    """The ``t_offset``-th action of a passive policy's emitted sequence."""
    if not 0 <= t_offset < theta.horizon:
        raise ValueError(f"t_offset {t_offset} outside horizon {theta.horizon}")
    lo = t_offset * theta.action_dim
    return ag.slice_last(sequence, lo, lo + theta.action_dim)


def lift_policy(tape, theta):
    """Copy a policy onto a tape as trainable parameters."""
    return replace(theta, weights=[tape.param(w) for w in theta.weights],
                   biases=[tape.param(b) for b in theta.biases])


def policy_leaves(theta):
    """Flat list of the policy's arrays (or nodes), weights then biases per layer."""
    leaves = []
    for w, b in zip(theta.weights, theta.biases):
        leaves.append(w)
        leaves.append(b)
    return leaves


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second-moment accumulators matching one policy's leaves."""

    m: list
    v: list
    step: int
    lr: float
    beta1: float
    beta2: float
    eps: float

    def copy(self):
        return replace(self, m=[a.copy() for a in self.m], v=[a.copy() for a in self.v])


def adam_init(theta, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    leaves = policy_leaves(theta)
    return AdamState(m=[np.zeros_like(a) for a in leaves],
                     v=[np.zeros_like(a) for a in leaves],
                     step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(theta, grads, state):
    """One bias-corrected Adam update.

    ``grads`` aligns with ``policy_leaves(theta)``.  A non-finite gradient
    skips the update entirely: returns ``(theta, state, True)`` unchanged.
    """
    if any(not np.all(np.isfinite(g)) for g in grads):
        return theta, state, True
    leaves = policy_leaves(theta)
    if len(grads) != len(leaves):
        raise ValueError("gradient count does not match parameter count")
    t = state.step + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    new_leaves, new_m, new_v = [], [], []
    for a, g, m, v in zip(leaves, grads, state.m, state.v):
        if g.shape != a.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {a.shape}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new_leaves.append(a - step)
        new_m.append(m)
        new_v.append(v)
    n_layers = len(theta.weights)
    new_theta = replace(theta, weights=new_leaves[0::2][:n_layers], biases=new_leaves[1::2][:n_layers])
    new_state = replace(state, m=new_m, v=new_v, step=t)
    return new_theta, new_state, False
