"""Observation-history-to-action policies and the Adam optimizer.

A policy is a small feedforward tanh network mapping a flattened window of
recent observations to an action, squashed to the player's action bound.
Two information-gathering modes exist:

* ``active``  -- the network is queried every future step with the rolled
  observation window, so plans can branch on what will be observed.
* ``passive`` -- the network emits the entire future action sequence from the
  frozen planning-time window; future observations cannot influence it.

All of a policy's parameters live in one contiguous float64 vector,
``PolicyParams.flat``, laid out as :func:`pogplan.adgraph.layer_views` reads
it.  Adam, gradients and gradient checks work on ``flat`` alone.  The same
forward code runs on a raw ``flat`` (fast evaluation) or on ``flat`` lifted
onto a tape as one leaf (differentiation); see :mod:`pogplan.adgraph`.

A ``PolicyParams`` is frozen: a new ``flat`` comes only through
``dataclasses.replace``, which builds a new instance.  So each instance
builds the layer views of its ``flat`` once, as ``layers``, and every
forward reuses them.  Views follow in-place writes to ``flat``; a lifted
``flat``'s views are those of the leaf's value, the same array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import adgraph as ag

ACTIVE = "active"
PASSIVE = "passive"


@dataclass(frozen=True)
class PolicyParams:
    """One player's policy: its parameter vector, layer shapes and mode
    metadata, and the layer views of ``flat`` that its forward reads."""

    flat: np.ndarray      # every parameter (``adgraph.layer_views``); a tape leaf when lifted
    shapes: tuple         # per layer, the weight shape (out, in)
    mode: str
    action_dim: int
    action_scale: float
    layers: tuple = field(init=False, repr=False, compare=False)   # layer_views of flat

    def __post_init__(self):
        # a frozen field is set through object; ``replace`` calls this anew
        value = self.flat.value if isinstance(self.flat, ag.Node) else self.flat
        object.__setattr__(self, "layers", ag.layer_views(value, self.shapes))


def init_policy(game, player, mode, seed, hidden):
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
    shapes = tuple(zip(sizes[1:], sizes[:-1]))
    flat = np.zeros(sum(n_out * (n_in + 1) for n_out, n_in in shapes))
    for w in ag.layer_views(flat, shapes)[0]:
        n_out, n_in = w.shape
        bound = np.sqrt(6.0 / (n_in + n_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return PolicyParams(flat=flat, shapes=shapes, mode=mode, action_dim=action_dim,
                        action_scale=game.action_scale(player))


def policy_forward(theta, history):
    """Evaluate the policy on a flattened observation window.

    ``history`` is (K, ``shapes[0][1]``) rows, most recent observation last,
    zero-filled prehistory.  Returns the network output: an active policy's
    action, or a passive policy's whole action sequence (see
    ``action_block``).  The output satisfies ``|action| <= action_scale`` per
    coordinate via a tanh squash.
    """
    width, input_width = history.shape[-1], theta.shapes[0][1]
    if width != input_width:
        raise ValueError(f"history width {width} != policy input width {input_width}")
    return ag.tanh_mlp(theta.flat, theta.layers, history, theta.action_scale)


def action_block(theta, sequence, t_offset):
    """The ``t_offset``-th action of a policy's emitted sequence (Node or
    array); an active policy's output is a one-action sequence."""
    steps = sequence.shape[-1] // theta.action_dim
    if not 0 <= t_offset < steps:
        raise ValueError(f"t_offset {t_offset} outside a {steps}-step sequence")
    lo = t_offset * theta.action_dim
    return ag.slice_last(sequence, lo, lo + theta.action_dim)


# ---------------------------------------------------------------------------
# Adam.
# ---------------------------------------------------------------------------

BETA1 = 0.9     # Adam's first-moment decay
BETA2 = 0.999   # Adam's second-moment decay
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment accumulators of one policy, each one array in
    ``PolicyParams.flat`` order, with the step count and learning rate; the
    decay rates and the denominator's epsilon are the module constants."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float


def adam_init(theta, lr):
    return AdamState(m=np.zeros_like(theta.flat), v=np.zeros_like(theta.flat),
                     step=0, lr=lr)


def adam_step(theta, grad, state):
    """One bias-corrected Adam update of ``theta.flat``.

    ``grad`` is one array in ``flat`` order; any other shape raises
    ``ValueError``.  A non-finite gradient skips the update entirely:
    returns ``(theta, state)`` unchanged, so ``state.step`` counts only the
    updates made.  The new ``flat``, ``m`` and ``v`` are fresh arrays: the
    update writes into none of the caller's.
    """
    if np.shape(grad) != theta.flat.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} != parameter shape {theta.flat.shape}")
    if not np.isfinite(grad).all():
        return theta, state
    t = state.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    # in place on fresh arrays, each operation the IEEE one of
    # m = BETA1 * m + (1 - BETA1) * grad,  v = BETA2 * v + (1 - BETA2) * grad^2,
    # flat - lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS): products and sums commute
    m = np.multiply(state.m, BETA1)
    work = np.multiply(grad, 1.0 - BETA1)
    m += work
    v = np.multiply(state.v, BETA2)
    np.multiply(grad, grad, out=work)
    work *= 1.0 - BETA2
    v += work
    step = np.divide(m, bc1, out=work)
    step *= state.lr
    denom = np.divide(v, bc2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    flat = np.subtract(theta.flat, step, out=denom)
    return replace(theta, flat=flat), replace(state, m=m, v=v, step=t)
