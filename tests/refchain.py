"""The chains of primitives that ``adgraph``'s fused nodes replace.

``adgraph`` records each hot chain of a rollout as one fused node with a
hand-written adjoint.  This module keeps what those chains were built from,
so that the tests can compare each fused node with its chain, bit for bit:

* the primitives (``mul`` ... ``smooth_clamp``, ``sum_axis`` and
  ``reshape``), with the expressions, op names and finiteness checks they
  had in ``adgraph``, each recording through ``Tape._record``;
* one reference chain per fused node (``dense_tanh`` and the ``chain_*``
  functions), built from these primitives and ``adgraph``'s own.
"""

import numpy as np

from pogplan import adgraph as ag
from pogplan.adgraph import (NORM_EPS, Node, _accumulate, _clamp_ramp, _perp, _sigmoid,
                             _tape_of, _unbroadcast, _value)


# ---------------------------------------------------------------------------
# Primitives.  Each computes with numpy when no operand is a Node, and each
# vjp sends adjoints to node operands only.
# ---------------------------------------------------------------------------

def mul(a, b):
    """Elementwise product (numpy broadcasting rules)."""
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if tape is None:
        return av * bv

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(g * av, bv.shape))

    return tape._record(av * bv, "mul", vjp)


def div(a, b):
    """Elementwise quotient."""
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    y = av / bv
    if tape is None:
        return y

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g / bv, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(-g * y / bv, bv.shape))

    return tape._record(y, "div", vjp)


def tanh(x):
    if not isinstance(x, Node):
        return np.tanh(_value(x))
    y = np.tanh(x.value)

    def vjp(g):
        _accumulate(x, g * (1.0 - y * y))

    return x.tape._record(y, "tanh", vjp, checks=())


def log(x):
    xv = _value(x)
    if np.any(xv <= 0.0):
        raise ValueError("log of non-positive value")
    if not isinstance(x, Node):
        return np.log(xv)

    def vjp(g):
        _accumulate(x, g / xv)

    return x.tape._record(np.log(xv), "log", vjp)


def square(x):
    if not isinstance(x, Node):
        v = _value(x)
        return v * v

    def vjp(g):
        _accumulate(x, 2.0 * x.value * g)

    return x.tape._record(x.value * x.value, "square", vjp)


def sqrt(x):
    if not isinstance(x, Node):
        return np.sqrt(_value(x))
    y = np.sqrt(x.value)

    def vjp(g):
        _accumulate(x, 0.5 * g / y)

    return x.tape._record(y, "sqrt", vjp)


def cross2(a, b):
    """Planar cross product over a last axis of width 2, kept as (..., 1).

    Computes ``a0*b1 - a1*b0``, the same expression, rounding and signed
    zeros as two ``mul`` nodes of ``slice_last`` columns and a ``sub``.
    """
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    val = av[..., 0:1] * bv[..., 1:2] - av[..., 1:2] * bv[..., 0:1]
    if tape is None:
        return val

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g * _perp(bv), av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(-g * _perp(av), bv.shape))

    return tape._record(val, "cross2", vjp)


def smooth_abs(x, eps=NORM_EPS):
    """Elementwise sqrt(x^2 + eps); a smooth |x|."""
    if not isinstance(x, Node):
        v = _value(x)
        return np.sqrt(v * v + eps)
    y = np.sqrt(x.value * x.value + eps)

    def vjp(g):
        _accumulate(x, g * x.value / y)

    return x.tape._record(y, "smooth_abs", vjp)


def atan2(y, x):
    """Elementwise two-argument arctangent.

    The adjoint denominator carries a 1e-12 floor so the gradient stays
    defined (arbitrary but finite) when both arguments vanish.
    """
    tape = _tape_of(y, x)
    yv, xv = _value(y), _value(x)
    if tape is None:
        return np.arctan2(yv, xv)

    def vjp(g):
        denom = xv * xv + yv * yv + 1e-12
        if isinstance(y, Node):
            _accumulate(y, g * xv / denom)
        if isinstance(x, Node):
            _accumulate(x, -g * yv / denom)

    return tape._record(np.arctan2(yv, xv), "atan2", vjp, checks=())


def relu(x):
    """Elementwise positive-part hinge max(x, 0)."""
    if not isinstance(x, Node):
        return np.maximum(_value(x), 0.0)

    def vjp(g):
        _accumulate(x, g * (x.value > 0.0))

    return x.tape._record(np.maximum(x.value, 0.0), "relu", vjp, checks=())


def softplus(x):
    """Numerically stable log(1 + e^x)."""
    if not isinstance(x, Node):
        return np.logaddexp(0.0, _value(x))

    def vjp(g):
        _accumulate(x, g * _sigmoid(x.value))

    return x.tape._record(np.logaddexp(0.0, x.value), "softplus", vjp, checks=())


def smooth_clamp(x, lo, hi):
    """Smooth saturation onto (lo, hi): lo + (hi-lo) * sigmoid ramp.

    The ramp slope is 4/(hi-lo), which makes the response have unit slope at
    the interval midpoint and saturate smoothly at the ends.
    """
    s = _clamp_ramp(_value(x), lo, hi)
    if not isinstance(x, Node):
        return lo + (hi - lo) * s

    def vjp(g):
        _accumulate(x, g * 4.0 * s * (1.0 - s))

    return x.tape._record(lo + (hi - lo) * s, "smooth_clamp", vjp, checks=())


def sum_axis(x, axis):
    """Sum along one axis."""
    if not isinstance(x, Node):
        return np.sum(_value(x), axis=axis)

    def vjp(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.value.shape).copy())

    return x.tape._record(np.sum(x.value, axis=axis), "sum", vjp)


def reshape(x, shape):
    """View the same entries under a new shape."""
    if not isinstance(x, Node):
        return _value(x).reshape(shape)

    def vjp(g):
        _accumulate(x, g.reshape(x.value.shape))

    return x.tape._record(x.value.reshape(shape), "reshape", vjp, checks=())


# ---------------------------------------------------------------------------
# One reference chain per fused node, with the constants the tests use.
# ---------------------------------------------------------------------------

def dense_tanh(w, b, x):
    """One tanh layer on rows, ``tanh(x @ w.T + b)``, as the one node per
    layer that the policy network recorded before ``tanh_mlp``; its
    pre-activation is checked under "dense_tanh"."""
    tape = _tape_of(w, b, x)
    wv, bv, xv = _value(w), _value(b), _value(x)
    pre = xv @ wv.T + bv
    if tape is None:
        return np.tanh(pre)
    ag.check_finite(pre, "dense_tanh")
    y = np.tanh(pre)

    def vjp(g):
        gz = g * (1.0 - y * y)
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(gz, bv.shape))
        if isinstance(w, Node):
            _accumulate(w, gz.T @ xv)
        if isinstance(x, Node):
            _accumulate(x, gz @ wv)

    return tape._record(y, "dense_tanh", vjp, checks=())


def layer_nodes(flat, shapes):
    """``adgraph.layer_views`` of a parameter vector that may be a node: one
    slice, and for a weight a reshape, per layer array."""
    weights, biases = [], []
    lo = 0
    for n_out, n_in in shapes:
        hi = lo + n_out * n_in
        weights.append(reshape(ag.slice_last(flat, lo, hi), (n_out, n_in)))
        biases.append(ag.slice_last(flat, hi, hi + n_out))
        lo = hi + n_out
    return weights, biases


def chain_mlp(flat, shapes, x, out_scale=0.7):
    h = x
    for w, b in zip(*layer_nodes(flat, shapes)):
        h = dense_tanh(w, b, h)
    return ag.affine(h, out_scale, 0.0)


def chain_fov(pos_obs, vel_obs, pos_target, fov=np.pi / 2, sigma2_base=0.01, c_scale=5.0):
    d = ag.sub(pos_target, pos_obs)
    bearing = atan2(cross2(vel_obs, d), ag.dot2(vel_obs, d))
    excess = relu(ag.affine(smooth_abs(bearing, NORM_EPS), 1.0, -0.5 * fov))
    return ag.affine(excess, c_scale, sigma2_base)


def chain_trimmed(mu, var, eps, lo=-5.0, hi=5.0):
    return smooth_clamp(ag.gauss_reparam(mu, sqrt(var), eps), lo, hi)


def chain_clamped_add(a, b, lo=-0.3, hi=0.3):
    return smooth_clamp(ag.add(a, b), lo, hi)


def chain_barrier(x, scale=1.0, shift=-5.0, weight=10.0, norm=ag.norm_eps):
    arg = ag.affine(norm(x), scale, shift)
    return ag.affine(square(softplus(arg)), weight, 0.0)


def row_sum_norm_eps(x, eps=NORM_EPS):
    """``norm_eps`` as it summed the squares of rows with ``np.sum``."""
    tape = _tape_of(x)
    v = _value(x)
    y = np.sqrt(np.sum(v * v, axis=-1, keepdims=True) + eps)
    if tape is None:
        return y

    def vjp(g):
        _accumulate(x, g / y * v)

    return tape._record(y, "norm_eps", vjp)


def chain_obstacle_penalty(r, pos, obstacles, weight=10.0):
    for cx, cy, radius in obstacles:
        r = ag.sub(r, chain_barrier(ag.sub(pos, np.array([cx, cy])), -1.0, radius, weight))
    return r


def chain_occlusion(var, pos_obs, pos_target, obstacles, temp=10.0, c_scale=5.0):
    """The sight-line occlusion as HideSeek recorded it before its fused node."""
    a, b = pos_obs, pos_target
    ba = ag.sub(b, a)
    d = ag.sub(b, a)
    len2 = ag.add(ag.dot2(d, d), 1e-9)
    acc = None
    for cx, cy, radius in obstacles:
        center = np.array([cx, cy])
        t = smooth_clamp(div(ag.dot2(ba, ag.sub(center, a)), len2), 0.0, 1.0)
        proj = ag.add(a, mul(t, ba))
        clear = ag.affine(ag.norm_eps(ag.sub(center, proj)), 1.0, -radius)
        term = ag.exp(ag.affine(clear, -temp, 0.0))
        acc = term if acc is None else ag.add(acc, term)
    clearance = ag.affine(log(acc), -1.0 / temp, 0.0)
    occlusion = ag.affine(softplus(ag.affine(clearance, -temp, 0.0)), 1.0 / temp, 0.0)
    return ag.add(var, ag.affine(occlusion, c_scale, 0.0))


def chain_shift(window, obs):
    return ag.concat([ag.slice_last(window, obs.shape[-1], window.shape[-1]), obs])
