"""Reverse-mode automatic differentiation over small dense arrays.

A ``Tape`` records a define-by-run computation graph of numpy-valued nodes;
``Tape.backward`` runs the reverse sweep from a scalar root and leaves exact
adjoints on every node.  The primitive set is deliberately small: just enough
to differentiate a finite-horizon game rollout (network forward passes,
double-integrator dynamics, reparameterized Gaussian observations, smooth
costs) with respect to policy parameters.

Every primitive is exposed as a module-level function that accepts either
``Node`` operands (recording onto the owning tape) or plain arrays/floats
(computing immediately with numpy).  Game and policy code written against
these functions therefore runs in two modes from a single source: taped, for
gradients, and raw, for cheap forward-only evaluation.

All per-instance quantities carry a leading batch axis, so one recorded
rollout covers a whole Monte Carlo batch.  Tapes are single-owner objects and
must not be shared across threads; build one tape per differentiated rollout.

Ownership: the tape owns its nodes, and the graph holds no reference cycle.
A node refers back to its tape only through a weak reference, and each
backward closure refers to its operands and to output arrays, never to its own
node.  So a graph is freed by reference counting as soon as the last
reference to the tape and to its nodes goes away (for a gradient step, when
``solver.expected_cost`` returns), without waiting for the cyclic garbage
collector.  A node that outlives its tape raises ``ReferenceError`` when
asked for it.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

NORM_EPS = 1e-9  # default regularizer for norms/abs so v=0 keeps finite gradients


class Node:
    """One tape entry: a value plus what is needed to back-propagate through it."""

    __slots__ = ("_tape_ref", "value", "op", "parents", "vjp", "grad", "is_param")

    def __init__(self, tape_ref, value, op, parents, vjp, is_param=False):
        value = np.asarray(value, dtype=np.float64)
        # any NaN/Inf entry poisons the sum, so one reduction checks them all
        if not math.isfinite(value.sum()):
            raise FloatingPointError(f"non-finite value produced by op '{op}'")
        self._tape_ref = tape_ref
        self.value = value
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.is_param = is_param

    @property
    def tape(self):
        tape = self._tape_ref()
        if tape is None:
            raise ReferenceError(f"{self!r} outlived its tape")
        return tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    # Arithmetic sugar so game code reads like plain numpy.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return affine(self, -1.0, 0.0)


class Tape:
    """Ordered record of one differentiable computation.

    Creation order is a topological order of the DAG (parents always precede
    children), so the backward sweep is a single reverse pass over ``nodes``.
    """

    def __init__(self):
        self.nodes = []
        self._ref = weakref.ref(self)  # shared by every node: no cycle back to the tape

    def _record(self, value, op, parents, vjp, is_param=False):
        node = Node(self._ref, value, op, parents, vjp, is_param)
        self.nodes.append(node)
        return node

    def param(self, value):
        """Lift a value as a trainable leaf; its adjoint is a gradient."""
        return self._record(value, "param", (), None, is_param=True)

    def const(self, value):
        """Lift a value as a constant leaf."""
        return self._record(value, "const", (), None, is_param=False)

    def backward(self, root):
        """Reverse sweep from a scalar root.

        Afterwards every node reachable from the root holds its exact adjoint
        in ``.grad``; unreachable nodes hold zeros.  Repeated calls on the
        same tape give identical results (adjoints are reset first).
        """
        if not isinstance(root, Node) or root.tape is not self:
            raise ValueError("backward root must be a node of this tape")
        if root.value.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
        for node in self.nodes:
            node.grad = None
        root.grad = np.ones_like(root.value)
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            node.vjp(node.grad)
        for node in self.nodes:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)


def _accumulate(node, g):
    # Never mutate an adjoint in place: the same array object may be shared.
    node.grad = g if node.grad is None else node.grad + g


def _value(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Node):
            return x.tape
    return None


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _lift(tape, x):
    return x if isinstance(x, Node) else tape.const(x)


# ---------------------------------------------------------------------------
# Primitives.  Each computes with numpy when no operand is a Node.
# ---------------------------------------------------------------------------

def add(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return _value(a) + _value(b)
    a, b = _lift(tape, a), _lift(tape, b)
    out = tape._record(a.value + b.value, "add", (a, b), None)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(g, b.value.shape))

    out.vjp = vjp
    return out


def sub(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return _value(a) - _value(b)
    a, b = _lift(tape, a), _lift(tape, b)
    out = tape._record(a.value - b.value, "sub", (a, b), None)

    def vjp(g):
        _accumulate(a, _unbroadcast(g, a.value.shape))
        _accumulate(b, _unbroadcast(-g, b.value.shape))

    out.vjp = vjp
    return out


def mul(a, b):
    """Elementwise product (numpy broadcasting rules)."""
    tape = _tape_of(a, b)
    if tape is None:
        return _value(a) * _value(b)
    a, b = _lift(tape, a), _lift(tape, b)
    out = tape._record(a.value * b.value, "mul", (a, b), None)

    def vjp(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out.vjp = vjp
    return out


def div(a, b):
    """Elementwise quotient."""
    tape = _tape_of(a, b)
    if tape is None:
        return _value(a) / _value(b)
    a, b = _lift(tape, a), _lift(tape, b)
    out = tape._record(a.value / b.value, "div", (a, b), None)
    y = out.value  # the closure keeps the output array, not the node: no cycle

    def vjp(g):
        _accumulate(a, _unbroadcast(g / b.value, a.value.shape))
        _accumulate(b, _unbroadcast(-g * y / b.value, b.value.shape))

    out.vjp = vjp
    return out


def affine(x, scale, shift):
    """``scale * x + shift`` with python-float coefficients; one node."""
    if not isinstance(x, Node):
        return scale * _value(x) + shift
    tape = x.tape
    out = tape._record(scale * x.value + shift, "affine", (x,), None)

    def vjp(g):
        _accumulate(x, scale * g)

    out.vjp = vjp
    return out


def scale(x, c):
    """Constant rescaling (special case of ``affine``)."""
    return affine(x, c, 0.0)


def dense_tanh(w, b, x):
    """One tanh network layer, ``tanh(w @ x + b)``; a row-batched ``x`` of
    shape (K, n) yields (K, m).

    One node that stores only its output: the backward pass needs no
    pre-activation, since tanh' = 1 - tanh^2.
    """
    tape = _tape_of(w, b, x)
    wv, xv = _value(w), _value(x)
    if wv.ndim != 2:
        raise ValueError(f"dense_tanh weight must be 2-D, got shape {wv.shape}")
    if xv.shape[-1] != wv.shape[1]:
        raise ValueError(f"dense_tanh shape mismatch: {wv.shape} @ {xv.shape}")
    batched = xv.ndim == 2
    pre = (xv @ wv.T if batched else wv @ xv) + _value(b)
    if tape is None:
        return np.tanh(pre)
    if not math.isfinite(pre.sum()):
        raise FloatingPointError("non-finite value produced by op 'dense_tanh'")
    w, b, x = _lift(tape, w), _lift(tape, b), _lift(tape, x)
    out = tape._record(np.tanh(pre), "dense_tanh", (w, b, x), None)
    y = out.value

    def vjp(g):
        gz = g * (1.0 - y * y)
        _accumulate(b, _unbroadcast(gz, b.value.shape))
        if batched:
            _accumulate(w, gz.T @ x.value)
            _accumulate(x, gz @ w.value)
        else:
            _accumulate(w, np.outer(gz, x.value))
            _accumulate(x, w.value.T @ gz)

    out.vjp = vjp
    return out


def tanh(x):
    if not isinstance(x, Node):
        return np.tanh(_value(x))
    out = x.tape._record(np.tanh(x.value), "tanh", (x,), None)
    y = out.value

    def vjp(g):
        _accumulate(x, g * (1.0 - y * y))

    out.vjp = vjp
    return out


def exp(x):
    if not isinstance(x, Node):
        return np.exp(_value(x))
    out = x.tape._record(np.exp(x.value), "exp", (x,), None)
    y = out.value

    def vjp(g):
        _accumulate(x, g * y)

    out.vjp = vjp
    return out


def log(x):
    xv = _value(x)
    if np.any(xv <= 0.0):
        raise ValueError("log of non-positive value")
    if not isinstance(x, Node):
        return np.log(xv)
    out = x.tape._record(np.log(x.value), "log", (x,), None)

    def vjp(g):
        _accumulate(x, g / x.value)

    out.vjp = vjp
    return out


def square(x):
    if not isinstance(x, Node):
        v = _value(x)
        return v * v
    out = x.tape._record(x.value * x.value, "square", (x,), None)

    def vjp(g):
        _accumulate(x, 2.0 * x.value * g)

    out.vjp = vjp
    return out


def sqrt(x):
    if not isinstance(x, Node):
        return np.sqrt(_value(x))
    out = x.tape._record(np.sqrt(x.value), "sqrt", (x,), None)
    y = out.value

    def vjp(g):
        _accumulate(x, 0.5 * g / y)

    out.vjp = vjp
    return out


def asum(x, axis=None):
    """Sum over all entries (``axis=None``) or along one axis."""
    if not isinstance(x, Node):
        return np.sum(_value(x), axis=axis)
    out = x.tape._record(np.sum(x.value, axis=axis), "sum", (x,), None)

    def vjp(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.value.shape).copy())
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.value.shape).copy())

    out.vjp = vjp
    return out


def norm_eps(x, eps=NORM_EPS, keepdims=True):
    """Regularized euclidean norm along the last axis: sqrt(sum x^2 + eps).

    The epsilon keeps the gradient finite at x = 0 (headings are computed
    from velocities that may vanish).
    """
    if not isinstance(x, Node):
        v = _value(x)
        return np.sqrt(np.sum(v * v, axis=-1, keepdims=keepdims) + eps)
    val = np.sqrt(np.sum(x.value * x.value, axis=-1, keepdims=keepdims) + eps)
    out = x.tape._record(val, "norm_eps", (x,), None)
    y = out.value

    def vjp(g):
        gn = g / y
        if not keepdims:
            gn = gn[..., None]
        _accumulate(x, gn * x.value)

    out.vjp = vjp
    return out


def smooth_abs(x, eps=NORM_EPS):
    """Elementwise sqrt(x^2 + eps); a smooth |x|."""
    if not isinstance(x, Node):
        v = _value(x)
        return np.sqrt(v * v + eps)
    val = np.sqrt(x.value * x.value + eps)
    out = x.tape._record(val, "smooth_abs", (x,), None)
    y = out.value

    def vjp(g):
        _accumulate(x, g * x.value / y)

    out.vjp = vjp
    return out


def atan2(y, x):
    """Elementwise two-argument arctangent.

    The adjoint denominator carries a 1e-12 floor so the gradient stays
    defined (arbitrary but finite) when both arguments vanish.
    """
    tape = _tape_of(y, x)
    if tape is None:
        return np.arctan2(_value(y), _value(x))
    y, x = _lift(tape, y), _lift(tape, x)
    out = tape._record(np.arctan2(y.value, x.value), "atan2", (y, x), None)

    def vjp(g):
        denom = x.value * x.value + y.value * y.value + 1e-12
        _accumulate(y, g * x.value / denom)
        _accumulate(x, -g * y.value / denom)

    out.vjp = vjp
    return out


def relu(x):
    """Elementwise positive-part hinge max(x, 0)."""
    if not isinstance(x, Node):
        return np.maximum(_value(x), 0.0)
    out = x.tape._record(np.maximum(x.value, 0.0), "relu", (x,), None)

    def vjp(g):
        _accumulate(x, g * (x.value > 0.0))

    out.vjp = vjp
    return out


def softplus(x):
    """Numerically stable log(1 + e^x)."""
    if not isinstance(x, Node):
        return np.logaddexp(0.0, _value(x))
    out = x.tape._record(np.logaddexp(0.0, x.value), "softplus", (x,), None)

    def vjp(g):
        _accumulate(x, g * _sigmoid(x.value))

    out.vjp = vjp
    return out


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.clip(v, -60.0, 60.0)))


def smooth_clamp(x, lo, hi):
    """Smooth saturation onto (lo, hi): lo + (hi-lo) * sigmoid ramp.

    The ramp slope is 4/(hi-lo), which makes the response have unit slope at
    the interval midpoint and saturate smoothly at the ends.
    """
    if hi <= lo:
        raise ValueError(f"smooth_clamp requires lo < hi, got [{lo}, {hi}]")
    k = 4.0 / (hi - lo)
    mid = 0.5 * (lo + hi)
    if not isinstance(x, Node):
        return lo + (hi - lo) * _sigmoid(k * (_value(x) - mid))
    s = _sigmoid(k * (x.value - mid))
    out = x.tape._record(lo + (hi - lo) * s, "smooth_clamp", (x,), None)

    def vjp(g):
        _accumulate(x, g * 4.0 * s * (1.0 - s))

    out.vjp = vjp
    return out


def gauss_reparam(mu, sigma, eps):
    """Pathwise-reparameterized Gaussian draw: mu + sigma * eps.

    ``eps`` is usually a fixed standard-normal array sampled outside the
    tape; the node is then exactly differentiable in mu and sigma
    (d/dmu = 1, d/dsigma = eps).  A lifted ``eps`` node also works, in
    which case the draw is differentiable in the noise too.  ``sigma`` may
    broadcast against ``mu`` (e.g. shape (K, 1) vs (K, 2)).
    """
    if isinstance(eps, Node):
        return add(mu, mul(sigma, eps))
    tape = _tape_of(mu, sigma)
    eps = np.asarray(eps, dtype=np.float64)
    if tape is None:
        return _value(mu) + _value(sigma) * eps
    mu, sigma = _lift(tape, mu), _lift(tape, sigma)
    out = tape._record(mu.value + sigma.value * eps, "gauss_reparam", (mu, sigma), None)

    def vjp(g):
        _accumulate(mu, _unbroadcast(g, mu.value.shape))
        _accumulate(sigma, _unbroadcast(g * eps, sigma.value.shape))

    out.vjp = vjp
    return out


def concat(parts, axis=-1):
    """Concatenate along an axis (the inverse of ``slice_last``)."""
    tape = _tape_of(*parts)
    if tape is None:
        return np.concatenate([_value(p) for p in parts], axis=axis)
    parts = [_lift(tape, p) for p in parts]
    out = tape._record(np.concatenate([p.value for p in parts], axis=axis), "concat", tuple(parts), None)
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        g = np.moveaxis(g, axis, -1)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, np.moveaxis(g[..., lo:hi], -1, axis).copy())

    out.vjp = vjp
    return out


def slice_last(x, lo, hi):
    """Select columns [lo:hi) of the last axis."""
    if not isinstance(x, Node):
        return _value(x)[..., lo:hi]
    out = x.tape._record(x.value[..., lo:hi], "slice", (x,), None)

    def vjp(g):
        full = np.zeros_like(x.value)
        full[..., lo:hi] = g
        _accumulate(x, full)

    out.vjp = vjp
    return out


def reshape(x, shape):
    """View the same entries under a new shape."""
    if not isinstance(x, Node):
        return _value(x).reshape(shape)
    out = x.tape._record(x.value.reshape(shape), "reshape", (x,), None)

    def vjp(g):
        _accumulate(x, g.reshape(x.value.shape))

    out.vjp = vjp
    return out


_PRIMITIVES = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": div,
    "scale": scale,
    "affine": affine,
    "dense_tanh": dense_tanh,
    "tanh": tanh,
    "exp": exp,
    "log": log,
    "square": square,
    "sqrt": sqrt,
    "sum": asum,
    "norm_eps": norm_eps,
    "smooth_abs": smooth_abs,
    "atan2": atan2,
    "relu": relu,
    "softplus": softplus,
    "smooth_clamp": smooth_clamp,
    "gauss_reparam": gauss_reparam,
    "concat": concat,
    "slice": slice_last,
    "reshape": reshape,
}


def apply(op, *args, **kwargs):
    """Apply a primitive by name (mostly for tests and introspection)."""
    if op not in _PRIMITIVES:
        raise ValueError(f"unknown primitive '{op}'")
    return _PRIMITIVES[op](*args, **kwargs)


# ---------------------------------------------------------------------------
# Gradient checking.
# ---------------------------------------------------------------------------

def grad_check(f, point, h=1e-5):
    """Compare the tape gradient of ``f`` at ``point`` against central
    finite differences.

    ``f`` takes one flat vector (Node or ndarray) and returns a scalar.
    Returns the max over coordinates of
    ``|analytic - numeric| / (|analytic| + |numeric| + 1e-12)``.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    tape = Tape()
    x = tape.param(point)
    y = f(x)
    tape.backward(y)
    analytic = np.asarray(x.grad, dtype=np.float64).ravel()

    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += h
        lo[i] -= h
        numeric[i] = (float(np.asarray(f(hi))) - float(np.asarray(f(lo)))) / (2.0 * h)

    err = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(np.max(err)) if err.size else 0.0
