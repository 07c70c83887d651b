"""Reverse-mode automatic differentiation over small dense arrays.

A ``Tape`` records a define-by-run computation graph of numpy-valued nodes;
``Tape.backward`` runs the reverse sweep from a scalar root and leaves exact
adjoints on the nodes.  The primitive set is deliberately small: just enough
to differentiate a finite-horizon game rollout (network forward passes,
double-integrator dynamics, reparameterized Gaussian observations, smooth
costs) with respect to policy parameters.

Every primitive is exposed as a module-level function that accepts either
``Node`` operands or plain arrays/floats ("raw" operands).  Game and policy
code written against these functions therefore runs in two modes from a
single source: taped, for gradients, and raw, for cheap forward-only
evaluation.

What gets recorded: a primitive records a node only when at least one of its
operands is a node, and otherwise computes with numpy and returns an array.
Raw operands are never lifted onto the tape, and no adjoint is computed for
them.  So the tape holds exactly the leaves lifted with ``Tape.param`` and the
values that depend on them; everything else in a rollout (batch rows,
windows, noise, opponents' networks, game constants) stays raw.

Finiteness: ``Tape._record`` names and checks each node in one call: every
array in its ``checks``, by default the node's value, must be finite, or it
raises ``FloatingPointError`` naming the op (``non-finite value in exp``).
Every leaf is checked, and so is the output of every op that can turn finite
inputs into a non-finite value (arithmetic, exp, sums, norms, dot2 and the
Gaussian draw); slice, concat and shift pass ``checks=()``.  Raw operands and
raw results are not checked: a caller that feeds raw data into a taped
computation checks it once itself (``check_finite``; see ``solver.expected_cost``).

Fused nodes: the rollout's hot chains are recorded as one node each, with a
hand-written adjoint (Griewank & Walther, *Evaluating Derivatives*, 2008,
ch. 4-5).  Each one computes and differentiates exactly as the chain of
primitives it replaces, so its values and adjoints are the chain's, bit for
bit.  It passes ``_record`` the intermediates the chain checks, which depend
on which operands are nodes; ``tanh_mlp`` alone checks each pre-activation
itself, before ``np.tanh`` overwrites it.  Each fused node's docstring names
its chain; the chains themselves are built in ``tests/refchain.py``.

Planar kernels compute on the two coordinate columns of a (K, 2) array, not
on its rows, wherever that gives the chain's bits: a ufunc that loops over K
rows of width 2, or broadcasts (K, 1) against (K, 2), costs several times
one that loops once over a column of K entries.

Work arrays: an adjoint's temporaries that no node keeps are written into
work arrays, one per (shape, role), that the module keeps and reuses across
every backward sweep in the process (``_work``).  At k = 1000 rows a fresh
(K, 64) temporary sits at glibc's mmap threshold, so allocating one per sweep
costs page faults, not just the copy.  A work array is never stored as an
adjoint: what a vjp sends to ``_accumulate`` is always a fresh array.  Every
tape shares them, so a process runs one backward sweep at a time; pogplan runs
trials in parallel on processes (``experiments.map_trials``), never threads.

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

try:  # the ufunc behind np.clip, called without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

_add_reduce = np.add.reduce   # ``value.sum()`` without its Python wrapper
SMALL = 32   # arrays up to this size are summed as Python floats in check_finite

NORM_EPS = 1e-9  # regularizer for norms/abs so v=0 keeps finite gradients


def check_finite(value, source):
    """Raise ``FloatingPointError`` unless every entry of the array ``value``
    is finite; ``source`` names it in the message."""
    # any NaN/Inf entry poisons the sum, so one sum clears the common case (in
    # Python for a few entries, cheaper than a ufunc call); a sum can also
    # overflow on finite entries, so confirm before raising
    total = sum(value.ravel().tolist()) if value.size <= SMALL else _add_reduce(value, None)
    if not math.isfinite(total) and not np.isfinite(value).all():
        raise FloatingPointError(f"non-finite value in {source}")


class Node:
    """One tape entry: a value plus what is needed to back-propagate through it."""

    __slots__ = ("_tape_ref", "value", "op", "vjp", "grad")

    def __init__(self, tape_ref, value, op, vjp):
        self._tape_ref = tape_ref
        self.value = value
        self.op = op
        self.vjp = vjp
        self.grad = None

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


class Tape:
    """Ordered record of one differentiable computation.

    Creation order is a topological order of the DAG (parents always precede
    children), so the backward sweep is a single reverse pass over ``nodes``.
    """

    def __init__(self):
        self.nodes = []
        self._ref = weakref.ref(self)  # shared by every node: no cycle back to the tape

    def _record(self, value, op, vjp=None, checks=None):
        """Append a node named ``op`` whose ``vjp(g)`` sends the adjoint ``g`` to its
        node operands, after checking that every array in ``checks`` (default: the
        value) is finite; ``check_finite``'s error names ``op``."""
        if type(value) is not np.ndarray or value.dtype != np.float64:
            value = np.asarray(value, dtype=np.float64)
        if checks is None:
            check_finite(value, op)
        else:
            for array in checks:
                check_finite(array, op)
        node = Node(self._ref, value, op, vjp)
        self.nodes.append(node)
        return node

    def param(self, value):
        """Lift a value as a trainable leaf; its adjoint is a gradient."""
        return self._record(value, "param")

    def backward(self, root):
        """Reverse sweep from a scalar root.

        Afterwards every node reachable from the root holds its exact adjoint
        in ``.grad``.  Unreachable leaves hold zeros; unreachable interior
        nodes hold None.  Repeated calls on the same tape give identical
        results (adjoints are reset first).
        """
        if not isinstance(root, Node) or root.tape is not self:
            raise ValueError("backward root must be a node of this tape")
        if root.value.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
        for node in self.nodes:
            node.grad = None
        root.grad = np.ones_like(root.value)
        for node in reversed(self.nodes):
            if node.grad is not None and node.vjp is not None:
                node.vjp(node.grad)
        for node in self.nodes:
            if node.grad is None and node.vjp is None:
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


def _columns(v):
    """The two coordinate columns of planar vectors (a last axis of width
    2), as views."""
    return v[..., 0], v[..., 1]


def _join(cols):
    """The planar vectors whose coordinate columns are ``cols``."""
    x, y = cols
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def _pair_sum(x, y):
    """The bits of ``np.sum`` over a last axis of width 2 holding ``(x, y)``:
    ``x + y``, except that numpy sums (-0, -0) to +0."""
    total = x + y
    total += 0.0
    return total


def _fold(parts, start=None):
    """Sum lists of columns left to right, onto ``start`` when given."""
    total = parts[0] if start is None else [a + b for a, b in zip(start, parts[0])]
    for part in parts[1:]:
        total = [a + b for a, b in zip(total, part)]
    return total


def _accumulate_columns(node, contributions):
    """``_accumulate`` each contribution, a list of columns, into ``node`` in
    turn: the bits of accumulating the joined arrays one by one, with one
    array built at the end."""
    start = None if node.grad is None else _columns(node.grad)
    node.grad = _join(_fold(contributions, start))


# ---------------------------------------------------------------------------
# Primitives.  Each computes with numpy when no operand is a Node, and each
# vjp sends adjoints to node operands only.
# ---------------------------------------------------------------------------

def add(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if tape is None:
        return av + bv

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(g, bv.shape))

    return tape._record(av + bv, "add", vjp)


def sub(a, b):
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if tape is None:
        return av - bv

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(-g, bv.shape))

    return tape._record(av - bv, "sub", vjp)


def affine(x, scale, shift):
    """``scale * x + shift`` with python-float coefficients; one node."""
    if not isinstance(x, Node):
        return scale * _value(x) + shift

    def vjp(g):
        _accumulate(x, scale * g)

    return x.tape._record(scale * x.value + shift, "affine", vjp)


def exp(x):
    if not isinstance(x, Node):
        return np.exp(_value(x))
    y = np.exp(x.value)

    def vjp(g):
        _accumulate(x, g * y)

    return x.tape._record(y, "exp", vjp)


def asum(x):
    """Sum over all entries."""
    if not isinstance(x, Node):
        return np.sum(_value(x))

    def vjp(g):
        _accumulate(x, np.broadcast_to(g, x.value.shape).copy())

    return x.tape._record(np.sum(x.value), "sum", vjp)


def dot2(a, b):
    """Dot product over a last axis of width 2, kept as (..., 1).

    Computes ``a0*b0 + a1*b1``, the same expression, rounding and signed
    zeros as two ``mul`` nodes of ``slice_last`` columns and an ``add``.
    """
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    val = av[..., 0:1] * bv[..., 0:1] + av[..., 1:2] * bv[..., 1:2]
    if tape is None:
        return val

    def vjp(g):
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(g * av, bv.shape))

    return tape._record(val, "dot2", vjp)


def _perp(v):
    """(v1, -v0) over the last axis: the planar cross product a0*v1 - a1*v0
    is dot2(a, perp(v))."""
    return np.concatenate([v[..., 1:2], -v[..., 0:1]], axis=-1)


def norm_eps(x):
    """Regularized euclidean norm of planar vectors (a last axis of width 2),
    kept as (..., 1): sqrt(x0^2 + x1^2 + NORM_EPS), the bits of summing the
    squares with ``np.sum`` (no square is -0).

    The epsilon keeps the gradient finite at x = 0 (headings are computed
    from velocities that may vanish).
    """
    v = _value(x)
    if v.shape[-1] != 2:
        raise ValueError(f"norm_eps needs planar vectors, got shape {v.shape}")
    v0, v1 = _columns(v)
    y = np.sqrt(v0 * v0 + v1 * v1 + NORM_EPS)[..., None]
    if not isinstance(x, Node):
        return y

    def vjp(g):
        _accumulate(x, g / y * v)

    return x.tape._record(y, "norm_eps", vjp)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-_clip(v, -60.0, 60.0)))


def _clamp_ramp(v, lo, hi):
    """The sigmoid ramp ``s`` of ``smooth_clamp``, whose output is
    ``lo + (hi - lo) * s`` and whose slope is ``4 * s * (1 - s)``."""
    if hi <= lo:
        raise ValueError(f"smooth_clamp requires lo < hi, got [{lo}, {hi}]")
    return _sigmoid(4.0 / (hi - lo) * (v - 0.5 * (lo + hi)))


def gauss_reparam(mu, sigma, eps):
    """Pathwise-reparameterized Gaussian draw: mu + sigma * eps.

    ``eps`` is raw standard-normal noise, sampled outside the tape and held
    fixed, so the node is exactly differentiable in mu and sigma (d/dmu = 1,
    d/dsigma = eps).  ``sigma`` may broadcast against ``mu`` (e.g. shape
    (K, 1) vs (K, 2)).
    """
    tape = _tape_of(mu, sigma)
    eps = np.asarray(eps, dtype=np.float64)
    mv, sv = _value(mu), _value(sigma)
    if tape is None:
        return mv + sv * eps

    def vjp(g):
        if isinstance(mu, Node):
            _accumulate(mu, _unbroadcast(g, mv.shape))
        if isinstance(sigma, Node):
            _accumulate(sigma, _unbroadcast(g * eps, sv.shape))

    return tape._record(mv + sv * eps, "gauss_reparam", vjp)


def concat(parts):
    """Concatenate along the last axis (the inverse of ``slice_last``)."""
    tape = _tape_of(*parts)
    values = [_value(p) for p in parts]
    if tape is None:
        return np.concatenate(values, axis=-1)

    def vjp(g):
        lo = 0
        for p, v in zip(parts, values):
            hi = lo + v.shape[-1]
            if isinstance(p, Node):
                _accumulate(p, g[..., lo:hi])
            lo = hi

    return tape._record(np.concatenate(values, axis=-1), "concat", vjp, checks=())


def slice_last(x, lo, hi):
    """Select columns [lo:hi) of the last axis."""
    if not isinstance(x, Node):
        return _value(x)[..., lo:hi]

    def vjp(g):
        full = np.zeros_like(x.value)
        full[..., lo:hi] = g
        _accumulate(x, full)

    return x.tape._record(x.value[..., lo:hi], "slice", vjp, checks=())


def shift_last(x, new):
    """Drop the first ``new.shape[-1]`` columns of ``x``'s last axis and
    append ``new``: a window slid by one observation.

    Replaces a ``slice_last`` of ``x`` and a ``concat``: the same value, and
    the same adjoint arrays sent to ``x`` (zeros in the dropped columns) and
    to ``new``.
    """
    xv, nv = _value(x), _value(new)
    lo, width = nv.shape[-1], xv.shape[-1]
    out = np.concatenate([xv[..., lo:], nv], axis=-1)
    tape = _tape_of(x, new)
    if tape is None:
        return out

    def vjp(g):
        if isinstance(new, Node):
            _accumulate(new, g[..., width - lo:])
        if isinstance(x, Node):
            full = np.zeros_like(xv)
            full[..., lo:] = g[..., :width - lo]
            _accumulate(x, full)

    return tape._record(out, "shift", vjp, checks=())


# ---------------------------------------------------------------------------
# Fused primitives.  Each replaces a chain of primitives with one node (the
# chains are built in tests/refchain.py).  Its forward evaluates the chain's
# numpy expressions and its vjp applies the chain's adjoint expressions,
# sending contributions to its operands in the chain's order, so values and
# adjoints are the chain's, bit for bit.
# ---------------------------------------------------------------------------

def layer_views(flat, shapes):
    """The per-layer weights and biases of a network's parameter vector
    ``flat``, as numpy views into it.

    ``shapes`` lists each layer's weight shape (n_out, n_in).  Layer by
    layer, ``flat`` holds the weights in row-major order, then the n_out
    biases; a ``flat`` of any other length raises ``ValueError``.
    """
    size = sum(n_out * (n_in + 1) for n_out, n_in in shapes)
    if flat.shape != (size,):
        raise ValueError(f"layer shapes {shapes} need {size} parameters, got shape {flat.shape}")
    weights, biases = [], []
    lo = 0
    for n_out, n_in in shapes:
        hi = lo + n_out * n_in
        weights.append(flat[lo:hi].reshape(n_out, n_in))
        biases.append(flat[hi:hi + n_out])
        lo = hi + n_out
    return weights, biases


_WORK = {}   # (shape, role) -> the work array ``_work`` hands out


def _work(shape, role):
    """The process's work array of ``shape`` for ``role``, reused by every
    backward sweep; its contents are garbage until written."""
    array = _WORK.get((shape, role))
    if array is None:
        array = _WORK[shape, role] = np.empty(shape)
    return array


def tanh_mlp(flat, shapes, x, out_scale):
    """A tanh network with a scaled output,
    ``out_scale * tanh(w_L @ ... tanh(w_1 @ x + b_1) ... + b_L)``, on rows:
    ``x`` of shape (K, n) yields (K, m).  The weights and biases are the
    ``layer_views`` of the one parameter vector ``flat`` for ``shapes``.

    Replaces one dense tanh node per layer and an ``affine``.  Only layer
    outputs are stored: the adjoint needs no pre-activation, since
    tanh' = 1 - tanh^2.  The adjoint of ``flat`` is one array, each layer's
    weight and bias adjoints in their places.

    The adjoints of ``flat`` and ``x`` are fresh arrays, since the nodes keep
    them.  Each layer's ``g * (1 - y^2)`` and, above the first layer, the
    adjoint sent down to the layer below are written into work arrays.
    """
    xv, pv = _value(x), _value(flat)
    if xv.ndim != 2:
        raise ValueError(f"tanh_mlp needs rows of shape (K, n), got shape {xv.shape}")
    tape = _tape_of(x, flat)
    weights, biases = layer_views(pv, shapes)
    ins, outs = [], []
    h = xv
    for wv, bv in zip(weights, biases):
        if h.shape[-1] != wv.shape[1]:
            raise ValueError(f"tanh_mlp shape mismatch: {wv.shape} @ {h.shape}")
        pre = h @ wv.T
        pre += bv
        if tape is not None:
            check_finite(pre, "tanh_mlp")
        np.tanh(pre, out=pre)
        ins.append(h)
        outs.append(pre)
        h = pre
    out = out_scale * h + 0.0
    if tape is None:
        return out

    def vjp(g):
        g = out_scale * g
        if isinstance(flat, Node):
            g_flat = np.empty_like(pv)
            g_weights, g_biases = layer_views(g_flat, shapes)
        for i in range(len(outs) - 1, -1, -1):
            y = outs[i]
            gz = np.multiply(y, y, out=_work(y.shape, "gz"))   # g * (1 - y^2)
            np.subtract(1.0, gz, out=gz)
            gz *= g
            if isinstance(flat, Node):
                g_biases[i][...] = gz.sum(axis=0)
                np.matmul(gz.T, ins[i], out=g_weights[i])
            if i > 0:
                g = np.matmul(gz, weights[i], out=_work(ins[i].shape, "hidden"))
            elif isinstance(x, Node):
                g = gz @ weights[i]          # stored as x's adjoint: fresh
        if isinstance(flat, Node):
            _accumulate(flat, g_flat)
        if isinstance(x, Node):
            _accumulate(x, g)

    return tape._record(out, "tanh_mlp", vjp)


def clamped_add(a, b, lo, hi):
    """``smooth_clamp(a + b, lo, hi)``: a sum smoothly saturated onto (lo, hi).

    Replaces add and smooth_clamp.
    """
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    total = av + bv
    s = _clamp_ramp(total, lo, hi)
    out = lo + (hi - lo) * s
    if tape is None:
        return out

    def vjp(g):
        g_total = g * 4.0 * s * (1.0 - s)
        if isinstance(a, Node):
            _accumulate(a, _unbroadcast(g_total, av.shape))
        if isinstance(b, Node):
            _accumulate(b, _unbroadcast(g_total, bv.shape))

    return tape._record(out, "clamped_add", vjp, checks=(total,))


def fov_variance(pos_obs, vel_obs, pos_target, fov, sigma2_base, c_scale):
    """Variance (K, 1) of an observer's noisy view of a target.

    The bearing is the signed angle between the observer's heading (its
    velocity) and the target, atan2 of (cross, dot) in [-pi, pi].  The
    variance is ``sigma2_base`` inside the view cone (|bearing| < fov/2) and
    grows linearly at ``c_scale`` per radian outside; it is continuous at the
    cone boundary, with |bearing| the smooth eps-regularized absolute value.
    The atan2 adjoint is regularized, so zero velocity yields finite
    (arbitrary) gradients.

    At rest (velocity exactly +0) the bearing follows IEEE signed zeros:
    cross and dot are signed zeros, and atan2(+0, -0) = pi.  So a resting
    observer sees a target in its third quadrant (both displacement
    components negative) at bearing pi, a variance of about 11.8 with the
    default constants, and any other target at bearing 0, variance
    ``sigma2_base``.

    Replaces sub, cross2, dot2, atan2, smooth_abs, affine, relu and affine.
    """
    tape = _tape_of(pos_obs, vel_obs, pos_target)
    ov, vv, tv = _value(pos_obs), _value(vel_obs), _value(pos_target)
    d = tv - ov
    cross = vv[..., 0:1] * d[..., 1:2] - vv[..., 1:2] * d[..., 0:1]
    dot = vv[..., 0:1] * d[..., 0:1] + vv[..., 1:2] * d[..., 1:2]
    bearing = np.arctan2(cross, dot)
    abs_bearing = np.sqrt(bearing * bearing + NORM_EPS)
    excess = 1.0 * abs_bearing + -0.5 * fov
    var = c_scale * np.maximum(excess, 0.0) + sigma2_base
    if tape is None:
        return var
    d_taped = isinstance(pos_obs, Node) or isinstance(pos_target, Node)

    def vjp(g):
        g_bearing = 1.0 * (c_scale * g * (excess > 0.0)) * bearing / abs_bearing
        denom = dot * dot + cross * cross + 1e-12
        g_cross = g_bearing * dot / denom
        g_dot = -g_bearing * cross / denom
        # the chain's dot2 node was recorded after its cross2 node
        if isinstance(vel_obs, Node):
            _accumulate(vel_obs, _unbroadcast(g_dot * d, vv.shape))
            _accumulate(vel_obs, _unbroadcast(g_cross * _perp(d), vv.shape))
        if d_taped:
            g_d = (_unbroadcast(g_dot * vv, d.shape)
                   + _unbroadcast(-g_cross * _perp(vv), d.shape))
            if isinstance(pos_target, Node):
                _accumulate(pos_target, _unbroadcast(g_d, tv.shape))
            if isinstance(pos_obs, Node):
                _accumulate(pos_obs, _unbroadcast(-g_d, ov.shape))

    return tape._record(var, "fov_variance", vjp,
                        checks=((d,) if d_taped else ()) + (cross, dot, abs_bearing, excess, var))


def trimmed_gauss(mu, var, eps, lo, hi):
    """Reparameterized Gaussian draw of variance ``var``, smoothly trimmed
    onto (lo, hi): ``smooth_clamp(mu + sqrt(var) * eps, lo, hi)``.

    Replaces sqrt, gauss_reparam and smooth_clamp.  ``eps`` is raw noise, as
    in ``gauss_reparam``.  ``var`` may broadcast against ``mu`` (e.g. shape
    (K, 1) vs (K, 2)).
    """
    tape = _tape_of(mu, var)
    mv, vv, ev = _value(mu), _value(var), np.asarray(eps, dtype=np.float64)
    sigma = np.sqrt(vv)
    draw = mv + sigma * ev
    s = _clamp_ramp(draw, lo, hi)
    out = lo + (hi - lo) * s
    if tape is None:
        return out

    def vjp(g):
        g_draw = g * 4.0 * s * (1.0 - s)
        if isinstance(mu, Node):
            _accumulate(mu, _unbroadcast(g_draw, mv.shape))
        if isinstance(var, Node):
            _accumulate(var, 0.5 * _unbroadcast(g_draw * ev, sigma.shape) / sigma)

    return tape._record(out, "trimmed_gauss", vjp,
                        checks=(sigma, draw) if isinstance(var, Node) else (draw,))


def _barrier(x0, x1, scale, shift, weight):
    """``soft_barrier``'s intermediates from the columns of ``x``: the norm,
    the softplus argument, the softplus, its square and the output."""
    norm = np.sqrt(x0 * x0 + x1 * x1 + NORM_EPS)
    arg = scale * norm + shift
    soft = np.logaddexp(0.0, arg)
    sq = soft * soft
    return norm, arg, soft, sq, weight * sq + 0.0


def _barrier_slope(g, scale, weight, norm, arg, soft):
    """The factor that turns a barrier's adjoint ``g`` into ``x``'s: ``x``'s
    adjoint is this times ``x``."""
    return scale * (2.0 * soft * (weight * g) * _sigmoid(arg)) / norm


def soft_barrier(x, scale, shift, weight):
    """``weight * softplus(scale * |x| + shift)^2``, with |x| the regularized
    norm over a last axis of width 2 (``norm_eps``), kept as (K, 1).

    Replaces norm_eps, affine, softplus, square and affine.
    """
    xv = _value(x)
    x0, x1 = _columns(xv)
    norm, arg, soft, sq, out = _barrier(x0, x1, scale, shift, weight)
    if not isinstance(x, Node):
        return out[..., None]

    def vjp(g):
        q = _barrier_slope(g[..., 0], scale, weight, norm, arg, soft)
        _accumulate(x, q[..., None] * xv)

    return x.tape._record(out[..., None], "soft_barrier", vjp,
                          checks=(norm, arg, sq, out))


def obstacle_penalty(r, pos, obstacles, weight):
    """A reward ``r`` (K, 1) less one collision penalty per circular
    obstacle, ``weight * softplus(radius - |pos - centre|)^2``, subtracted
    obstacle by obstacle.  ``obstacles`` is a (J, 3) array of rows
    (cx, cy, radius); ``pos`` is (K, 2).

    Replaces, per obstacle, sub (pos - centre), ``soft_barrier`` (scale -1,
    shift radius) and sub (r - penalty).
    """
    tape = _tape_of(r, pos)
    rv, pv = _value(r), _value(pos)
    p0, p1 = _columns(pv)
    shape = (-1,) + (1,) * p0.ndim          # obstacles along a new leading axis
    cx, cy, radius = (obstacles[:, i].reshape(shape) for i in range(3))
    d0, d1 = p0 - cx, p1 - cy
    norm, arg, soft, sq, pen = _barrier(d0, d1, -1.0, radius, weight)
    rewards = [rv]
    for j in range(len(obstacles)):
        rewards.append(rewards[-1] - pen[j][..., None])
    if tape is None:
        return rewards[-1]
    pos_taped = isinstance(pos, Node)

    def vjp(g):
        # the chain passes g down its subs to r and -g to each penalty, the
        # last obstacle's first
        if isinstance(r, Node):
            _accumulate(r, _unbroadcast(g, rv.shape))
        if pos_taped:
            q = _barrier_slope(-g[..., 0], -1.0, weight, norm, arg, soft)
            _accumulate_columns(pos, [[q[j] * d0[j], q[j] * d1[j]]
                                      for j in reversed(range(len(obstacles)))])

    return tape._record(rewards[-1], "obstacle_penalty", vjp,
                        checks=((d0, d1, norm, arg, sq, pen) if pos_taped else ())
                        + tuple(rewards[1:]))


def occluded_variance(var, pos_obs, pos_target, obstacles, temp, c_scale):
    """An observation variance ``var`` (K, 1) raised by the occlusion of the
    sight line from ``pos_obs`` to ``pos_target`` (both (K, 2)).

    ``obstacles`` is a (J, 3) array of circular obstacles (cx, cy, radius).
    An obstacle's clearance is the distance from its centre to the nearest
    point of the sight line, less its radius; the nearest point's position
    along the line is smoothly clamped onto the segment.  The clearances
    are combined by a soft minimum at temperature ``temp``,
    ``c = -log(sum exp(-temp * clearance)) / temp``, and the variance grows
    by ``c_scale * softplus(-temp * c) / temp``: about ``c_scale`` per unit
    of depth into an obstacle, nothing for a clear line.

    Replaces sub and sq_dist (sub, dot2) of the sight line, add (its squared
    length plus 1e-9); per obstacle sub (centre - observer), dot2, div,
    smooth_clamp, mul, add, sub, norm_eps, affine, affine, exp and the add
    into the sum; then log, affine, affine, softplus, affine, affine and the
    add to ``var``.  Unlike the chain's ``log``, a soft-min sum that
    underflows to 0 raises no ``ValueError``: its log is -inf, which raises
    ``FloatingPointError`` when a position is a node and is otherwise the
    limit of a clear line, ``var`` unchanged.
    """
    tape = _tape_of(var, pos_obs, pos_target)
    vv, av, bv = _value(var), _value(pos_obs), _value(pos_target)
    if av.shape != bv.shape:
        raise ValueError(f"occluded_variance needs positions of one shape, "
                         f"got {av.shape} and {bv.shape}")
    a0, a1 = _columns(av)
    b0, b1 = _columns(bv)
    shape = (-1,) + (1,) * a0.ndim          # obstacles along a new leading axis
    cx, cy, radius = (obstacles[:, i].reshape(shape) for i in range(3))
    ba0, ba1 = b0 - a0, b1 - a1
    len_sq = ba0 * ba0 + ba1 * ba1
    len2 = len_sq + 1e-9
    ca0, ca1 = cx - a0, cy - a1
    num = ba0 * ca0 + ba1 * ca1
    along = num / len2
    s = _clamp_ramp(along, 0.0, 1.0)
    t = 0.0 + 1.0 * s
    tb0, tb1 = t * ba0, t * ba1
    p0, p1 = a0 + tb0, a1 + tb1
    cp0, cp1 = cx - p0, cy - p1
    dist = np.sqrt(cp0 * cp0 + cp1 * cp1 + NORM_EPS)
    clear = 1.0 * dist - radius
    expo = -temp * clear + 0.0
    term = np.exp(expo)
    sums = [term[0]]
    for j in range(1, len(obstacles)):
        sums.append(sums[-1] + term[j])
    total = sums[-1]
    with np.errstate(divide="ignore"):
        log_total = np.log(total)
    clearance = (-1.0 / temp) * log_total + 0.0
    neg_clear = -temp * clearance + 0.0
    soft = np.logaddexp(0.0, neg_clear)
    occlusion = (1.0 / temp) * soft + 0.0
    extra = c_scale * occlusion + 0.0
    out = vv + extra[..., None]
    if tape is None:
        return out
    line_taped = isinstance(pos_obs, Node) or isinstance(pos_target, Node)

    def vjp(g):
        if isinstance(var, Node):
            _accumulate(var, _unbroadcast(g, vv.shape))
        if not line_taped:
            return
        g_total = (-1.0 / temp) * (-temp * (
            (1.0 / temp) * (c_scale * g[..., 0]) * _sigmoid(neg_clear))) / total
        g_dist = 1.0 * (-temp * (g_total * term))
        gn = g_dist / dist
        gp0, gp1 = -(gn * cp0), -(gn * cp1)         # to the nearest point
        g_s = _pair_sum(gp0 * ba0, gp1 * ba1) * 4.0 * s * (1.0 - s)
        g_num = g_s / len2
        g_len2 = -g_s * along / len2
        backwards = range(len(obstacles) - 1, -1, -1)   # the chain's last obstacle first
        (g_len,) = _fold([[g_len2[j]] for j in backwards])
        # sq_dist's dot2 sends its adjoint twice to one displacement node
        g_d0, g_d1 = g_len * ba0, g_len * ba1
        g_d0, g_d1 = g_d0 + g_d0, g_d1 + g_d1
        # the sight line's consumers in reverse: per obstacle the mul, then the dot2
        g_ba0, g_ba1 = _fold([part for j in backwards for part in (
            [gp0[j] * t[j], gp1[j] * t[j]], [g_num[j] * ca0[j], g_num[j] * ca1[j]])])
        if isinstance(pos_obs, Node):
            parts = [part for j in backwards for part in (
                [gp0[j], gp1[j]], [-(g_num[j] * ba0), -(g_num[j] * ba1)])]
            _accumulate_columns(pos_obs, parts + [[-g_d0, -g_d1], [-g_ba0, -g_ba1]])
        if isinstance(pos_target, Node):
            _accumulate_columns(pos_target, [[g_d0, g_d1], [g_ba0, g_ba1]])

    offsets = (ca0, ca1) if isinstance(pos_obs, Node) else ()
    line = (ba0, ba1, len_sq, len2, *offsets, num, along, tb0, tb1, p0, p1, cp0, cp1, dist,
            clear, expo, term, *sums[1:], log_total, clearance, neg_clear, occlusion,
            extra) if line_taped else ()
    return tape._record(out, "occluded_variance", vjp, checks=line + (out,))


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
