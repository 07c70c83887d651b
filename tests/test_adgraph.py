"""Tape autodiff: exactness against analytic gradients and finite differences."""

import gc

import numpy as np
import pytest

from pogplan import adgraph as ag
from pogplan import beliefs, solver
from pogplan.adgraph import Tape, grad_check
from pogplan.gamedef import bearing_to
from pogplan.policy import ACTIVE, PASSIVE, init_policy
from pogplan.scenarios import ScenarioConfig, make_game


def fd_grad(f, x, h=1e-6):
    """Independent central-difference oracle used to check backward()."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += h
        lo[i] -= h
        gf[i] = (float(np.asarray(f(hi.reshape(x.shape))))
                 - float(np.asarray(f(lo.reshape(x.shape))))) / (2 * h)
    return g


def test_lift_readback_and_unreachable_adjoint():
    tape = Tape()
    stray = tape.param(0.0)
    v = tape.param([1.0, 2.0])
    np.testing.assert_array_equal(v.value, [1.0, 2.0])
    root = ag.asum(ag.square(v))
    tape.backward(root)
    assert stray.grad == 0.0  # not on the root path


def test_lift_nonfinite_rejected():
    tape = Tape()
    with pytest.raises(FloatingPointError):
        tape.param(np.nan)
    with pytest.raises(FloatingPointError):
        tape.param([1.0, np.inf])


def test_finite_leaf_whose_sum_overflows_accepted():
    tape = Tape()
    with np.errstate(over="ignore"):  # the one-sum fast path overflows to inf
        big = tape.param([1e308, 1e308])
    np.testing.assert_array_equal(big.value, [1e308, 1e308])


def test_mul_product_rule():
    tape = Tape()
    x = tape.param(3.0)
    y = tape.param(4.0)
    out = ag.mul(x, y)
    assert out.value == 12.0
    tape.backward(out)
    assert x.grad == 4.0
    assert y.grad == 3.0


def test_tanh_at_zero():
    tape = Tape()
    x = tape.param(0.0)
    out = ag.tanh(x)
    assert out.value == 0.0
    tape.backward(out)
    assert x.grad == 1.0


def test_norm_eps_unit_vector():
    tape = Tape()
    v = tape.param([3.0, 4.0])
    out = ag.norm_eps(v, eps=0.0, keepdims=False)
    assert float(out.value) == 5.0
    tape.backward(out)
    np.testing.assert_allclose(v.grad, [0.6, 0.8])


def test_backward_sum_of_squares():
    tape = Tape()
    v = tape.param([1.0, 2.0, 3.0])
    root = ag.asum(ag.square(v))
    tape.backward(root)
    np.testing.assert_allclose(v.grad, [2.0, 4.0, 6.0])


def test_backward_constant_root_zero_grads():
    tape = Tape()
    p = tape.param([1.0, 2.0])
    root = tape.param(7.0)  # a root that does not depend on p
    tape.backward(root)
    np.testing.assert_array_equal(p.grad, [0.0, 0.0])


def test_backward_requires_scalar_root():
    tape = Tape()
    v = tape.param([1.0, 2.0])
    with pytest.raises(ValueError):
        tape.backward(ag.square(v))


def test_backward_deterministic():
    rng = np.random.default_rng(0)
    tape = Tape()
    x = tape.param(rng.normal(size=5))
    y = ag.asum(ag.mul(ag.tanh(x), ag.exp(ag.scale(x, 0.3))))
    tape.backward(y)
    first = x.grad.copy()
    tape.backward(y)
    np.testing.assert_array_equal(first, x.grad)


def test_log_nonpositive_rejected():
    tape = Tape()
    x = tape.param([-1.0])
    with pytest.raises(ValueError):
        ag.log(x)


def test_dense_tanh_shape_mismatch_rejected():
    tape = Tape()
    w = tape.param(np.ones((2, 3)))
    x = tape.param(np.ones(4))
    with pytest.raises(ValueError):
        ag.dense_tanh(w, np.zeros(2), x)


def test_node_outliving_its_tape_raises():
    x = Tape().param([1.0, 2.0])  # the tape is freed at the end of this line
    np.testing.assert_array_equal(x.value, [1.0, 2.0])
    with pytest.raises(ReferenceError):
        x.tape
    with pytest.raises(ReferenceError):
        ag.tanh(x)


def test_expected_cost_leaves_no_cyclic_garbage():
    """The tape of a gradient step is freed by reference counting alone."""
    game = make_game(ScenarioConfig(name="tag"))
    thetas = [init_policy(game, i, mode, seed=i, hidden=(8,))
              for i, mode in enumerate([PASSIVE, ACTIVE])]
    pset = beliefs.init_particles(game, 50, 1, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    solver.expected_cost(game, pset, thetas, 1, 5, rng)  # warm up lazy imports
    gc.collect()
    gc.disable()
    try:
        for player in range(game.n_players):
            solver.expected_cost(game, pset, thetas, player, 5, rng)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_expected_cost_tapes_no_constants(monkeypatch):
    """Batch rows, windows and the opponent's network stay off the tape."""
    game = make_game(ScenarioConfig(name="tag"))
    thetas = [init_policy(game, i, mode, seed=i, hidden=(64, 64))
              for i, mode in enumerate([PASSIVE, ACTIVE])]
    pset = beliefs.init_particles(game, 100, 1, np.random.default_rng(0))
    ops = []
    record = Tape._record

    def counting(self, value, op, *args, **kwargs):
        ops.append(op)
        return record(self, value, op, *args, **kwargs)

    monkeypatch.setattr(Tape, "_record", counting)
    for player in range(game.n_players):
        ops.clear()
        solver.expected_cost(game, pset, thetas, player, 10, np.random.default_rng(1))
        assert "const" not in ops
        assert len(ops) <= 210, f"player {player} taped {len(ops)} nodes"


def test_overflow_raises_before_unchecked_ops():
    """tanh, smooth_clamp and atan2 skip the finiteness check: an overflow
    raises in the checked op that produces it, before saturation hides it."""
    saturating = (ag.tanh, lambda v: ag.smooth_clamp(v, -1.0, 1.0),
                  lambda v: ag.atan2(v, 1.0))
    with np.errstate(over="ignore"):
        for saturate in saturating:
            tape = Tape()
            x = tape.param([400.0])
            with pytest.raises(FloatingPointError):
                saturate(ag.exp(ag.scale(x, 2.0)))
            with pytest.raises(FloatingPointError):
                saturate(ag.mul(x, 1e307))


def test_gauss_reparam_exact_partials():
    eps = np.array([[0.7, -1.3]])
    tape = Tape()
    mu = tape.param(np.zeros((1, 2)))
    sigma = tape.param(np.full((1, 1), 2.0))
    z = ag.gauss_reparam(mu, sigma, eps)
    np.testing.assert_allclose(z.value, 2.0 * eps)
    tape.backward(ag.asum(z))
    np.testing.assert_array_equal(mu.grad, np.ones((1, 2)))  # dz/dmu = 1
    np.testing.assert_array_equal(sigma.grad, [[eps.sum()]])  # dz/dsigma = eps


def test_grad_check_square():
    err = grad_check(lambda x: ag.asum(ag.square(x)), np.array([1.0]), h=1e-5)
    assert err < 1e-8


def test_grad_check_tanh():
    err = grad_check(lambda x: ag.asum(ag.tanh(x)), np.array([0.5]))
    assert err < 1e-6
    # and the analytic value agrees: d tanh = 1 - tanh^2
    tape = Tape()
    x = tape.param([0.5])
    tape.backward(ag.asum(ag.tanh(x)))
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(0.5) ** 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# Every primitive matches central finite differences at random points.
# ---------------------------------------------------------------------------

def _fd_check(build, n_in, points=100, tol=1e-4, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        x = rng.normal(size=n_in)
        worst = max(worst, grad_check(build, x, h=1e-5))
    assert worst < tol, f"max relative error {worst}"


def test_fd_add_sub_mul_div():
    _fd_check(lambda x: ag.asum(ag.mul(ag.add(ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4)),
                                       ag.sub(ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4)))), 4)
    _fd_check(lambda x: ag.asum(ag.div(ag.slice_last(x, 0, 2),
                                       ag.add(ag.square(ag.slice_last(x, 2, 4)), 1.0))), 4)


def test_fd_affine_square_exp_log_sqrt():
    _fd_check(lambda x: ag.asum(ag.affine(ag.square(x), 0.7, 0.2)), 3)
    _fd_check(lambda x: ag.asum(ag.exp(ag.scale(x, 0.5))), 3)
    _fd_check(lambda x: ag.asum(ag.log(ag.add(ag.square(x), 1.0))), 3)
    _fd_check(lambda x: ag.asum(ag.sqrt(ag.add(ag.square(x), 0.5))), 3)


def _dense_args(x, m, n, batch=None):
    """Split a flat vector into (w, b, x) operands of ``dense_tanh``."""
    w = ag.reshape(ag.slice_last(x, 0, m * n), (m, n))
    b = ag.slice_last(x, m * n, m * n + m)
    rest = ag.slice_last(x, m * n + m, x.shape[-1])
    return w, b, (rest if batch is None else ag.reshape(rest, (batch, n)))


def test_fd_dense_tanh():
    _fd_check(lambda x: ag.asum(ag.dense_tanh(*_dense_args(x, 2, 3))), 2 * 3 + 2 + 3)


def test_fd_batched_dense_tanh():
    _fd_check(lambda x: ag.asum(ag.square(ag.dense_tanh(*_dense_args(x, 3, 4, batch=5)))),
              3 * 4 + 3 + 5 * 4, points=20)

    # batched path must agree with the per-row path exactly
    w0 = np.random.default_rng(2).normal(size=(3, 4))
    xb = np.random.default_rng(3).normal(size=(5, 4))
    tape = Tape()
    xn = tape.param(xb)
    y = ag.asum(ag.dense_tanh(w0, np.zeros(3), xn))
    tape.backward(y)
    grad_batched = xn.grad.copy()
    per_row = np.vstack([
        (1 - np.tanh(w0 @ xb[i]) ** 2) @ w0 for i in range(5)
    ])
    np.testing.assert_allclose(grad_batched, per_row, rtol=1e-12)


def _unfused_dense_tanh(w, b, x):
    """tanh(w @ x + b) from elementwise primitives, one node per step."""
    rows = ag.reshape(x, (x.shape[0], 1, x.shape[1]))  # (K, 1, n) against (m, n)
    return ag.tanh(ag.add(ag.asum(ag.mul(rows, w), axis=-1), b))


def test_dense_tanh_matches_unfused_chain():
    rng = np.random.default_rng(9)
    values = (rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(6, 3)))
    results = []
    for layer in (ag.dense_tanh, _unfused_dense_tanh):
        tape = Tape()
        w, b, x = (tape.param(v) for v in values)
        y = layer(w, b, x)
        tape.backward(ag.asum(ag.mul(y, np.arange(24.0).reshape(6, 4))))
        results.append([y.value, w.grad, b.grad, x.grad])
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(results[0][0], ag.dense_tanh(*values), rtol=0)  # raw path


def test_fd_norm_abs_atan2_relu_softplus_clamp():
    _fd_check(lambda x: ag.asum(ag.norm_eps(x, 1e-9, keepdims=False)), 3)
    _fd_check(lambda x: ag.asum(ag.smooth_abs(x, 1e-9)), 3)
    _fd_check(lambda x: ag.asum(ag.atan2(ag.slice_last(x, 0, 1), ag.slice_last(x, 1, 2))), 2)
    _fd_check(lambda x: ag.asum(ag.relu(x)), 3, seed=4)  # kinks at 0 are measure-zero
    _fd_check(lambda x: ag.asum(ag.softplus(x)), 3)
    _fd_check(lambda x: ag.asum(ag.smooth_clamp(x, -0.4, 0.9)), 3)


def _composite_dot2(a, b):
    """dot2 as one slice_last per coordinate, then mul and add nodes."""
    ax, ay = ag.slice_last(a, 0, 1), ag.slice_last(a, 1, 2)
    bx, by = ag.slice_last(b, 0, 1), ag.slice_last(b, 1, 2)
    return ag.add(ag.mul(ax, bx), ag.mul(ay, by))


def _composite_cross2(a, b):
    ax, ay = ag.slice_last(a, 0, 1), ag.slice_last(a, 1, 2)
    bx, by = ag.slice_last(b, 0, 1), ag.slice_last(b, 1, 2)
    return ag.sub(ag.mul(ax, by), ag.mul(ay, bx))


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros included


def test_fd_dot2_cross2():
    for op in (ag.dot2, ag.cross2):
        _fd_check(lambda x: ag.asum(ag.square(op(ag.slice_last(x, 0, 2),
                                                 ag.slice_last(x, 2, 4)))), 4)
        # batched rows, against a raw operand that gets no adjoint
        other = np.random.default_rng(6).normal(size=(3, 2))
        _fd_check(lambda x: ag.asum(ag.tanh(op(ag.reshape(x, (3, 2)), other))), 6, points=20)
        _fd_check(lambda x: ag.asum(ag.tanh(op(other, ag.reshape(x, (3, 2))))), 6, points=20)
    _fd_check(lambda x: ag.asum(ag.dot2(ag.reshape(x, (3, 2)), ag.reshape(x, (3, 2)))), 6)


def test_dot2_cross2_match_slice_composite_bitwise():
    rng = np.random.default_rng(12)
    upstream = rng.normal(size=(7, 1))
    for fused, composite in ((ag.dot2, _composite_dot2), (ag.cross2, _composite_cross2)):
        for _ in range(20):
            a, b = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
            _assert_bitwise(fused(a, b), composite(a, b))  # raw path
            results = []
            for op in (fused, composite):
                tape = Tape()
                an, bn = tape.param(a), tape.param(b)
                out = op(an, bn)
                tape.backward(ag.asum(ag.mul(out, upstream)))
                results.append((out.value, an.grad, bn.grad))
            for got, want in zip(*results):
                _assert_bitwise(got, want)


def test_bearing_at_rest_follows_signed_zeros():
    """Zero velocity against displacements of every sign: the fused bearing
    equals the slice composite bit for bit, and is pi exactly when the target
    lies in the observer's third quadrant."""
    pos = np.array([[0.4, -0.2]])
    vel = np.zeros((1, 2))
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            target = pos + np.array([[sx * 1.3, sy * 0.7]])
            d = target - pos
            want = ag.atan2(_composite_cross2(vel, d), _composite_dot2(vel, d))
            _assert_bitwise(bearing_to(pos, vel, target), want)
            tape = Tape()
            _assert_bitwise(bearing_to(pos, tape.param(vel), target).value, want)
            assert want.item() == (np.pi if sx < 0 and sy < 0 else 0.0)


def test_fd_concat_slice_sum_axis():
    def f(x):
        a = ag.slice_last(x, 0, 2)
        b = ag.slice_last(x, 2, 5)
        joined = ag.concat([ag.square(a), ag.tanh(b)])
        return ag.asum(ag.mul(joined, joined))

    _fd_check(f, 5)

    def f_axis(x):
        if isinstance(x, ag.Node):
            rows = ag.concat([ag.slice_last(x, 0, 3), ag.slice_last(x, 3, 6)])
            return ag.asum(ag.square(ag.asum(ag.tanh(rows), axis=-1)))
        v = np.tanh(np.concatenate([x[0:3], x[3:6]]))
        return float(np.sum(v)) ** 2

    _fd_check(f_axis, 6, points=20)


def test_fd_gauss_reparam():
    eps = np.random.default_rng(5).normal(size=(1, 2))

    def f(x):
        mu = ag.slice_last(x, 0, 2)
        sigma = ag.softplus(ag.slice_last(x, 2, 3))
        z = ag.gauss_reparam(mu, sigma, eps[0])
        return ag.asum(ag.square(z))

    _fd_check(f, 3)


def test_fd_synthetic_depth6_rollout_with_network():
    """Random two-hidden-layer net driving a 6-step nonlinear recursion."""
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(4, 2)) * 0.7
    w2 = rng.normal(size=(4, 4)) * 0.7
    w3 = rng.normal(size=(2, 4)) * 0.7
    b1, b2, b3 = rng.normal(size=4) * 0.1, rng.normal(size=4) * 0.1, rng.normal(size=2) * 0.1
    eps = rng.normal(size=(6, 2))

    def f(x):
        state = ag.slice_last(x, 0, 2) if isinstance(x, ag.Node) else x[0:2]
        total = None
        for t in range(6):
            h = ag.dense_tanh(w1, b1, state)
            h = ag.dense_tanh(w2, b2, h)
            act = ag.scale(ag.dense_tanh(w3, b3, h), 0.3)
            state = ag.add(state, ag.smooth_clamp(act, -0.25, 0.25))
            state = ag.gauss_reparam(state, ag.smooth_abs(ag.norm_eps(state, keepdims=False)), eps[t])
            step_cost = ag.asum(ag.square(state))
            total = step_cost if total is None else ag.add(total, step_cost)
        return total if isinstance(x, ag.Node) else float(np.asarray(total))

    worst = 0.0
    rng2 = np.random.default_rng(8)
    for _ in range(20):
        worst = max(worst, grad_check(f, rng2.normal(size=2), h=1e-4))
    assert worst < 1e-4
