"""Tape autodiff: exactness against analytic gradients and finite differences."""

import ast
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import refchain as rc

from pogplan import adgraph as ag
from pogplan import beliefs, solver
from pogplan.adgraph import Tape, grad_check
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
    root = ag.asum(rc.square(v))
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
    out = rc.mul(x, y)
    assert out.value == 12.0
    tape.backward(out)
    assert x.grad == 4.0
    assert y.grad == 3.0


def test_tanh_at_zero():
    tape = Tape()
    x = tape.param(0.0)
    out = rc.tanh(x)
    assert out.value == 0.0
    tape.backward(out)
    assert x.grad == 1.0


def test_norm_eps_unit_vector():
    """The norm of (3, 4) is 5 and its gradient the unit vector; the
    regularizer moves both by about 2e-11 relative."""
    tape = Tape()
    v = tape.param([[3.0, 4.0]])
    out = ag.norm_eps(v)
    np.testing.assert_allclose(out.value, [[5.0]], rtol=1e-10)
    tape.backward(out)
    np.testing.assert_allclose(v.grad, [[0.6, 0.8]], rtol=1e-10)
    exact = rc.row_sum_norm_eps(np.array([[3.0, 4.0]]), eps=0.0)
    assert exact.item() == 5.0
    with pytest.raises(ValueError, match="planar"):
        ag.norm_eps(np.ones(3))


def test_backward_sum_of_squares():
    tape = Tape()
    v = tape.param([1.0, 2.0, 3.0])
    root = ag.asum(rc.square(v))
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
        tape.backward(rc.square(v))


def test_backward_deterministic():
    rng = np.random.default_rng(0)
    tape = Tape()
    x = tape.param(rng.normal(size=5))
    y = ag.asum(rc.mul(rc.tanh(x), ag.exp(ag.affine(x, 0.3, 0.0))))
    tape.backward(y)
    first = x.grad.copy()
    tape.backward(y)
    np.testing.assert_array_equal(first, x.grad)


def test_log_nonpositive_rejected():
    tape = Tape()
    x = tape.param([-1.0])
    with pytest.raises(ValueError):
        rc.log(x)


def test_dense_tanh_shape_mismatch_rejected():
    tape = Tape()
    params = tape.param(np.ones(2 * 3 + 2))
    x = tape.param(np.ones((1, 4)))
    with pytest.raises(ValueError, match="mismatch"):
        ag.tanh_mlp(params, ((2, 3),), x, 1.0)
    with pytest.raises(ValueError, match="rows"):   # one unbatched input
        ag.tanh_mlp(params, ((2, 3),), np.ones(3), 1.0)
    for size in (2 * 3 + 1, 2 * 3 + 3):   # a parameter vector too short or too long
        with pytest.raises(ValueError, match="need 8 parameters"):
            ag.tanh_mlp(tape.param(np.ones(size)), ((2, 3),), np.ones((1, 3)), 1.0)


def test_node_outliving_its_tape_raises():
    x = Tape().param([1.0, 2.0])  # the tape is freed at the end of this line
    np.testing.assert_array_equal(x.value, [1.0, 2.0])
    with pytest.raises(ReferenceError):
        x.tape
    with pytest.raises(ReferenceError):
        ag.exp(x)


SRC = Path(ag.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"   # the benchmark, a caller outside src
ENTRY_POINTS = {("cli", "main")}   # called by the console script pyproject.toml declares


def _public_api():
    """Per ``pogplan`` module, its public functions and the ``__init__`` of its
    public classes, keyed (module, name), each with the parameters a call
    fills by position (``self`` dropped)."""
    api = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                api[(path.stem, node.name)] = (node, node.args.posonlyargs + node.args.args)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        api[(path.stem, node.name)] = (fn, (fn.args.posonlyargs + fn.args.args)[1:])
    return api


def _references(callers):
    """Scan the ``*.py`` files of the ``callers`` directories for references
    to ``pogplan`` names.  A name (module, X) is referenced as ``alias.X``,
    where ``alias`` names the module (``from . import adgraph as ag``,
    ``from pogplan import solver``), as ``X`` imported from the module
    (``from .adgraph import X``, ``from pogplan.solver import X``), or as
    ``X`` inside the module itself; ``np.exp`` is no reference to
    ``adgraph.exp``.  Returns the names referenced and the calls through
    them, as (name, call) pairs."""
    used, calls = set(), []
    for path in (p for d in callers for p in sorted(d.glob("*.py"))):
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == SRC else None
        modules, names = {}, {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and own:
                base = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == "pogplan":
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if base is None:
                    modules[local] = alias.name
                else:
                    names[local] = (base, alias.name)

        def name_of(node):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                return modules[node.value.id], node.attr
            if isinstance(node, ast.Name) and node.id in names:
                return names[node.id]
            if isinstance(node, ast.Name) and own:
                return own, node.id
            return None

        for node in ast.walk(tree):
            if name_of(node) is not None:
                used.add(name_of(node))
            if isinstance(node, ast.Call) and name_of(node.func) is not None:
                calls.append((name_of(node.func), node))
    return used, calls


def _without_caller(api, callers):
    used, _ = _references(callers)
    return sorted(f"{module}.{name}" for module, name in set(api) - used)


def _unpassed_defaults(api, callers):
    """Each parameter with a default that no call in ``callers`` passes, by
    position or by keyword, as "module.function.parameter"."""
    _, calls = _references(callers)
    unpassed = []
    for key, (fn, positional) in sorted(api.items()):
        positional = [a.arg for a in positional]
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        for param in defaulted:
            if not any(any(k.arg in (param, None) for k in call.keywords)
                       or any(isinstance(a, ast.Starred) for a in call.args)
                       or (param in positional and len(call.args) > positional.index(param))
                       for callee, call in calls if callee == key):
                unpassed.append(".".join((*key, param)))
    return unpassed


def _adgraph_api():
    return {key: value for key, value in _public_api().items() if key[0] == "adgraph"}


def test_every_public_adgraph_function_has_a_src_caller():
    """``src`` holds no adgraph function that only the tests use."""
    unused = _without_caller(_adgraph_api(), [SRC])
    assert not unused, f"adgraph functions with no caller in src: {unused}"


def test_every_defaulted_adgraph_parameter_is_passed_in_src():
    """``src`` holds no adgraph parameter that only the tests set: each
    parameter with a default is passed, by position or by keyword, by at
    least one call in ``src``."""
    unpassed = _unpassed_defaults(_adgraph_api(), [SRC])
    assert not unpassed, f"adgraph parameters no call in src passes: {unpassed}"


def test_every_public_pogplan_function_has_a_caller():
    """No ``pogplan`` module holds a public function or class that only the
    tests use: each is referenced in ``src`` or in the benchmark."""
    api = {key: value for key, value in _public_api().items() if key not in ENTRY_POINTS}
    unused = _without_caller(api, [SRC, PERFBENCH])
    assert not unused, f"pogplan functions with no caller in src or perfbench: {unused}"


def test_every_defaulted_pogplan_parameter_is_passed():
    """No ``pogplan`` function or constructor has a defaulted parameter that
    only the tests set: some call in ``src`` or in the benchmark passes it."""
    api = {key: value for key, value in _public_api().items() if key not in ENTRY_POINTS}
    unpassed = _unpassed_defaults(api, [SRC, PERFBENCH])
    assert not unpassed, f"pogplan parameters no call in src or perfbench passes: {unpassed}"


def test_expected_cost_leaves_no_cyclic_garbage():
    """The tape of a gradient step is freed by reference counting alone."""
    game = make_game(ScenarioConfig(scenario="tag"))
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


def _step_ops(monkeypatch, name, modes):
    """Per player, the ops one k = 10 gradient step records."""
    game = make_game(ScenarioConfig(scenario=name))
    thetas = [init_policy(game, i, mode, seed=i, hidden=(64, 64))
              for i, mode in enumerate(modes)]
    pset = beliefs.init_particles(game, 100, 1, np.random.default_rng(0))
    ops = []
    record = Tape._record

    def counting(self, value, op, *args, **kwargs):
        ops.append(op)
        return record(self, value, op, *args, **kwargs)

    monkeypatch.setattr(Tape, "_record", counting)
    steps = []
    for player in range(game.n_players):
        ops.clear()
        solver.expected_cost(game, pset, thetas, player, 10, np.random.default_rng(1))
        steps.append(list(ops))
    return steps


def test_expected_cost_tapes_no_constants(monkeypatch):
    """Batch rows, windows and the opponent's network stay off the tape, the
    player's parameter vector is its one leaf, and one k = 10 gradient step
    records at most 110 nodes."""
    for player, ops in enumerate(_step_ops(monkeypatch, "tag", [PASSIVE, ACTIVE])):
        assert "const" not in ops
        assert ops.count("param") == 1
        # fused policy, view-cone, draw, barrier, velocity and shift nodes: 92 and 70
        assert len(ops) <= 110, f"player {player} taped {len(ops)} nodes"


def test_hideseek_step_node_count(monkeypatch):
    """One hideseek gradient step, both players active, records at most 140
    nodes: each taped observation's sight line is one node, and so are a
    reward's obstacle penalties."""
    for player, ops in enumerate(_step_ops(monkeypatch, "hideseek", [ACTIVE, ACTIVE])):
        assert {"log", "exp", "dot2", "slice"}.isdisjoint(ops)
        assert ops.count("param") == 1
        # 127 and 121
        assert len(ops) <= 140, f"player {player} taped {len(ops)} nodes"


def test_overflow_raises_before_unchecked_ops():
    """tanh, smooth_clamp and atan2 skip the finiteness check: an overflow
    raises in the checked op that produces it, before saturation hides it."""
    saturating = (rc.tanh, lambda v: rc.smooth_clamp(v, -1.0, 1.0),
                  lambda v: rc.atan2(v, 1.0))
    with np.errstate(over="ignore"):
        for saturate in saturating:
            tape = Tape()
            x = tape.param([400.0])
            with pytest.raises(FloatingPointError):
                saturate(ag.exp(ag.affine(x, 2.0, 0.0)))
            with pytest.raises(FloatingPointError):
                saturate(rc.mul(x, 1e307))


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
    err = grad_check(lambda x: ag.asum(rc.square(x)), np.array([1.0]), h=1e-5)
    assert err < 1e-8


def test_grad_check_tanh():
    err = grad_check(lambda x: ag.asum(rc.tanh(x)), np.array([0.5]))
    assert err < 1e-6
    # and the analytic value agrees: d tanh = 1 - tanh^2
    tape = Tape()
    x = tape.param([0.5])
    tape.backward(ag.asum(rc.tanh(x)))
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
    _fd_check(lambda x: ag.asum(rc.mul(ag.add(ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4)),
                                       ag.sub(ag.slice_last(x, 0, 2), ag.slice_last(x, 2, 4)))), 4)
    _fd_check(lambda x: ag.asum(rc.div(ag.slice_last(x, 0, 2),
                                       ag.add(rc.square(ag.slice_last(x, 2, 4)), 1.0))), 4)


def test_fd_affine_square_exp_log_sqrt():
    _fd_check(lambda x: ag.asum(ag.affine(rc.square(x), 0.7, 0.2)), 3)
    _fd_check(lambda x: ag.asum(ag.exp(ag.affine(x, 0.5, 0.0))), 3)
    _fd_check(lambda x: ag.asum(rc.log(ag.add(rc.square(x), 1.0))), 3)
    _fd_check(lambda x: ag.asum(rc.sqrt(ag.add(rc.square(x), 0.5))), 3)


def _dense_layer(x, m, n, batch):
    """One tanh layer (a one-layer ``tanh_mlp``) on the parameters and rows
    that a flat vector splits into."""
    params = ag.slice_last(x, 0, m * n + m)
    rows = rc.reshape(ag.slice_last(x, m * n + m, x.shape[-1]), (batch, n))
    return ag.tanh_mlp(params, ((m, n),), rows, 1.0)


def test_fd_dense_tanh():
    _fd_check(lambda x: ag.asum(_dense_layer(x, 2, 3, batch=1)), 2 * 3 + 2 + 3)


def test_fd_batched_dense_tanh():
    _fd_check(lambda x: ag.asum(rc.square(_dense_layer(x, 3, 4, batch=5))),
              3 * 4 + 3 + 5 * 4, points=20)

    # batched path must agree with the per-row path exactly
    w0 = np.random.default_rng(2).normal(size=(3, 4))
    xb = np.random.default_rng(3).normal(size=(5, 4))
    tape = Tape()
    xn = tape.param(xb)
    y = ag.asum(ag.tanh_mlp(np.concatenate([w0.ravel(), np.zeros(3)]), ((3, 4),), xn, 1.0))
    tape.backward(y)
    grad_batched = xn.grad.copy()
    per_row = np.vstack([
        (1 - np.tanh(w0 @ xb[i]) ** 2) @ w0 for i in range(5)
    ])
    np.testing.assert_allclose(grad_batched, per_row, rtol=1e-12)


def test_dense_tanh_matches_unfused_chain():
    """A one-layer ``tanh_mlp`` against tanh(w @ x + b) from elementwise
    primitives, one node per step."""
    def fused(params, x):
        return ag.tanh_mlp(params, ((4, 3),), x, 1.0)

    def unfused(params, x):
        (w,), (b,) = rc.layer_nodes(params, ((4, 3),))
        rows = rc.reshape(x, (x.shape[0], 1, x.shape[1]))  # (K, 1, n) against (m, n)
        return rc.tanh(ag.add(rc.sum_axis(rc.mul(rows, w), -1), b))

    rng = np.random.default_rng(9)
    w, b, x = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=(6, 3))
    values = (np.concatenate([w.ravel(), b]), x)
    results = []
    for layer in (fused, unfused):
        tape = Tape()
        params, x = (tape.param(v) for v in values)
        y = layer(params, x)
        tape.backward(ag.asum(rc.mul(y, np.arange(24.0).reshape(6, 4))))
        results.append([y.value, params.grad, x.grad])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(results[0][0], fused(*values), rtol=0)  # raw path


def test_fd_norm_abs_atan2_relu_softplus_clamp():
    _fd_check(lambda x: ag.asum(ag.norm_eps(rc.reshape(x, (3, 2)))), 6)
    _fd_check(lambda x: ag.asum(rc.smooth_abs(x, 1e-9)), 3)
    _fd_check(lambda x: ag.asum(rc.atan2(ag.slice_last(x, 0, 1), ag.slice_last(x, 1, 2))), 2)
    _fd_check(lambda x: ag.asum(rc.relu(x)), 3, seed=4)  # kinks at 0 are measure-zero
    _fd_check(lambda x: ag.asum(rc.softplus(x)), 3)
    _fd_check(lambda x: ag.asum(rc.smooth_clamp(x, -0.4, 0.9)), 3)


def _composite_dot2(a, b):
    """dot2 as one slice_last per coordinate, then mul and add nodes."""
    ax, ay = ag.slice_last(a, 0, 1), ag.slice_last(a, 1, 2)
    bx, by = ag.slice_last(b, 0, 1), ag.slice_last(b, 1, 2)
    return ag.add(rc.mul(ax, bx), rc.mul(ay, by))


def _composite_cross2(a, b):
    ax, ay = ag.slice_last(a, 0, 1), ag.slice_last(a, 1, 2)
    bx, by = ag.slice_last(b, 0, 1), ag.slice_last(b, 1, 2)
    return ag.sub(rc.mul(ax, by), rc.mul(ay, bx))


def _assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # signed zeros included


def test_fd_dot2_cross2():
    for op in (ag.dot2, rc.cross2):
        _fd_check(lambda x: ag.asum(rc.square(op(ag.slice_last(x, 0, 2),
                                                 ag.slice_last(x, 2, 4)))), 4)
        # batched rows, against a raw operand that gets no adjoint
        other = np.random.default_rng(6).normal(size=(3, 2))
        _fd_check(lambda x: ag.asum(rc.tanh(op(rc.reshape(x, (3, 2)), other))), 6, points=20)
        _fd_check(lambda x: ag.asum(rc.tanh(op(other, rc.reshape(x, (3, 2))))), 6, points=20)
    _fd_check(lambda x: ag.asum(ag.dot2(rc.reshape(x, (3, 2)), rc.reshape(x, (3, 2)))), 6)


def test_dot2_cross2_match_slice_composite_bitwise():
    rng = np.random.default_rng(12)
    upstream = rng.normal(size=(7, 1))
    for fused, composite in ((ag.dot2, _composite_dot2), (rc.cross2, _composite_cross2)):
        for _ in range(20):
            a, b = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
            _assert_bitwise(fused(a, b), composite(a, b))  # raw path
            results = []
            for op in (fused, composite):
                tape = Tape()
                an, bn = tape.param(a), tape.param(b)
                out = op(an, bn)
                tape.backward(ag.asum(rc.mul(out, upstream)))
                results.append((out.value, an.grad, bn.grad))
            for got, want in zip(*results):
                _assert_bitwise(got, want)


# ---------------------------------------------------------------------------
# Fused nodes against the chains of primitives they replace, byte for byte.
# ---------------------------------------------------------------------------

def _fused_mlp(flat, shapes, x, out_scale=0.7):
    return ag.tanh_mlp(flat, shapes, x, out_scale)


def _fused_fov(pos_obs, vel_obs, pos_target, fov=np.pi / 2, sigma2_base=0.01, c_scale=5.0):
    return ag.fov_variance(pos_obs, vel_obs, pos_target, fov, sigma2_base, c_scale)


def _fused_trimmed(mu, var, eps, lo=-5.0, hi=5.0):
    return ag.trimmed_gauss(mu, var, eps, lo, hi)


def _fused_barrier(x, scale=1.0, shift=-5.0, weight=10.0):
    return ag.soft_barrier(x, scale, shift, weight)


def _fused_clamped_add(a, b, lo=-0.3, hi=0.3):
    return ag.clamped_add(a, b, lo, hi)


OBSTACLES = np.array([[1.8, 1.2, 0.7], [-1.8, -1.2, 0.7], [0.3, -0.4, 0.5]])


def _fused_occlusion(var, pos_obs, pos_target, obstacles, temp=10.0, c_scale=5.0):
    return ag.occluded_variance(var, pos_obs, pos_target, obstacles, temp, c_scale)


def _fused_obstacle_penalty(r, pos, obstacles, weight=10.0):
    return ag.obstacle_penalty(r, pos, obstacles, weight)


def _taped_run(op, values, lifted, seed):
    """``op`` on a tape whose operands at positions ``lifted`` are interior
    nodes (a leaf times 1.0, signed zeros kept) that a later node also reads,
    so the op's adjoints add to ones already there.  Returns the value and
    the leaves' adjoints."""
    tape = Tape()
    leaves = {i: tape.param(values[i]) for i in lifted}
    args = [rc.mul(leaves[i], 1.0) if i in leaves else v for i, v in enumerate(values)]
    out = op(*args)
    rng = np.random.default_rng(seed)
    root = ag.asum(rc.mul(out, rng.normal(size=out.shape)))
    for i in lifted:
        root = ag.add(root, ag.asum(rc.mul(args[i], rng.normal(size=args[i].shape))))
    tape.backward(root)
    return [out.value] + [leaves[i].grad for i in lifted]


def _assert_fused_matches_chain(fused, chain, values, lifted_sets, seed=0):
    """Equal bytes for the raw value, and for the taped value and adjoints
    with each set of operand positions lifted."""
    _assert_bitwise(fused(*values), chain(*values))
    for lifted in lifted_sets:
        for got, want in zip(_taped_run(fused, values, lifted, seed),
                             _taped_run(chain, values, lifted, seed)):
            _assert_bitwise(got, want)


def _nonempty_subsets(n):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n)]


def _assert_same_failure(fused, chain, values, lifted, op, node):
    """Both raise FloatingPointError: the chain naming its op ``op``, the
    fused node naming itself, ``node``."""
    for fn, source in ((fused, node), (chain, op)):
        with np.errstate(all="ignore"):
            tape = Tape()
            args = [tape.param(v) if i in lifted else v for i, v in enumerate(values)]
            with pytest.raises(FloatingPointError, match=f"in {source}$"):
                fn(*args)


def _mlp_params(rng, sizes, fan_in=False):
    """Layer shapes and a parameter vector for a network of ``sizes``: normal
    draws, each weight divided by sqrt(n_in) with ``fan_in``."""
    shapes = tuple(zip(sizes[1:], sizes[:-1]))
    params = []
    for n_out, n_in in shapes:
        w = rng.normal(size=(n_out, n_in))
        params += [(w / np.sqrt(n_in) if fan_in else w).ravel(), rng.normal(size=n_out)]
    return shapes, np.concatenate(params)


def test_tanh_mlp_matches_layer_chain_bitwise():
    """The fused network against per-layer slices of its parameter vector,
    one dense tanh node per layer: with the rows, the parameters or both on
    the tape.  At the benchmark's shapes (1000 rows, hidden (64, 64) on a
    36-wide window) it runs twice in a row, so the second run goes through
    warm work arrays."""
    rng = np.random.default_rng(20)
    shapes, flat = _mlp_params(rng, (5, 7, 6, 3))
    cases = [(shapes, flat, rng.normal(size=(4, 5))),   # batched
             (shapes, flat, rng.normal(size=(1, 5)))]   # one row
    wide_shapes, wide_flat = _mlp_params(rng, (36, 64, 64, 2), fan_in=True)
    cases += [(wide_shapes, wide_flat, rng.normal(size=(1000, 36)))] * 2
    for shapes, flat, x in cases:
        _assert_fused_matches_chain(lambda p, v: _fused_mlp(p, shapes, v),
                                    lambda p, v: rc.chain_mlp(p, shapes, v),
                                    [flat, x], _nonempty_subsets(2))


def _policy_tape(flat, shapes, x, seed):
    """A tape holding the network on rows ``x``, both operands lifted, and a
    random weighted sum of its outputs: ``(tape, root, leaves)``."""
    tape = Tape()
    flat_leaf, x_leaf = tape.param(flat), tape.param(x)
    out = ag.tanh_mlp(flat_leaf, shapes, x_leaf, 0.7)
    root = ag.asum(rc.mul(out, np.random.default_rng(seed).normal(size=out.value.shape)))
    return tape, root, (flat_leaf, x_leaf)


def test_tanh_mlp_adjoints_never_alias_work_arrays():
    """Two k = 1000 sweeps in turn, on different rows: the second reuses the
    work arrays, and leaves the first tape's adjoints of ``flat`` and ``x``
    as they were."""
    rng = np.random.default_rng(23)
    shapes, flat = _mlp_params(rng, (36, 64, 64, 2), fan_in=True)
    sweeps = []
    for seed in (0, 1):
        tape, root, leaves = _policy_tape(flat, shapes, rng.normal(size=(1000, 36)), seed)
        tape.backward(root)
        sweeps.append((leaves, [leaf.grad.copy() for leaf in leaves]))
    (first, kept), (second, _) = sweeps
    for leaf, before, other in zip(first, kept, second):
        _assert_bitwise(leaf.grad, before)
        assert not np.array_equal(leaf.grad, other.grad)


def test_tanh_mlp_backward_allocates_only_what_it_keeps():
    """From the second sweep on, a k = 1000 backward through the policy
    network peaks less than one (1000, 64) temporary above the memory it
    keeps (the adjoints on the nodes): its temporaries live in work arrays."""
    rng = np.random.default_rng(24)
    shapes, flat = _mlp_params(rng, (36, 64, 64, 2), fan_in=True)
    for sweep in range(3):
        tape, root, _ = _policy_tape(flat, shapes, rng.normal(size=(1000, 36)), sweep)
        tracemalloc.start()
        try:
            tape.backward(root)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if sweep > 0:
            assert peak - kept < 1000 * 64 * 8, (peak - kept, kept)


def test_fov_variance_matches_chain_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(10):
        values = [rng.normal(size=(6, 2)) for _ in range(3)]
        _assert_fused_matches_chain(_fused_fov, rc.chain_fov, values, _nonempty_subsets(3))


def test_bearing_at_rest_follows_signed_zeros():
    """A resting observer against displacements of every sign: the fused
    variance equals the chain bit for bit, raw and taped, and is the
    variance at bearing pi exactly when the target lies in the observer's
    third quadrant (atan2(+0, -0) = pi)."""
    pos = np.array([[0.4, -0.2]])
    behind = rc.chain_fov(pos, np.array([[1.0, 0.0]]), pos - np.array([[1.0, 0.0]]))
    for vel in (np.zeros((1, 2)), np.array([[-0.0, 0.0]])):
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                target = pos + np.array([[sx * 1.3, sy * 0.7]])
                values = [pos, vel, target]
                _assert_fused_matches_chain(_fused_fov, rc.chain_fov, values,
                                            _nonempty_subsets(3))
                if vel[0, 0] == 0.0 and not np.signbit(vel[0, 0]):
                    third = sx < 0 and sy < 0
                    want = behind.item() if third else 0.01
                    assert _fused_fov(*values).item() == pytest.approx(want, rel=1e-12)


def test_trimmed_gauss_matches_chain_bitwise():
    rng = np.random.default_rng(22)
    for _ in range(10):
        mu = rng.normal(size=(6, 2)) * 3.0
        var = rng.uniform(0.01, 12.0, size=(6, 1))
        eps = rng.normal(size=(6, 2))
        # every subset of (mu, var) lifted; the noise is raw
        _assert_fused_matches_chain(_fused_trimmed, rc.chain_trimmed, [mu, var, eps],
                                    _nonempty_subsets(2))
    tape = Tape()
    with pytest.raises(TypeError):   # noise on the tape is not a draw's operand
        _fused_trimmed(tape.param(mu), var, tape.param(eps))


def test_soft_barrier_matches_chain_bitwise():
    rng = np.random.default_rng(23)
    for scale, shift in ((1.0, -5.0), (-1.0, 0.7)):
        def fused(x):
            return _fused_barrier(x, scale, shift)

        def chain(x):
            return rc.chain_barrier(x, scale, shift)

        for _ in range(10):
            _assert_fused_matches_chain(fused, chain, [rng.normal(size=(6, 2)) * 4.0], [[0]])
        _assert_fused_matches_chain(fused, chain, [np.zeros((2, 2))], [[0]])


def _sight_lines(rng, k):
    """Observer and target positions: random rows, then coincident players
    (squared length 1e-9), a target and an observer on obstacle centres, and
    coincident players on signed zeros."""
    a, b = rng.normal(size=(k, 2)) * 2.0, rng.normal(size=(k, 2)) * 2.0
    special_a = [a[0], a[1], OBSTACLES[2, :2], [0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0]]
    special_b = [a[0], OBSTACLES[0, :2], b[2], [-0.0, -0.0], [0.0, 0.0], [0.0, -0.0]]
    return np.vstack([a, special_a]), np.vstack([b, special_b])


def test_occluded_variance_matches_chain_bitwise():
    rng = np.random.default_rng(26)
    for obstacles in (OBSTACLES, OBSTACLES[:1]):
        def fused(var, a, b):
            return _fused_occlusion(var, a, b, obstacles)

        def chain(var, a, b):
            return rc.chain_occlusion(var, a, b, obstacles)

        for _ in range(6):
            a, b = _sight_lines(rng, 6)
            var = rng.uniform(0.01, 12.0, size=(len(a), 1))
            _assert_fused_matches_chain(fused, chain, [var, a, b], _nonempty_subsets(3))


def test_occluded_variance_signed_zero_adjoints_match_chain():
    """With a zero adjoint arriving, every adjoint the node sends is a signed
    zero, and on axis-aligned sight lines the sign of the projection's row
    sum (numpy sums (-0, -0) to +0) reaches the positions' adjoints."""
    var = np.array([[0.5]])
    cases = [([[-0.0, 0.5]], [[0.5, 0.5]], [[0.0, 0.0, 0.5]], 5.0, 0.0, [1, 2]),
             ([[0.0, -0.5]], [[0.0, 1.0]], [[-0.3, 0.0, 0.5]], 5.0, 0.0, [2]),
             ([[1.0, 0.0]], [[1.0, 1.0]], [[0.3, 0.0, 0.5]], -0.0, -0.0, [1, 2]),
             ([[-0.5, 1.0]], [[1.0, 1.0]], [[-0.3, 0.0, 0.5]], 0.0, 1.0, [2])]
    for a, b, obstacles, c_scale, upstream, lifted in cases:
        grads = []
        for op in (_fused_occlusion, rc.chain_occlusion):
            tape = Tape()
            values = [var, np.array(a), np.array(b)]
            args = [tape.param(v) if i in lifted else v for i, v in enumerate(values)]
            out = op(*args, obstacles=np.array(obstacles), c_scale=c_scale)
            tape.backward(ag.asum(rc.mul(out, upstream)))
            grads.append([args[i].grad for i in lifted])
        for got, want in zip(*grads):
            _assert_bitwise(got, want)


def test_obstacle_penalty_matches_chain_bitwise():
    rng = np.random.default_rng(27)
    for obstacles in (OBSTACLES, OBSTACLES[1:2]):
        def fused(r, pos):
            return _fused_obstacle_penalty(r, pos, obstacles)

        def chain(r, pos):
            return rc.chain_obstacle_penalty(r, pos, obstacles)

        for _ in range(6):
            pos = np.vstack([rng.normal(size=(6, 2)) * 2.0, obstacles[:, :2],
                             [[-0.0, -0.0], [0.0, -0.0]]])
            r = rng.normal(size=(len(pos), 1))
            _assert_fused_matches_chain(fused, chain, [r, pos], _nonempty_subsets(2))


def test_shift_matches_slice_concat_bitwise():
    rng = np.random.default_rng(28)
    for window, obs in ((rng.normal(size=(5, 12)), rng.normal(size=(5, 4))),
                        (rng.normal(size=12), rng.normal(size=4)),
                        (rng.normal(size=(3, 0)), rng.normal(size=(3, 0)))):
        _assert_fused_matches_chain(ag.shift_last, rc.chain_shift, [window, obs],
                                    _nonempty_subsets(2))


def test_norm_eps_and_soft_barrier_match_row_sums_bitwise():
    """On coordinate columns, the norm of planar rows and the barrier built
    on it keep the bits of their row-sum forms."""
    rng = np.random.default_rng(29)
    rows = [rng.normal(size=(8, 2)) * 3.0, np.array([[0.0, -0.0], [-0.0, -0.0], [1e-160, 0.0]]),
            rng.normal(size=2)]
    for x in rows:
        _assert_fused_matches_chain(ag.norm_eps, rc.row_sum_norm_eps, [x], [[0]])
        if x.ndim == 2:
            _assert_fused_matches_chain(
                lambda v: _fused_barrier(v, -1.0, 0.7),
                lambda v: rc.chain_barrier(v, -1.0, 0.7, norm=rc.row_sum_norm_eps), [x], [[0]])


def test_clamped_add_matches_chain_bitwise():
    rng = np.random.default_rng(24)
    for _ in range(10):
        values = [rng.normal(size=(6, 2)) * 0.3, rng.normal(size=(6, 2)) * 0.6]
        _assert_fused_matches_chain(_fused_clamped_add, rc.chain_clamped_add, values,
                                    _nonempty_subsets(2))


def test_fused_nodes_raise_where_their_chains_raise():
    """A planted non-finite intermediate raises FloatingPointError in the
    fused node, naming the node, where its chain raises it naming an op."""
    rng = np.random.default_rng(25)
    shapes = ((3, 2), (3, 3), (2, 3))
    w = [rng.normal(size=(3, 2)), rng.normal(size=3), rng.normal(size=(3, 3)),
         rng.normal(size=3), rng.normal(size=(2, 3)), rng.normal(size=2)]
    x = rng.normal(size=(4, 2))
    huge = list(w)
    huge[2] = np.full((3, 3), 1e308)         # the second pre-activation overflows
    flat, flat_huge = (np.concatenate([a.ravel() for a in p]) for p in (w, huge))

    def mlp(p, v, out_scale=0.7):
        return _fused_mlp(p, shapes, v, out_scale)

    def chain(p, v, out_scale=0.7):
        return rc.chain_mlp(p, shapes, v, out_scale)

    _assert_same_failure(mlp, chain, [flat_huge, x], [1], "dense_tanh", "tanh_mlp")
    _assert_same_failure(mlp, chain, [flat_huge, x], [0], "dense_tanh", "tanh_mlp")
    _assert_same_failure(lambda p, v: mlp(p, v, np.inf), lambda p, v: chain(p, v, np.inf),
                         [flat, x], [1], "affine", "tanh_mlp")

    pos, vel = np.array([[-1e308, 0.0]]), np.array([[0.3, 0.1]])
    far = np.array([[1e308, 0.0]])
    _assert_same_failure(_fused_fov, rc.chain_fov, [pos, vel, far], [0], "sub", "fov_variance")
    big = [np.zeros((1, 2)), np.array([[1e200, 1e200]]), np.array([[1e200, -1e200]])]
    _assert_same_failure(_fused_fov, rc.chain_fov, big, [1], "cross2", "fov_variance")
    big[1:] = np.array([[1e200, 1e-200]]), np.array([[1e200, 1e-200]])  # cross = 0
    _assert_same_failure(_fused_fov, rc.chain_fov, big, [1], "dot2", "fov_variance")

    def fov_inf(*v):
        return _fused_fov(*v, fov=np.inf)

    def chain_fov_inf(*v):
        return rc.chain_fov(*v, fov=np.inf)

    _assert_same_failure(fov_inf, chain_fov_inf, [pos * 0, vel, far * 0 + 1], [1], "affine",
                         "fov_variance")

    mu, eps = np.zeros((1, 2)), np.array([[1e200, 0.5]])
    _assert_same_failure(_fused_trimmed, rc.chain_trimmed, [mu, np.array([[-1.0]]), eps],
                         [1], "sqrt", "trimmed_gauss")
    _assert_same_failure(_fused_trimmed, rc.chain_trimmed, [mu, np.array([[1e300]]), eps],
                         [0], "gauss_reparam", "trimmed_gauss")
    _assert_same_failure(_fused_trimmed, rc.chain_trimmed, [mu, np.array([[1e300]]), eps],
                         [1], "gauss_reparam", "trimmed_gauss")
    _assert_same_failure(_fused_trimmed, rc.chain_trimmed,
                         [np.array([[1e308, 0.0]]), np.array([[1.0]]), np.array([[1e308, 0.0]])],
                         [0], "gauss_reparam", "trimmed_gauss")

    _assert_same_failure(_fused_barrier, rc.chain_barrier, [np.array([[1e200, 0.0]])], [0],
                         "norm_eps", "soft_barrier")

    def barrier_shift(v, shift):
        return _fused_barrier(v, shift=shift)

    def chain_shift(v, shift):
        return rc.chain_barrier(v, shift=shift)

    _assert_same_failure(barrier_shift, chain_shift, [np.array([[1e154, 0.0]]), 1e154], [0],
                         "square", "soft_barrier")
    _assert_same_failure(barrier_shift, chain_shift, [np.ones((1, 2)), -np.inf], [0], "affine",
                         "soft_barrier")
    _assert_same_failure(_fused_clamped_add, rc.chain_clamped_add,
                         [np.array([[1e308]]), np.array([[1e308]])], [0], "add", "clamped_add")


def test_sight_line_and_obstacle_nodes_raise_where_their_chains_raise():
    """A planted overflow or NaN raises FloatingPointError in the fused node,
    naming the node, where its chain raises it naming the op that raises
    first in the chain's order across obstacles."""
    zero, one = np.zeros((1, 2)), np.array([[1.0, 0.0]])
    var = np.array([[0.5]])

    def occlusion(obstacles, **kw):
        return (lambda *v: _fused_occlusion(*v, obstacles=obstacles, **kw),
                lambda *v: rc.chain_occlusion(*v, obstacles=obstacles, **kw), "occluded_variance")

    near = [0.3, 0.2, 0.5]
    cases = [
        (occlusion(OBSTACLES), [var, np.array([[-1e308, 0.0]]), np.array([[1e308, 0.0]])],
         [2], "sub"),
        (occlusion(OBSTACLES), [var, zero, np.array([[1e200, 0.0]])], [2], "dot2"),
        (occlusion(np.array([[1e308, 0.0, 1.0]])),
         [var, np.array([[-1e308, 0.0]]), np.array([[-1e308, 0.0]])], [1], "sub"),
        (occlusion(np.array([[1e155, 0.0, 1.0]])), [var, zero, np.array([[1e154, 0.0]])],
         [2], "dot2"),
        (occlusion(np.array([[1e305, 0.0, 1.0]])), [var, zero, np.array([[1e-5, 0.0]])],
         [1], "div"),
        (occlusion(np.array([[1e200, 0.0, 1.0]])), [var, zero, one], [2], "norm_eps"),
        (occlusion(np.array([[0.5, 0.0, np.inf]])), [var, zero, one], [1], "affine"),
        # the first obstacle's exp overflows before the second's dot2 does
        (occlusion(np.array([[0.5, 0.0, 1e300], [1e155, 0.0, 1.0]])),
         [var, zero, np.array([[1e154, 0.0]])], [2], "exp"),
        (occlusion(np.array([near]), c_scale=np.inf), [var, zero, one], [1], "affine"),
        (occlusion(np.array([near]), c_scale=1e308), [np.array([[1.7e308]]), zero, one], [0],
         "add"),
        # raw NaN operands against a taped one
        (occlusion(OBSTACLES), [var, zero, np.array([[np.nan, 0.0]])], [1], "sub"),
        (occlusion(OBSTACLES), [np.array([[np.nan]]), zero, one], [2], "add"),
    ]

    def penalty(obstacles, weight=10.0):
        return (lambda *v: _fused_obstacle_penalty(*v, obstacles=obstacles, weight=weight),
                lambda *v: rc.chain_obstacle_penalty(*v, obstacles=obstacles, weight=weight),
                "obstacle_penalty")

    r = np.array([[0.5]])
    cases += [
        (penalty(np.array([[-1e308, 0.0, 1.0]])), [r, np.array([[1e308, 0.0]])], [1], "sub"),
        (penalty(np.array([[1e200, 0.0, 1.0]])), [r, zero], [1], "norm_eps"),
        (penalty(np.array([[0.0, 0.0, np.inf]])), [r, zero], [1], "affine"),
        # the first obstacle's square overflows before the second's norm does
        (penalty(np.array([[0.0, 0.0, 1e155], [-1e200, 0.0, 1.0]])), [r, zero], [1], "square"),
        (penalty(np.array([[0.3, 0.2, 2.0]]), weight=1e308), [r, zero], [1], "affine"),
        (penalty(np.array([[0.3, 0.2, 2.0]]), weight=1e307), [np.array([[-1.7e308]]), zero], [0],
         "sub"),
        (penalty(OBSTACLES), [np.array([[np.nan]]), zero], [1], "sub"),
    ]
    for (fused, chain, node), values, lifted, op in cases:
        _assert_same_failure(fused, chain, values, lifted, op, node)


def test_fused_nodes_name_themselves_in_their_errors():
    """One call, ``Tape._record(value, op, vjp, checks=...)``, names and
    checks a node, so its errors name it.  ``check_finite`` is called only
    there and in ``tanh_mlp``'s pre-activation loop, under the name
    ``tanh_mlp`` records.  Every other fused node passes ``_record`` the
    intermediates it checks, and slice, concat and shift pass none."""
    tree = ast.parse((SRC / "adgraph.py").read_text())
    functions = {fn.name: fn for node in tree.body
                 for fn in (node.body if isinstance(node, ast.ClassDef) else [node])
                 if isinstance(fn, ast.FunctionDef)}

    def calls(fn, callee):
        return [call for call in ast.walk(fn) if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == callee]

    assert {name for name, fn in functions.items() if calls(fn, "check_finite")} == {
        "_record", "tanh_mlp"}
    (pre,) = calls(functions["tanh_mlp"], "check_finite")
    (record,) = calls(functions["tanh_mlp"], "_record")
    assert pre.args[1].value == record.args[1].value == "tanh_mlp"
    for name in ("clamped_add", "fov_variance", "trimmed_gauss", "soft_barrier",
                 "obstacle_penalty", "occluded_variance", "concat", "slice_last", "shift_last"):
        (record,) = calls(functions[name], "_record")
        assert [kw.arg for kw in record.keywords] == ["checks"], name
        if name in ("concat", "slice_last", "shift_last"):
            assert ast.literal_eval(record.keywords[0].value) == (), name


def test_sight_line_soft_min_underflow_raises_like_log():
    """Obstacles far off every sight line underflow the soft-min sum to 0.
    The chain raises ``log``'s ValueError, on the raw and on the taped path.
    The fused node raises FloatingPointError when a position is on the tape,
    which a solve records as an abort; otherwise it returns the variance of
    a clear line, ``var`` itself."""
    far = np.array([[1000.0, 1000.0, 1.0], [-1000.0, 1000.0, 1.0]])
    values = [np.array([[0.5]]), np.zeros((1, 2)), np.array([[1.0, 0.0]])]
    with pytest.raises(ValueError, match="log of non-positive value"):
        rc.chain_occlusion(*values, obstacles=far)
    _assert_bitwise(_fused_occlusion(*values, obstacles=far), values[0])
    for lifted in _nonempty_subsets(3):
        tape = Tape()
        args = [tape.param(v) if i in lifted else v for i, v in enumerate(values)]
        with pytest.raises(ValueError, match="log of non-positive value"):
            rc.chain_occlusion(*args, obstacles=far)
        if lifted == [0]:   # only var is on the tape
            _assert_bitwise(_fused_occlusion(*args, obstacles=far).value, values[0])
        else:
            with pytest.raises(FloatingPointError, match="in occluded_variance$"):
                _fused_occlusion(*args, obstacles=far)


def test_fd_concat_slice_sum_axis():
    def f(x):
        a = ag.slice_last(x, 0, 2)
        b = ag.slice_last(x, 2, 5)
        joined = ag.concat([rc.square(a), rc.tanh(b)])
        return ag.asum(rc.mul(joined, joined))

    _fd_check(f, 5)

    def f_axis(x):
        if isinstance(x, ag.Node):
            rows = ag.concat([ag.slice_last(x, 0, 3), ag.slice_last(x, 3, 6)])
            return ag.asum(rc.square(rc.sum_axis(rc.tanh(rows), -1)))
        v = np.tanh(np.concatenate([x[0:3], x[3:6]]))
        return float(np.sum(v)) ** 2

    _fd_check(f_axis, 6, points=20)


def test_fd_gauss_reparam():
    eps = np.random.default_rng(5).normal(size=(1, 2))

    def f(x):
        mu = ag.slice_last(x, 0, 2)
        sigma = rc.softplus(ag.slice_last(x, 2, 3))
        z = ag.gauss_reparam(mu, sigma, eps[0])
        return ag.asum(rc.square(z))

    _fd_check(f, 3)


def test_fd_synthetic_depth6_rollout_with_network():
    """Random two-hidden-layer net driving a 6-step nonlinear recursion."""
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(4, 2)) * 0.7
    w2 = rng.normal(size=(4, 4)) * 0.7
    w3 = rng.normal(size=(2, 4)) * 0.7
    b1, b2, b3 = rng.normal(size=4) * 0.1, rng.normal(size=4) * 0.1, rng.normal(size=2) * 0.1
    params = np.concatenate([w1.ravel(), b1, w2.ravel(), b2, w3.ravel(), b3])
    eps = rng.normal(size=(6, 2))

    def f(x):
        state = rc.reshape(x, (1, 2))   # one row
        total = None
        for t in range(6):
            act = ag.tanh_mlp(params, ((4, 2), (4, 4), (2, 4)), state, 0.3)
            state = ag.add(state, rc.smooth_clamp(act, -0.25, 0.25))
            state = ag.gauss_reparam(state, rc.smooth_abs(ag.norm_eps(state)), eps[t])
            step_cost = ag.asum(rc.square(state))
            total = step_cost if total is None else ag.add(total, step_cost)
        return total if isinstance(x, ag.Node) else float(np.asarray(total))

    worst = 0.0
    rng2 = np.random.default_rng(8)
    for _ in range(20):
        worst = max(worst, grad_check(f, rng2.normal(size=2), h=1e-4))
    assert worst < 1e-4
