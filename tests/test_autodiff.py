import ast
import gc
import importlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import mlcorr, recon, solver
from conftest import (amax, amin, finite_diff_grad, matmul, mean, minimum, seeded_network_params,
                      tanh)


def check_vjp(build, *x0s, rtol=1e-8, rel_step=1e-6):
    """FD check of d(sum(r * op(x, ...)))/dx for a random projection r and
    each traced operand x of ``build``.

    Error is measured relative to the gradient scale so the tolerance is
    not dominated by subtraction noise on near-zero entries; any wrong
    adjoint shows up at O(1) on this scale.
    """
    x0s = [np.asarray(x0, dtype=np.float64) for x0 in x0s]
    r = np.random.default_rng(7).normal(size=np.shape(build(*x0s)))

    tape = ad.Tape()
    xvs = [tape.var(x0) for x0 in x0s]
    out = ad.sum(ad.multiply(r, build(*xvs)))
    tape.backward([(out, np.array(1.0))])

    for k, (xv, x0) in enumerate(zip(xvs, x0s)):
        def scalar(x):
            return float(np.sum(r * build(*x0s[:k], x, *x0s[k + 1:])))

        g_fd = finite_diff_grad(scalar, x0, rel_step=rel_step)
        assert xv.grad.shape == x0.shape
        scale = max(float(np.max(np.abs(g_fd))), 1e-12)
        assert np.max(np.abs(xv.grad - g_fd)) / scale < rtol


RNG = np.random.default_rng(42)
X = RNG.uniform(0.5, 2.0, (4, 3))
Y = RNG.uniform(0.5, 2.0, (4, 3))
# unit normals of three faces, for the flux: X and Y are admissible primitive
# face states (rho, u, v, p), one face per column
NORMALS = np.array([np.cos([0.3, 2.0, 4.4]), np.sin([0.3, 2.0, 4.4])])
# the network on two cells: its stencil angles, and a projection that moves
# every parameter with X
NET = seeded_network_params()
ANGLES = np.array([[2.0, 1.7], [2.1, 2.4], [2 * np.pi - 4.1, 2 * np.pi - 4.1]])
PROJ = np.random.default_rng(45).normal(0.0, 0.05, (NET.count, 12))


class _LimiterCells:
    """What the limiter reads of a mesh, for three cells: its smoothing term."""

    @staticmethod
    def limiter_omega(k):
        return (k * np.array([0.02, 0.05, 0.03])) ** 3


# the limiter on three cells: neighbour values, and face increments of both signs
NB = np.stack([Y, X * Y, 2.5 - X], axis=1)
DELTA = np.stack([X - 1.2, Y - X, 0.3 * X - 0.4], axis=1)


def _moved(params, x):
    """params whose vector moves with X along PROJ, traced with x."""
    return params.with_values(params.values + matmul(PROJ, ad.reshape(x, (12,))))


# one case or more for every public function of the package that records a
# node (test_every_recording_function_has_a_gradient_case)
PRIMITIVE_CASES = [
    lambda x: x + Y,
    lambda x: Y - x,
    lambda x: x * Y,
    lambda x: x / Y,
    lambda x: Y / x,
    lambda x: -x,
    lambda x: ad.power(x, 3),
    lambda x: ad.sqrt(x),
    lambda x: ad.log(x),
    lambda x: ad.absolute(x - 1.2),
    lambda x: ad.maximum(x, Y),
    lambda x: minimum(x, Y),
    lambda x: ad.where(Y > 1.0, x, 2.0 * x),
    lambda x: ad.sum(x, axis=1, keepdims=True) + x,
    lambda x: mean(x, axis=0),
    lambda x: matmul(x, Y.T),
    lambda x: matmul(Y.T, x),
    lambda x: ad.transpose(x),
    lambda x: ad.reshape(x, (2, 6)),
    lambda x: x[1:, :2],
    lambda x: ad.concatenate([x, 2.0 * x], axis=0),
    lambda x: ad.stack([x, x * Y], axis=1),
    lambda x: ad.take_rows(ad.transpose(x), np.array([2, 0, 0, 3, 1])),
    lambda x: ad.take_rows(ad.transpose(x), np.array([[2, 0, 6], [5, 1, 6]]), 2.0 * x[:3]),
    lambda x: ad.take_rows(x, np.array([2, 0, 0, 1])) * ad.take_rows(Y, np.array([3, 4, 1, 5]), x),
    lambda x: amax(x, axis=1),
    lambda x: amin(x, axis=0),
    lambda x: ad.segment_sum(ad.transpose(x), np.array([1, 0, 1, 2]), 3),
    lambda x: ad.einsum("ij,ik->jk", x, Y),
    lambda x: ad.einsum("nj,njv->nv", Y, ad.stack([x, x * x], axis=2)),
    lambda x: ad.einsum("ij,ij->i", x, x * Y),
    lambda x: solver.rusanov_flux(ad.stack([x, Y], axis=1), NORMALS)[0],
    lambda x: solver.rusanov_flux(ad.stack([Y * x, x], axis=1), NORMALS)[0],
    lambda x: mlcorr.network_forward(NET, ad.stack([x, x * Y], axis=2), ANGLES),
    lambda x: mlcorr.network_forward(_moved(NET, x), np.stack([X, Y], axis=2), ANGLES),
    lambda x: mlcorr.network_forward(_moved(NET, x), ad.stack([x, Y], axis=2), ANGLES),
    lambda x: recon.venkat_limiter(_LimiterCells, Y, NB,
                                   ad.stack([x - 1.2, Y - x, 0.3 * x - 0.4], axis=1)),
    lambda x: recon.venkat_limiter(_LimiterCells, x, NB, DELTA),
    lambda x: recon.venkat_limiter(_LimiterCells, x, ad.stack([Y, x * Y, 2.5 - x], axis=1),
                                   ad.stack([x - 1.2, Y - x, 0.3 * x - 0.4], axis=1)),
]
PRIMITIVE_IDS = ["add", "rsub", "mul", "div", "rdiv", "neg", "pow", "sqrt", "log",
                 "abs", "max", "min", "where", "sum_keep", "mean",
                 "matmul_r", "matmul_l", "transpose", "reshape", "getitem", "concat",
                 "stack", "take_rows", "take_rows_more", "take_rows_more_only",
                 "amax", "amin", "segment_sum", "einsum_a", "einsum_b", "einsum_ab",
                 "rusanov_l", "rusanov_lr", "network_du", "network_vec", "network_du_vec",
                 "limiter_delta", "limiter_u", "limiter_all"]


@pytest.mark.parametrize("build", PRIMITIVE_CASES, ids=PRIMITIVE_IDS)
def test_primitive_gradients(build):
    check_vjp(build, X)


# both operands traced and broadcast against each other, so each adjoint
# must be reduced to its own operand's shape
A = np.random.default_rng(43).uniform(0.5, 2.0, (4, 1))
B = np.random.default_rng(44).uniform(0.5, 2.0, (1, 3))


@pytest.mark.parametrize("build", [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    lambda a, b: ad.maximum(a, b),
    lambda a, b: minimum(a, b),
    lambda a, b: ad.where(X > 1.2, a, b),
    lambda a, b: matmul(ad.reshape(a, (4, 1, 1)), b),
], ids=["add", "subtract", "multiply", "divide", "maximum", "minimum", "where", "matmul"])
def test_gradients_of_two_traced_broadcast_operands(build):
    check_vjp(build, A, B)


def _recording_functions():
    """(module, name) of the package's public functions that record a node:
    in ``autodiff`` those whose body names ``_record``, or a function that
    does; in every other module those that call ``autodiff._record``."""
    found = []
    for path in sorted(Path(ad.__file__).parent.glob("[!_]*.py")):
        funcs = [f for f in ast.parse(path.read_text()).body if isinstance(f, ast.FunctionDef)]
        if path.stem == "autodiff":
            names = {f.name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
                     for f in funcs}
            recording = {"_record"}
            while more := {f for f, used in names.items() if used & recording} - recording:
                recording |= more
        else:
            recording = {f.name for f in funcs if any(
                isinstance(n, ast.Attribute) and n.attr == "_record" for n in ast.walk(f))}
        found += [(path.stem, f) for f in sorted(recording) if not f.startswith("_")]
    return found


RECORDING = _recording_functions()


@pytest.mark.parametrize("module,name", RECORDING,
                         ids=[n if m == "autodiff" else f"{m}.{n}" for m, n in RECORDING])
def test_every_recording_function_has_a_gradient_case(module, name, monkeypatch):
    """A function counts as covered when one of test_primitive_gradients'
    cases calls it and it returns a traced value (the first of a tuple)."""
    covered = set()
    for mod_name, fn_name in RECORDING:
        mod = importlib.import_module(f"fvgrad.{mod_name}")

        def spy(*args, _fn=getattr(mod, fn_name), _key=(mod_name, fn_name), **kwargs):
            out = _fn(*args, **kwargs)
            if isinstance(out[0] if isinstance(out, tuple) else out, ad.Var):
                covered.add(_key)
            return out

        monkeypatch.setattr(mod, fn_name, spy)
    for build in PRIMITIVE_CASES:
        build(ad.Tape().var(X))
    assert (module, name) in covered


@pytest.mark.parametrize("spec", ["ij,jk->k", "ij,jk->ik,", "ii,ik->k", "ij,jk",
                                  "ij,jk,kl->il", "i...,ij->j"])
def test_einsum_rejects_specs_without_einsum_adjoints(spec):
    sq = RNG.normal(size=(3, 3))   # square, so numpy itself accepts most of these
    with pytest.raises(ValueError, match="einsum spec"):
        ad.einsum(spec, sq, sq)


def test_einsum_matches_numpy_untraced_and_traced():
    w = RNG.normal(size=(50, 3))
    x = RNG.normal(size=(50, 3, 4))
    expect = np.einsum("nj,njv->nv", w, x)
    assert (ad.einsum("nj,njv->nv", w, x) == expect).all()
    tape = ad.Tape()
    assert (ad.einsum("nj,njv->nv", w, tape.var(x)).value == expect).all()


def test_traced_mean_is_numpy_mean():
    x = RNG.normal(size=(200, 12))
    tape = ad.Tape()
    xv = tape.var(x)
    for axis, keepdims in ((1, True), (0, False), (None, False)):
        assert (mean(xv, axis=axis, keepdims=keepdims).value
                == np.mean(x, axis=axis, keepdims=keepdims)).all()


def test_quadratic_gradient_is_2p():
    p0 = np.array([0.5, -1.5, 2.0])
    loss, grad = ad.record_and_backprop(lambda p: ad.sum(p * p), p0)
    np.testing.assert_allclose(grad, 2 * p0, rtol=0, atol=0)
    assert loss == float(np.sum(p0 ** 2))


def test_broadcasting_unreduces_adjoints():
    a0 = np.array([[1.0], [2.0]])
    b0 = np.array([3.0, 4.0, 5.0])
    tape = ad.Tape()
    a = tape.var(a0)
    out = ad.sum(a * b0)
    tape.backward([(out, np.array(1.0))])
    np.testing.assert_allclose(a.grad, [[sum(b0)], [sum(b0)]])


def test_max_tie_takes_first_argument():
    tape = ad.Tape()
    a = tape.var(np.array([1.0]))
    b = tape.var(np.array([1.0]))
    out = ad.sum(ad.maximum(a, b))
    tape.backward([(out, np.array(1.0))])
    assert a.grad[0] == 1.0
    assert b.grad is None or b.grad[0] == 0.0


def test_min_tie_takes_first_argument():
    tape = ad.Tape()
    a = tape.var(np.array([2.0]))
    b = tape.var(np.array([2.0]))
    out = ad.sum(minimum(a, b))
    tape.backward([(out, np.array(1.0))])
    assert a.grad[0] == 1.0
    assert b.grad is None or b.grad[0] == 0.0


@pytest.mark.parametrize("op,np_op", [(ad.maximum, np.maximum), (minimum, np.minimum)],
                         ids=["maximum", "minimum"])
@pytest.mark.parametrize("traced_first", [True, False], ids=["traced_first", "traced_second"])
def test_traced_max_and_min_propagate_a_nan_as_numpy_does(op, np_op, traced_first):
    x = np.array([np.nan, 1.0, 2.0])
    tape = ad.Tape()
    v = tape.var(x)
    args = (v, 1.5) if traced_first else (1.5, v)
    expect = np_op(*(x if a is v else a for a in args))
    assert np.array_equal(ad.value_of(op(*args)), expect, equal_nan=True)
    assert np.isnan(expect[0])


def _extreme_cases():
    """(4, 3, 5) arrays with ties, signed zeros and NaNs along axis 1."""
    rng = np.random.default_rng(11)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(4, 3, 5))
    x[0, :, 0] = [np.nan, 1.0, 2.0]
    x[1, :, 1] = [1.0, np.nan, 0.0]
    x[2, :, 2] = [-0.0, 0.0, -0.0]
    return x


@pytest.mark.parametrize("name", ["amin", "amax"])
def test_an_extreme_over_an_axis_is_the_chain_of_pairwise_extremes(name):
    """amin / amax over axis 1 (``ad._first_extreme`` when traced) give the
    values of the chain minimum(minimum(x0, x1), x2) (maximum alike),
    untraced as numpy's and traced as the recorded chain's, bitwise with
    signed zeros and NaNs; the traced gradient equals the chain's bitwise,
    ties going to the first entry."""
    x = _extreme_cases()
    op, pair = (amin, minimum) if name == "amin" else (amax, ad.maximum)
    np_pair = np.minimum if name == "amin" else np.maximum
    chain = np_pair(np_pair(x[:, 0], x[:, 1]), x[:, 2])
    assert op(x, axis=1).tobytes() == chain.tobytes()
    g = np.random.default_rng(12).normal(size=(4, 5))
    results = []
    for build in (lambda v: op(v, axis=1), lambda v: pair(pair(v[:, 0], v[:, 1]), v[:, 2])):
        tape = ad.Tape()
        v = tape.var(x)
        out = build(v)
        tape.backward([(ad.sum(out * g), np.array(1.0))])
        results.append((out.value.tobytes(), v.grad.tobytes()))
    assert results[0] == results[1]


def test_take_rows_with_more_gathers_from_both_arrays_laid_end_to_end():
    """take_rows(a, idx, more) is take_rows(concatenate([a, more]), idx),
    untraced and traced, with both adjoints equal bitwise."""
    rng = np.random.default_rng(13)
    a, more = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
    idx = np.array([[7, 0, 2, 8], [1, 6, 6, 5]])
    joined = np.concatenate([a, more], axis=1)
    assert ad.take_rows(a, idx, more).tobytes() == joined.take(idx, axis=-1).tobytes()
    g = rng.normal(size=(4, 2, 4))
    grads = []
    for build in (lambda x, y: ad.take_rows(x, idx, y),
                  lambda x, y: ad.take_rows(ad.concatenate([x, y], axis=1), idx)):
        tape = ad.Tape()
        x, y = tape.var(a), tape.var(more)
        out = build(x, y)
        tape.backward([(ad.sum(out * g), np.array(1.0))])
        grads.append((out.value.tobytes(), x.grad.tobytes(), y.grad.tobytes()))
    assert grads[0] == grads[1]


def test_comparisons_return_plain_bools():
    tape = ad.Tape()
    a = tape.var(np.array([1.0, 3.0]))
    mask = a > 2.0
    assert isinstance(mask, np.ndarray) and mask.dtype == bool


@pytest.mark.parametrize("fn,bad", [
    (ad.log, np.array([1.0, -1.0])),
    (ad.sqrt, np.array([0.0, 1.0])),
], ids=["log_nonpos", "sqrt_nonpos"])
def test_domain_errors_during_recording(fn, bad):
    tape = ad.Tape()
    x = tape.var(bad)
    with pytest.raises(ad.TraceError):
        fn(x)


def test_divide_by_zero_during_recording():
    tape = ad.Tape()
    x = tape.var(np.array([1.0, 0.0]))
    with pytest.raises(ad.TraceError):
        ad.divide(1.0, x)


def test_recording_is_deterministic():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=50)
    mat = rng.normal(size=(50, 50))

    def program(p):
        h = tanh(matmul(mat, p))
        return ad.sum(h * h) + ad.sum(ad.absolute(p))

    l1, g1 = ad.record_and_backprop(program, p0)
    l2, g2 = ad.record_and_backprop(program, p0)
    assert l1 == l2
    assert (g1 == g2).all()


# ---------------------------------------------------------------------------
# tape lifetime and adjoint accumulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("program", [
    lambda h: ad.sum(h * h),
    lambda h: ad.sqrt(h - h),        # raises TraceError while recording
], ids=["returns", "raises"])
def test_record_and_backprop_frees_its_tape(program):
    # weakrefs the program takes to its tape and to an intermediate's value
    refs = []

    def traced(p):
        h = tanh(p) * 2.0
        refs.extend([weakref.ref(p.tape), weakref.ref(h.value)])
        return program(h)

    enabled = gc.isenabled()
    gc.disable()        # only reference counting may free them
    try:
        try:
            ad.record_and_backprop(traced, np.linspace(0.5, 1.5, 6))
        except ad.TraceError:
            pass
        assert len(refs) == 2 and all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


def test_backward_leaves_the_seed_and_the_recorded_values_unchanged():
    # c's and a's first adjoint is the seed itself (add passes one g to both
    # operands); a then receives c's adjoint, which must not write into it
    tape = ad.Tape()
    x = tape.var(X)
    x2 = x * 2.0
    r = ad.reshape(x2, (3, 4))
    a = ad.transpose(r)
    x3 = x * 3.0
    c = a + x3
    out = c + a
    recorded = [x, x2, r, a, x3, c, out]
    assert len(recorded) == tape.node_count
    seed = np.arange(12.0).reshape(4, 3)
    seed0 = seed.copy()
    values = [v.value.copy() for v in recorded]
    tape.backward([(out, seed)])
    assert (seed == seed0).all()
    assert all((v.value == v0).all() for v, v0 in zip(recorded, values))
    assert (x.grad == 3.0 * seed0 + 4.0 * seed0.T.reshape(4, 3)).all()


def test_adjoints_of_shared_operands_are_summed_exactly():
    # three consumers each of a leaf y and of a recorded node z; the sweep
    # frees z's summed adjoint once z has passed it on, so it is read in x's
    tape = ad.Tape()
    x = tape.var(np.array([0.5, 1.0, 3.0]))
    y = tape.var(np.array([2.0, -1.0, 0.25]))
    z = x * 1.0
    outs = [ad.sum(v * c) for v in (y, z) for c in (2.0, 4.0, 8.0)]
    total = outs[0] + outs[1] + outs[2] + outs[3] + outs[4] + outs[5] + ad.sum(x * x)
    tape.backward([(total, np.array(1.0))])
    assert (y.grad == np.full(3, 14.0)).all()
    assert (x.grad == 14.0 + 2.0 * x.value).all()


def test_backward_frees_non_leaf_adjoints_and_closures():
    tape = ad.Tape()
    x = tape.var(X)
    y = tape.var(Y)
    xy = x * y
    h = tanh(xy)
    unused = ad.sqrt(y)                  # recorded, but receives no adjoint
    hh = h * h
    hy = ad.maximum(h, y)
    s1 = hh + hy
    s2 = s1 + x
    out = ad.sum(s2)
    recorded = [xy, h, unused, hh, hy, s1, s2, out]
    assert len(recorded) == tape.node_count - 2
    values = [v.value.copy() for v in [x, y] + recorded]
    tape.backward([(out, np.array(1.0))])
    th = np.tanh(X * Y)
    dh = 2.0 * th + (th >= Y)
    assert (x.grad == dh * (1.0 - th * th) * Y + 1.0).all()
    assert (y.grad == dh * (1.0 - th * th) * X + (th < Y)).all()
    assert all(v.grad is None and v.vjp is None for v in recorded)
    assert all((v.value == v0).all() for v, v0 in zip([x, y] + recorded, values))
    with pytest.raises(RuntimeError, match="once per tape"):
        tape.backward([(out, np.array(1.0))])
    assert (x.grad == dh * (1.0 - th * th) * Y + 1.0).all()


def test_the_tape_frees_a_value_that_no_adjoint_reads():
    # take_rows's adjoint reads only its index, and sum's only a shape, so
    # the gathered array dies with its Var, before the sweep
    idx = np.array([2, 0, 0, 3, 1, 2])
    tape = ad.Tape()
    x = tape.var(X.T)
    gathered = ad.take_rows(x, idx)
    ref = weakref.ref(gathered.value)
    out = ad.sum(gathered)
    del gathered
    assert ref() is None
    tape.backward([(out, np.array(1.0))])
    assert _bitwise(x.grad, _loop_scatter(idx, np.ones((6, 3)), 4).T)


def test_the_tape_keeps_a_value_that_an_adjoint_reads_until_the_sweep():
    # y's adjoint in h * y reads h's value: it lives after its Var is
    # dropped, until the sweep has run that adjoint
    tape = ad.Tape()
    x = tape.var(X)
    y = tape.var(Y)
    h = x + 1.0
    ref = weakref.ref(h.value)
    out = ad.sum(h * y)
    del h
    assert ref() is not None
    tape.backward([(out, np.array(1.0))])
    assert ref() is None
    assert (y.grad == X + 1.0).all() and (x.grad == Y).all()


# ---------------------------------------------------------------------------
# gather / scatter-add along the last axis against explicit loops over rows
# of the transposed arrays, with repeated indices
# ---------------------------------------------------------------------------

@pytest.fixture
def scatter_case(rng):
    """Repeated indices, two rows (40, 41) that receive nothing, one row (39)
    that receives only -0.0, and -0.0 scattered among the other values."""
    idx = rng.integers(0, 39, size=300)
    vals = rng.normal(size=(300, 4))
    vals[::9] = -0.0
    idx = np.concatenate([idx, [39, 39]])
    vals = np.vstack([vals, np.full((2, 4), -0.0)])
    return idx, vals


def _loop_scatter(idx, vals, n_rows):
    out = np.zeros((n_rows,) + vals.shape[1:])
    for k, i in enumerate(idx):
        out[i] += vals[k]
    return out


def _bitwise(a, b):
    return a.shape == b.shape and (a == b).all() and (np.signbit(a) == np.signbit(b)).all()


def test_segment_sum_matches_loop_oracle(scatter_case):
    idx, vals = scatter_case
    expect = _loop_scatter(idx, vals, 42)
    assert _bitwise(ad.segment_sum(vals.T, idx, 42), expect.T)
    assert _bitwise(ad.segment_sum(vals[:, 1], idx, 42), expect[:, 1])
    assert _bitwise(ad.segment_sum(vals.T.reshape(2, 2, -1), idx, 42),
                    expect.T.reshape(2, 2, -1))
    # a 2-D index scatters like its flattened form, as np.add.at does
    assert _bitwise(ad.segment_sum(vals.T.reshape(4, 2, -1), idx.reshape(2, -1), 42),
                    expect.T)

    # traced: same forward, and the adjoint gathers the seed rows
    tape = ad.Tape()
    v = tape.var(vals.T)
    out = ad.segment_sum(v, idx, 42)
    assert _bitwise(out.value, expect.T)
    seed = np.random.default_rng(3).normal(size=(42, 4))
    tape.backward([(out, seed.T)])
    expect_grad = np.array([seed[i] for i in idx])
    assert _bitwise(v.grad, expect_grad.T)


def test_segment_sum_rejects_out_of_range_index(scatter_case):
    idx, vals = scatter_case
    with pytest.raises(IndexError):
        ad.segment_sum(vals.T, idx, 30)


def test_take_rows_matches_loop_oracle(scatter_case):
    idx, vals = scatter_case
    src = vals[:42]
    expect = np.array([src[i] for i in idx])
    assert _bitwise(ad.take_rows(src.T, idx), expect.T)
    assert _bitwise(ad.take_rows(src[:, 0], idx), expect[:, 0])

    # traced: the adjoint adds every gathered entry's seed back onto its source
    tape = ad.Tape()
    s = tape.var(src.T)
    out = ad.take_rows(s, idx)
    assert _bitwise(out.value, expect.T)
    tape.backward([(out, vals.T)])
    assert _bitwise(s.grad, _loop_scatter(idx, vals, 42).T)
