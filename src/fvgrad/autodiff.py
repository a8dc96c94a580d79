"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records array operations as they execute; ``Tape.backward``
replays them in reverse, accumulating adjoints.  Operations are exposed as
module-level functions (``sqrt``, ``where``, ``segment_sum``, ...) that
accept either plain numpy arrays or traced ``Var`` objects, so the same
solver code runs untraced (fast path) or traced (training path).

Differentiable primitive set: + - * / ** sqrt log tanh abs min max,
``where`` with a non-differentiated condition, reductions, matmul, the
two-operand contraction ``einsum``, row gather/scatter and reshaping.
Nondifferentiable points follow the taken-branch convention:
``maximum``/``minimum`` send the adjoint to the first argument at ties,
``where`` follows its condition, ``abs`` uses the sign (zero at zero).
Comparisons on traced values return plain boolean arrays, i.e. branches are
frozen at the recorded values.

Mesh values move through two primitives, each the other's adjoint.  Both
work along the last axis, which is the cell (or face) axis of every per-cell
array in the solver: ``take_rows`` gathers with ``np.take(a, idx, axis=-1)``,
and ``segment_sum`` scatter-adds with one ``np.bincount(idx, weights=row)``
per leading row.  bincount starts every output entry at 0.0 and adds the
values of its repeated indices in index order, the order ``np.add.at`` into
zeros uses, so the sums are bitwise those of an explicit loop (an entry that
receives only -0.0 reads +0.0).  Both take any leading shape.

``einsum(spec, a, b)`` contracts two operands under an explicit
``"ab,bc->ac"`` spec.  Its adjoints are einsums too, so every index of an
operand must appear in the other operand or in the output; a stencil sum
such as ``einsum("jn,vjn->vn", w, x)`` is ``sum(w * x, axis=1)`` without the
broadcast temporary.

All values and adjoints are float64.  Recording the same program twice
yields bitwise-identical gradients.

Lifetime.  ``Tape.backward`` runs once per tape.  The reverse sweep drops
each recorded node's closure and adjoint as soon as it has propagated them,
so it holds the recorded values and only the adjoints still to be
propagated.  Leaves (``Tape.var``) keep their ``.grad``; a recorded node's
``.grad`` and ``.vjp`` read ``None`` after the sweep.  A second sweep would
find no closures and propagate nothing, so it raises.
Each ``Var`` holds its ``Tape`` and the tape's ``nodes`` list holds every
``Var``, a reference cycle.  ``record_and_backprop`` owns its tape and clears
``nodes`` when it returns or raises, so the sample's values are freed by
reference counting, without waiting for the cyclic collector.  A ``Tape``
you build yourself, with its recorded values, lives as long as you hold it.
A node keeps the first adjoint it receives as given, so one adjoint array may
be shared between nodes (``add`` passes one ``g`` to both operands,
``reshape`` and ``transpose`` pass views, a seed is the caller's array):
never write to ``.grad`` in place.
"""

import numpy as np


class TraceError(ValueError):
    """Domain error (zero divide, log/sqrt of non-positive) while recording."""

    def __init__(self, message, op, node_index):
        super().__init__(f"{message} (op={op}, node={node_index})")
        self.op = op
        self.node_index = node_index


class Tape:
    """Ordered record of one traced execution."""

    def __init__(self):
        self.nodes = []
        self.swept = False

    def var(self, value):
        """Create a root (leaf) variable whose gradient will be accumulated."""
        return Var(np.asarray(value, dtype=np.float64), self, None)

    @property
    def node_count(self):
        return len(self.nodes)

    def backward(self, seeds):
        """Run the reverse sweep from (var, adjoint) seed pairs, once per tape.

        Each recorded node's adjoint and closure are dropped once its
        ``vjp`` has run, so only leaves (``var``) keep a ``.grad``."""
        if self.swept:
            raise RuntimeError("backward runs once per tape")
        self.swept = True
        for v, g in seeds:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != v.value.shape:
                g = np.broadcast_to(g, v.value.shape).astype(np.float64)
            v._acc(g)
        for node in reversed(self.nodes):
            vjp, node.vjp = node.vjp, None
            if vjp is not None:
                g, node.grad = node.grad, None
                if g is not None:
                    vjp(g)


class Var:
    """Traced array: a value plus its position in the recording tape."""

    __slots__ = ("value", "grad", "vjp", "tape")

    # keep numpy from broadcasting a Var as an object scalar; binary ufuncs
    # then defer to the reflected dunders below
    __array_ufunc__ = None

    def __init__(self, value, tape, vjp):
        self.value = value
        self.grad = None
        self.vjp = vjp
        self.tape = tape
        tape.nodes.append(self)

    def _acc(self, g):
        # the first adjoint may be shared (module docstring), so it is kept
        # uncopied and each later one forms a fresh sum, never written in place
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    # arithmetic
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return negative(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, key):
        return getitem(self, key)

    # comparisons freeze branches: plain boolean arrays, never recorded
    def __lt__(self, other):
        return self.value < value_of(other)

    def __le__(self, other):
        return self.value <= value_of(other)

    def __gt__(self, other):
        return self.value > value_of(other)

    def __ge__(self, other):
        return self.value >= value_of(other)

    def __eq__(self, other):
        return self.value == value_of(other)

    def __ne__(self, other):
        return self.value != value_of(other)

    __hash__ = object.__hash__

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def value_of(x):
    """Underlying numpy value of a Var, or the input coerced to an array."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def _unbroadcast(g, shape):
    """Reduce an adjoint back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(tape, value, vjp):
    return Var(value, tape, vjp)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.add(a, b)
    av, bv = value_of(a), value_of(b)
    out = av + bv

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(g, av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(g, bv.shape))

    return _node(tape, out, vjp)


def subtract(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.subtract(a, b)
    av, bv = value_of(a), value_of(b)
    out = av - bv

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(g, av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(-g, bv.shape))

    return _node(tape, out, vjp)


def multiply(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.multiply(a, b)
    av, bv = value_of(a), value_of(b)
    out = av * bv

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(g * bv, av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(g * av, bv.shape))

    return _node(tape, out, vjp)


def divide(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.divide(a, b)
    av, bv = value_of(a), value_of(b)
    if np.any(bv == 0.0):
        raise TraceError("division by zero", "divide", len(tape.nodes))
    out = av / bv

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(g / bv, av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(-g * out / bv, bv.shape))

    return _node(tape, out, vjp)


def negative(a):
    if not isinstance(a, Var):
        return np.negative(a)
    out = -a.value

    def vjp(g):
        a._acc(-g)

    return _node(a.tape, out, vjp)


def power(a, exponent):
    """Elementwise power with a constant (non-traced) exponent."""
    if isinstance(exponent, Var):
        raise TypeError("traced exponents are not supported")
    if not isinstance(a, Var):
        return np.power(a, exponent)
    out = np.power(a.value, exponent)
    av = a.value

    def vjp(g):
        a._acc(g * exponent * np.power(av, exponent - 1))

    return _node(a.tape, out, vjp)


def sqrt(a):
    if not isinstance(a, Var):
        return np.sqrt(a)
    if np.any(a.value <= 0.0):
        raise TraceError("sqrt of non-positive value", "sqrt", len(a.tape.nodes))
    out = np.sqrt(a.value)

    def vjp(g):
        a._acc(g * (0.5 / out))

    return _node(a.tape, out, vjp)


def log(a):
    if not isinstance(a, Var):
        return np.log(a)
    if np.any(a.value <= 0.0):
        raise TraceError("log of non-positive value", "log", len(a.tape.nodes))
    out = np.log(a.value)
    av = a.value

    def vjp(g):
        a._acc(g / av)

    return _node(a.tape, out, vjp)


def tanh(a):
    if not isinstance(a, Var):
        return np.tanh(a)
    out = np.tanh(a.value)

    def vjp(g):
        a._acc(g * (1.0 - out * out))

    return _node(a.tape, out, vjp)


def absolute(a):
    if not isinstance(a, Var):
        return np.abs(a)
    out = np.abs(a.value)
    s = np.sign(a.value)

    def vjp(g):
        a._acc(g * s)

    return _node(a.tape, out, vjp)


def maximum(a, b):
    """Elementwise max; at ties the adjoint goes to the first argument."""
    tape = _tape_of(a, b)
    if tape is None:
        return np.maximum(a, b)
    av, bv = value_of(a), value_of(b)
    take_a = av >= bv
    out = np.where(take_a, av, bv)

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(np.where(take_a, g, 0.0), av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(np.where(take_a, 0.0, g), bv.shape))

    return _node(tape, out, vjp)


def minimum(a, b):
    """Elementwise min; at ties the adjoint goes to the first argument."""
    tape = _tape_of(a, b)
    if tape is None:
        return np.minimum(a, b)
    av, bv = value_of(a), value_of(b)
    take_a = av <= bv
    out = np.where(take_a, av, bv)

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(np.where(take_a, g, 0.0), av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(np.where(take_a, 0.0, g), bv.shape))

    return _node(tape, out, vjp)


def where(cond, a, b):
    """Select per element; cond is never differentiated."""
    cond = value_of(cond)
    tape = _tape_of(a, b)
    if tape is None:
        return np.where(cond, a, b)
    av, bv = value_of(a), value_of(b)
    out = np.where(cond, av, bv)

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(np.where(cond, g, 0.0), av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(np.where(cond, 0.0, g), bv.shape))

    return _node(tape, out, vjp)


# ---------------------------------------------------------------------------
# reductions and shaping
# ---------------------------------------------------------------------------

def _spread(g, axis, keepdims, shape):
    """Adjoint of a reduction over ``axis``: g broadcast back to ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).astype(np.float64)


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    if not isinstance(a, Var):
        return np.sum(a, axis=axis, keepdims=keepdims)
    out = np.sum(a.value, axis=axis, keepdims=keepdims)

    def vjp(g):
        a._acc(_spread(np.asarray(g), axis, keepdims, a.value.shape))

    return _node(a.tape, out, vjp)


def mean(a, axis=None, keepdims=False):
    """np.mean, traced or not: the traced value is np.mean's, bitwise."""
    if not isinstance(a, Var):
        return np.mean(a, axis=axis, keepdims=keepdims)
    out = np.mean(a.value, axis=axis, keepdims=keepdims)
    n = a.value.size // max(out.size, 1)

    def vjp(g):
        a._acc(_spread(np.asarray(g) / n, axis, keepdims, a.value.shape))

    return _node(a.tape, out, vjp)


def matmul(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.matmul(a, b)
    av, bv = value_of(a), value_of(b)
    out = av @ bv

    def vjp(g):
        if isinstance(a, Var):
            a._acc(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        if isinstance(b, Var):
            b._acc(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    return _node(tape, out, vjp)


def _einsum_terms(spec):
    """Split an explicit two-operand spec into its three index strings."""
    lhs, arrow, out = spec.replace(" ", "").partition("->")
    terms = lhs.split(",")
    if not arrow or len(terms) != 2 or not all(t.isalpha() for t in terms + [out] if t):
        raise ValueError(f"einsum spec must look like 'ab,bc->ac', got {spec!r}")
    sa, sb = terms
    for t, other in ((sa, sb), (sb, sa)):
        if len(set(t)) != len(t) or set(t) - set(other + out):
            raise ValueError(f"einsum spec {spec!r}: every index of {t!r} must appear "
                             "once in it and again in the other operand or the output")
    return sa, sb, out


def einsum(spec, a, b):
    """Two-operand contraction ``np.einsum(spec, a, b)``; both adjoints are
    einsums, e.g. for "nj,njv->nv" the adjoint of a is "nv,njv->nj"."""
    sa, sb, so = _einsum_terms(spec)
    tape = _tape_of(a, b)
    if tape is None:
        return np.einsum(spec, a, b)
    av, bv = value_of(a), value_of(b)
    out = np.einsum(spec, av, bv)

    def vjp(g):
        if isinstance(a, Var):
            a._acc(np.einsum(f"{so},{sb}->{sa}", g, bv))
        if isinstance(b, Var):
            b._acc(np.einsum(f"{so},{sa}->{sb}", g, av))

    return _node(tape, out, vjp)


def reshape(a, shape):
    if not isinstance(a, Var):
        return np.reshape(a, shape)
    old = a.value.shape
    out = a.value.reshape(shape)

    def vjp(g):
        a._acc(g.reshape(old))

    return _node(a.tape, out, vjp)


def transpose(a):
    """2-D transpose; the adjoint transposes back."""
    if not isinstance(a, Var):
        return np.asarray(a).T
    out = a.value.T

    def vjp(g):
        a._acc(g.T)

    return _node(a.tape, out, vjp)


def getitem(a, key):
    """Basic indexing (slices / ints), or an index array without repeats such
    as a permutation; the adjoint scatters into zeros."""
    if not isinstance(a, Var):
        return a[key]
    out = a.value[key]
    shape = a.value.shape

    def vjp(g):
        gz = np.zeros(shape, dtype=np.float64)
        gz[key] += g
        a._acc(gz)

    return _node(a.tape, out, vjp)


def concatenate(parts, axis=0):
    tape = _tape_of(*parts)
    if tape is None:
        return np.concatenate(parts, axis=axis)
    vals = [value_of(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Var):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                p._acc(g[tuple(sl)])

    return _node(tape, out, vjp)


def stack(parts, axis=0):
    tape = _tape_of(*parts)
    if tape is None:
        return np.stack(parts, axis=axis)
    vals = [value_of(p) for p in parts]
    out = np.stack(vals, axis=axis)

    def vjp(g):
        for k, p in enumerate(parts):
            if isinstance(p, Var):
                p._acc(np.take(g, k, axis=axis))

    return _node(tape, out, vjp)


# ---------------------------------------------------------------------------
# mesh primitives: gather and scatter-add along the last (cell) axis
# ---------------------------------------------------------------------------

def _scatter_rows(vals, idx, n):
    """Fresh (..., n) zeros with vals[..., k] added at idx[k], in order.

    ``idx`` spans the trailing axes of vals, which the scatter flattens as
    ``np.add.at`` does.  One bincount per leading row: each starts its
    entries at 0.0 and adds in index order, as ``np.add.at`` into zeros does,
    so the sums are bitwise equal to it."""
    lead = vals.shape[:vals.ndim - idx.ndim]
    rows = np.reshape(vals, (int(np.prod(lead)), idx.size))
    flat = idx.ravel()
    out = np.empty((rows.shape[0], n))
    for r in range(rows.shape[0]):
        row = np.bincount(flat, weights=rows[r], minlength=n)
        if row.shape[0] != n:
            raise IndexError(f"scatter index {flat.max()} out of range for {n} cells")
        out[r] = row
    return out.reshape(lead + (n,))


def take_rows(a, idx):
    """Gather a[..., idx] along the last axis; the adjoint is a scatter-add."""
    idx = np.asarray(idx)
    if not isinstance(a, Var):
        return np.take(a, idx, axis=-1)
    out = np.take(a.value, idx, axis=-1)
    n = a.value.shape[-1]

    def vjp(g):
        a._acc(_scatter_rows(g, idx, n))

    return _node(a.tape, out, vjp)


def segment_sum(vals, idx, n):
    """Scatter-add vals (..., K) into (..., n) at last-axis indices idx;
    the adjoint is a gather."""
    idx = np.asarray(idx)
    if not isinstance(vals, Var):
        return _scatter_rows(vals, idx, n)
    out = _scatter_rows(vals.value, idx, n)

    def vjp(g):
        vals._acc(np.take(g, idx, axis=-1))

    return _node(vals.tape, out, vjp)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def record_and_backprop(program, params):
    """Trace ``program(params_var)`` to a scalar and return (value, gradient).

    The gradient is exact reverse-mode differentiation of the recorded
    execution path with respect to every entry of ``params``.  The tape is
    freed when the call returns or raises.
    """
    tape = Tape()
    try:
        p = tape.var(params)
        out = program(p)
        if not isinstance(out, Var) or out.value.size != 1:
            raise TypeError("program must return a scalar traced value")
        tape.backward([(out, np.array(1.0))])
        grad = p.grad if p.grad is not None else np.zeros_like(p.value)
        return float(out.value), grad
    finally:
        tape.nodes.clear()   # breaks the Var -> Tape -> nodes cycle
