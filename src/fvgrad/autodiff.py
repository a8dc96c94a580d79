"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records array operations as they execute; ``Tape.backward``
replays them in reverse, accumulating adjoints.  Operations are exposed as
module-level functions (``sqrt``, ``where``, ``take_rows``, ...) that
accept either plain numpy arrays or traced ``Var`` objects, so the same
solver code runs untraced (fast path) or traced (training path).

Every operation is written the same way: its numpy call when no operand is
traced, else its forward value and one adjoint expression per operand,
handed to ``_record``, which holds the one recording rule of the tape.

Differentiable primitive set: + - * / ** sqrt log tanh abs min max,
``where`` with a non-differentiated condition, reductions, matmul, the
two-operand contraction ``einsum``, row gather/scatter and reshaping.
Nondifferentiable points follow the taken-branch convention:
``maximum``/``minimum`` send the adjoint to the first argument at ties,
``where`` follows its condition, ``abs`` uses the sign (zero at zero).
Comparisons on traced values return plain boolean arrays, i.e. branches are
frozen at the recorded values.

Mesh values move through ``take_rows``, a gather along the last axis, which
is the cell (or face) axis of every per-cell array in the solver:
``np.take(a, idx, axis=-1)`` for any leading shape.  Its adjoint is a
scatter-add with one ``np.bincount(idx, weights=row)`` per leading row.
bincount starts every output entry at 0.0 and adds the values of its
repeated indices in index order, the order ``np.add.at`` into zeros uses, so
the sums are bitwise those of an explicit loop (an entry that receives only
-0.0 reads +0.0).  ``segment_sum``, the same scatter-add as a forward
operation, is called by nothing in the package: the solver's residual sums
each cell's slots instead.  It stays because the benchmark's tracer resolves
it by name, so removing it is a change to the benchmark.

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


def _record(out, *pairs):
    """Record the value ``out`` of an operation on (operand, adjoint) pairs.

    The recording rule of the tape: the caller has taken its numpy fast path
    when no operand is traced, and raised any record-time ``TraceError``.
    The reverse sweep sends each traced operand, in the order given,
    ``_unbroadcast(adjoint(g), operand shape)``, where g is the node's
    adjoint; untraced operands get nothing.  The node joins the first traced
    operand's tape.
    """
    # pairs is bound as a default, not held in a closure cell: that records
    # about 0.4 us faster per node on a 2-vCPU Xeon host
    def vjp(g, pairs=pairs):
        for x, adjoint in pairs:
            if isinstance(x, Var):
                x._acc(_unbroadcast(adjoint(g), x.value.shape))

    for x, _ in pairs:
        if isinstance(x, Var):
            return Var(out, x.tape, vjp)


def _same(g):
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    if _tape_of(a, b) is None:
        return np.add(a, b)
    return _record(value_of(a) + value_of(b), (a, _same), (b, _same))


def subtract(a, b):
    if _tape_of(a, b) is None:
        return np.subtract(a, b)
    return _record(value_of(a) - value_of(b), (a, _same), (b, np.negative))


def multiply(a, b):
    if _tape_of(a, b) is None:
        return np.multiply(a, b)
    av, bv = value_of(a), value_of(b)
    return _record(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def divide(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.divide(a, b)
    av, bv = value_of(a), value_of(b)
    if np.any(bv == 0.0):
        raise TraceError("division by zero", "divide", len(tape.nodes))
    out = av / bv
    return _record(out, (a, lambda g: g / bv), (b, lambda g: -g * out / bv))


def negative(a):
    if not isinstance(a, Var):
        return np.negative(a)
    return _record(-a.value, (a, np.negative))


def power(a, exponent):
    """Elementwise power with a constant (non-traced) exponent."""
    if isinstance(exponent, Var):
        raise TypeError("traced exponents are not supported")
    if not isinstance(a, Var):
        return np.power(a, exponent)
    av = a.value
    return _record(np.power(av, exponent),
                   (a, lambda g: g * exponent * np.power(av, exponent - 1)))


def sqrt(a):
    if not isinstance(a, Var):
        return np.sqrt(a)
    if np.any(a.value <= 0.0):
        raise TraceError("sqrt of non-positive value", "sqrt", len(a.tape.nodes))
    out = np.sqrt(a.value)
    return _record(out, (a, lambda g: g * (0.5 / out)))


def log(a):
    if not isinstance(a, Var):
        return np.log(a)
    if np.any(a.value <= 0.0):
        raise TraceError("log of non-positive value", "log", len(a.tape.nodes))
    return _record(np.log(a.value), (a, lambda g: g / a.value))


def tanh(a):
    if not isinstance(a, Var):
        return np.tanh(a)
    out = np.tanh(a.value)
    return _record(out, (a, lambda g: g * (1.0 - out * out)))


def absolute(a):
    if not isinstance(a, Var):
        return np.abs(a)
    s = np.sign(a.value)
    return _record(np.abs(a.value), (a, lambda g: g * s))


def maximum(a, b):
    """Elementwise max; at ties the adjoint goes to the first argument."""
    if _tape_of(a, b) is None:
        return np.maximum(a, b)
    return where(value_of(a) >= value_of(b), a, b)


def minimum(a, b):
    """Elementwise min; at ties the adjoint goes to the first argument."""
    if _tape_of(a, b) is None:
        return np.minimum(a, b)
    return where(value_of(a) <= value_of(b), a, b)


def where(cond, a, b):
    """Select per element; cond is never differentiated."""
    cond = value_of(cond)
    if _tape_of(a, b) is None:
        return np.where(cond, a, b)
    return _record(np.where(cond, value_of(a), value_of(b)),
                   (a, lambda g: np.where(cond, g, 0.0)),
                   (b, lambda g: np.where(cond, 0.0, g)))


# ---------------------------------------------------------------------------
# reductions and shaping
# ---------------------------------------------------------------------------

def _spread(g, axis, keepdims, shape):
    """Adjoint of a reduction over ``axis``: g broadcast back to ``shape``."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).astype(np.float64)


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    if not isinstance(a, Var):
        return np.sum(a, axis=axis, keepdims=keepdims)
    return _record(np.sum(a.value, axis=axis, keepdims=keepdims),
                   (a, lambda g: _spread(g, axis, keepdims, a.value.shape)))


def mean(a, axis=None, keepdims=False):
    """np.mean, traced or not: the traced value is np.mean's, bitwise."""
    if not isinstance(a, Var):
        return np.mean(a, axis=axis, keepdims=keepdims)
    out = np.mean(a.value, axis=axis, keepdims=keepdims)
    n = a.value.size // max(out.size, 1)
    return _record(out, (a, lambda g: _spread(g / n, axis, keepdims, a.value.shape)))


def matmul(a, b):
    if _tape_of(a, b) is None:
        return np.matmul(a, b)
    av, bv = value_of(a), value_of(b)
    return _record(av @ bv, (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
                   (b, lambda g: np.swapaxes(av, -1, -2) @ g))


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
    if _tape_of(a, b) is None:
        return np.einsum(spec, a, b)
    av, bv = value_of(a), value_of(b)
    return _record(np.einsum(spec, av, bv),
                   (a, lambda g: np.einsum(f"{so},{sb}->{sa}", g, bv)),
                   (b, lambda g: np.einsum(f"{so},{sa}->{sb}", g, av)))


def reshape(a, shape):
    if not isinstance(a, Var):
        return np.reshape(a, shape)
    return _record(a.value.reshape(shape), (a, lambda g: g.reshape(a.value.shape)))


def transpose(a):
    """2-D transpose; the adjoint transposes back."""
    if not isinstance(a, Var):
        return np.asarray(a).T
    return _record(a.value.T, (a, lambda g: g.T))


def getitem(a, key):
    """Basic indexing (slices / ints), or an index array without repeats such
    as a permutation; the adjoint scatters into zeros."""
    if not isinstance(a, Var):
        return a[key]

    def scatter(g):
        gz = np.zeros(a.value.shape, dtype=np.float64)
        gz[key] += g
        return gz

    return _record(a.value[key], (a, scatter))


def concatenate(parts, axis=0):
    if _tape_of(*parts) is None:
        return np.concatenate(parts, axis=axis)
    vals = [value_of(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    bounds = np.cumsum([0] + [v.shape[axis] for v in vals])
    lead = (slice(None),) * (axis % out.ndim)
    return _record(out, *((p, lambda g, part=slice(lo, hi): g[lead + (part,)])
                          for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])))


def stack(parts, axis=0):
    if _tape_of(*parts) is None:
        return np.stack(parts, axis=axis)
    return _record(np.stack([value_of(p) for p in parts], axis=axis),
                   *((p, lambda g, k=k: np.take(g, k, axis=axis))
                     for k, p in enumerate(parts)))


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
    return _record(np.take(a.value, idx, axis=-1),
                   (a, lambda g: _scatter_rows(g, idx, a.value.shape[-1])))


def segment_sum(vals, idx, n):
    """Scatter-add vals (..., K) into (..., n) at last-axis indices idx;
    the adjoint is a gather.  Kept for the benchmark's tracer only (module
    docstring)."""
    idx = np.asarray(idx)
    if not isinstance(vals, Var):
        return _scatter_rows(vals, idx, n)
    return _record(_scatter_rows(vals.value, idx, n),
                   (vals, lambda g: np.take(g, idx, axis=-1)))


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
