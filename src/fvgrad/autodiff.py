"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tape`` records array operations as they execute; ``Tape.backward``
replays them in reverse, accumulating adjoints.  Operations are exposed as
module-level functions (``sqrt``, ``where``, ``take_rows``, ...) that
accept either plain numpy arrays or traced ``Var`` objects, so the same
solver code runs untraced (fast path) or traced (training path).

Every operation is written the same way: its numpy call when no operand is
traced, else its forward value and one adjoint expression per operand,
handed to ``_record``, which holds the one recording rule of the tape.  An
operand is traced when its class is ``Var``; the test reads ``__class__``
rather than calling ``isinstance``, because an untraced step is mostly the
fixed cost of its calls.  Three nodes are recorded outside this module the
same way, each computed in numpy and handed to ``_record``, which records it
as one node whose adjoints are hand-derived, and returns the plain value
when nothing is traced: ``solver.rusanov_flux``, the flux, whose adjoints
are its transposed Jacobians, in place of the 109 nodes that recording it op
by op took; ``mlcorr.network_forward``, the correction network, whose
adjoints run back through it one layer at a time, in place of 37 nodes; and
``recon.venkat_limiter``, the slope limiter, in place of 14 nodes (with only
its face increments traced) to 24.

Differentiable primitive set: + - * / ** sqrt log abs max,
``where`` with a non-differentiated condition, ``sum``, the two-operand
contraction ``einsum``, row gather/scatter and reshaping.  ``mean`` is
untraced only: the network's normalisation takes it on plain arrays.
Nondifferentiable points follow the taken-branch convention: ``maximum``
sends the adjoint to the first argument at ties, ``where`` follows its
condition, ``abs`` uses the sign (zero at zero).  The hand-derived nodes
follow it too, and an extreme over an axis sends its adjoint to the first
extreme entry (``_first_extreme``).
Comparisons on traced values return plain boolean arrays, i.e. branches are
frozen at the recorded values.

Mesh values move through ``take_rows``, a gather along the last axis, which
is the cell (or face) axis of every per-cell array in the solver:
``np.take(a, idx, axis=-1)`` for any leading shape, or from two arrays laid
end to end, which gathers both sides of every face, the ghost states
included, in one take.  The adjoint of a gather is a scatter-add with one
``np.bincount(idx, weights=row)`` per leading row.  bincount starts every
output entry at 0.0 and adds the values of its repeated indices in index
order, the order ``np.add.at`` into zeros uses, so the sums are bitwise
those of an explicit loop (an entry that receives only -0.0 reads +0.0).
``segment_sum``, the same scatter-add as a forward operation, is called by
nothing in the package: the solver's residual sums each cell's slots
instead.  It stays because the benchmark's tracer resolves it by name, so
removing it is a change to the benchmark.

``einsum(spec, a, b)`` contracts two operands under an explicit
``"ab,bc->ac"`` spec.  Its adjoints are einsums too, so every index of an
operand must appear in the other operand or in the output; a stencil sum
such as ``einsum("jn,vjn->vn", w, x)`` is ``sum(w * x, axis=1)`` without the
broadcast temporary.

All values and adjoints are float64.  Recording the same program twice
yields bitwise-identical gradients.

Lifetime.  A tape holds backward records, not values: ``Tape.nodes`` has
one ``_Node`` per op, its adjoint slot and its ``vjp`` closure.  A ``Var``
holds its value, its node and its tape.  A ``vjp`` holds its operands'
nodes and whatever arrays its adjoint expressions read (``sqrt`` its
output, ``multiply`` the other operand, ``take_rows`` only its index),
never an operand ``Var``.  So a recorded value is freed by reference counting
as soon as the program drops its ``Var`` and no pending adjoint reads it; a
value that an adjoint reads is freed when the sweep has run that ``vjp``.
``Tape.backward`` runs once per tape.  The reverse sweep drops each recorded
node's closure and adjoint as soon as it has propagated them, so it holds
only the adjoints still to be propagated and the arrays their closures
read.  Leaves (``Tape.var``) keep their ``.grad``; a recorded node's
``.grad`` and ``.vjp`` read ``None`` after the sweep.  A second sweep would
find no closures and propagate nothing, so it raises.  Nodes refer only to
earlier nodes, never to a ``Var`` or the tape, so a tape and its records are
freed when the last ``Var`` of it is dropped, without the cyclic collector.
A node keeps the first adjoint it receives as given, so one adjoint array may
be shared between nodes (``add`` passes one ``g`` to both operands,
``reshape`` and ``transpose`` pass views, a seed is the caller's array):
never write to ``.grad`` in place.
"""

import functools

import numpy as np

try:
    # the C function np.einsum calls when it does not optimize, without the
    # wrapper's Python-level dispatch
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:      # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum


class TraceError(ValueError):
    """Domain error (zero divide, log/sqrt of non-positive) while recording."""

    def __init__(self, message, op, node_index):
        super().__init__(f"{message} (op={op}, node={node_index})")
        self.op = op
        self.node_index = node_index


class Tape:
    """Ordered record of one traced execution: one ``_Node`` per op."""

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
            v.node._acc(g)
        for node in reversed(self.nodes):
            vjp, node.vjp = node.vjp, None
            if vjp is not None:
                g, node.grad = node.grad, None
                if g is not None:
                    vjp(g)


class _Node:
    """Backward record of one op on the tape: its adjoint, its ``vjp``, which
    sends that adjoint to the operands' nodes, and the shape of its value.
    It holds no value.  ``Var`` fills in all three slots."""

    __slots__ = ("grad", "vjp", "shape")

    def _acc(self, g):
        """Add the adjoint g, reduced to this node's shape if broadcast."""
        g = _unbroadcast(g, self.shape)
        # the first adjoint may be shared (module docstring), so it is kept
        # uncopied and each later one forms a fresh sum, never written in place
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g


class Var:
    """Traced array: a value plus its node on the recording tape."""

    __slots__ = ("value", "node", "tape")

    # keep numpy from broadcasting a Var as an object scalar; binary ufuncs
    # then defer to the reflected dunders below
    __array_ufunc__ = None

    def __init__(self, value, tape, vjp):
        self.value = value
        # filled in here rather than by a _Node.__init__: one Python call
        # fewer records about 0.2 us faster per node (2-vCPU Xeon host)
        self.node = node = _Node()
        node.grad = None
        node.vjp = vjp
        node.shape = value.shape
        self.tape = tape
        tape.nodes.append(node)

    @property
    def grad(self):
        return self.node.grad

    @property
    def vjp(self):
        return self.node.vjp

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
    cls = x.__class__
    if cls is np.ndarray:
        return x
    if cls is Var:
        return x.value
    return np.asarray(x)


def _tape_of(*xs):
    for x in xs:
        if x.__class__ is Var:
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

    The recording rule of the tape: the caller has raised any record-time
    ``TraceError``.  With no operand traced it records nothing and returns
    ``out`` itself, so a caller that computes its value in numpy either way
    (``solver.rusanov_flux``) needs no branch of its own.
    The reverse sweep sends each traced operand, in the order given,
    ``_unbroadcast(adjoint(g), operand shape)``, where g is the node's
    adjoint; untraced operands get nothing.  The node keeps each traced
    operand's node and adjoint, never the operand itself, so an operand's
    value outlives the op only if an adjoint reads it.  The node joins the
    first traced operand's tape.
    """
    traced = []
    tape = None
    for x, adjoint in pairs:
        if x.__class__ is Var:
            traced.append((x.node, adjoint))
            if tape is None:
                tape = x.tape
    if tape is None:
        return out

    # traced is bound as a default, not held in a closure cell: that records
    # about 0.4 us faster per node on a 2-vCPU Xeon host
    def vjp(g, traced=traced):
        for node, adjoint in traced:
            node._acc(adjoint(g))

    return Var(out, tape, vjp)


def _same(g):
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.add(a, b)
    return _record(value_of(a) + value_of(b), (a, _same), (b, _same))


def subtract(a, b):
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.subtract(a, b)
    return _record(value_of(a) - value_of(b), (a, _same), (b, np.negative))


def multiply(a, b):
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.multiply(a, b)
    av, bv = value_of(a), value_of(b)
    return _record(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def divide(a, b):
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.divide(a, b)
    av, bv = value_of(a), value_of(b)
    if np.any(bv == 0.0):
        raise TraceError("division by zero", "divide", len(_tape_of(a, b).nodes))
    out = av / bv
    return _record(out, (a, lambda g: g / bv), (b, lambda g: -g * out / bv))


def negative(a):
    if a.__class__ is not Var:
        return np.negative(a)
    return _record(-a.value, (a, np.negative))


def power(a, exponent):
    """Elementwise power with a constant (non-traced) exponent."""
    if exponent.__class__ is Var:
        raise TypeError("traced exponents are not supported")
    if a.__class__ is not Var:
        return np.power(a, exponent)
    av = a.value
    return _record(np.power(av, exponent),
                   (a, lambda g: g * exponent * np.power(av, exponent - 1)))


def sqrt(a):
    if a.__class__ is not Var:
        return np.sqrt(a)
    if np.any(a.value <= 0.0):
        raise TraceError("sqrt of non-positive value", "sqrt", len(a.tape.nodes))
    out = np.sqrt(a.value)
    return _record(out, (a, lambda g: g * (0.5 / out)))


def log(a):
    if a.__class__ is not Var:
        return np.log(a)
    if np.any(a.value <= 0.0):
        raise TraceError("log of non-positive value", "log", len(a.tape.nodes))
    av = a.value
    return _record(np.log(av), (a, lambda g: g / av))


def absolute(a):
    if a.__class__ is not Var:
        return np.abs(a)
    s = np.sign(a.value)
    return _record(np.abs(a.value), (a, lambda g: g * s))


def maximum(a, b):
    """Elementwise max, keeping NaNs as np.maximum does; ties send the adjoint to a."""
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.maximum(a, b)
    return where((value_of(a) >= value_of(b)) | np.isnan(value_of(a)), a, b)


def where(cond, a, b):
    """Select per element; cond is never differentiated."""
    cond = value_of(cond)
    if a.__class__ is not Var and b.__class__ is not Var:
        return np.where(cond, a, b)
    return _record(np.where(cond, value_of(a), value_of(b)),
                   (a, lambda g: np.where(cond, g, 0.0)),
                   (b, lambda g: np.where(cond, 0.0, g)))


def _first_extreme(v, axis, keeps):
    """The extreme of an array v along an axis, as a chain of pairwise
    maxima or minima takes it, and a mask of v's shape, True at the entry
    it took: the running pick keeps where ``keeps(pick, v_j)``
    (``np.greater_equal`` for a maximum, ``np.less_equal`` for a minimum)
    or it is NaN, so the first extreme entry at ties.  The adjoint of such
    an extreme goes to that entry (``recon.venkat_limiter``)."""
    pick = np.take(v, 0, axis=axis)
    k = np.zeros(pick.shape, dtype=np.intp)
    for j in range(1, v.shape[axis]):
        vj = np.take(v, j, axis=axis)
        moves = ~(keeps(pick, vj) | np.isnan(pick))
        k = np.where(moves, j, k)
        pick = np.where(moves, vj, pick)
    slots = np.arange(v.shape[axis]).reshape((-1,) + (1,) * (v.ndim - 1 - axis))
    return pick, np.expand_dims(k, axis) == slots


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
    if a.__class__ is not Var:
        return np.sum(a, axis=axis, keepdims=keepdims)
    shape = a.value.shape
    return _record(np.sum(a.value, axis=axis, keepdims=keepdims),
                   (a, lambda g: _spread(g, axis, keepdims, shape)))


def mean(a, axis=None, keepdims=False):
    """np.mean(a, axis, keepdims=keepdims) of an untraced float array,
    bitwise: the sum over the axes divided by their length, as np.mean
    computes it, without its Python-level wrapper."""
    v = np.asarray(a, dtype=np.float64)
    out = np.add.reduce(v, axis=axis, keepdims=keepdims)
    return out / (v.size // max(out.size, 1))


@functools.cache
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
    if a.__class__ is not Var and b.__class__ is not Var:
        return _c_einsum(spec, a, b)
    av, bv = value_of(a), value_of(b)
    return _record(_c_einsum(spec, av, bv),
                   (a, lambda g: _c_einsum(f"{so},{sb}->{sa}", g, bv)),
                   (b, lambda g: _c_einsum(f"{so},{sa}->{sb}", g, av)))


def reshape(a, shape):
    if a.__class__ is not Var:
        return np.asarray(a).reshape(shape)      # the method: see take_rows
    a_shape = a.value.shape
    return _record(a.value.reshape(shape), (a, lambda g: g.reshape(a_shape)))


def transpose(a):
    """Reverse the axes, as ``.T`` does; the adjoint reverses them back."""
    if a.__class__ is not Var:
        return np.asarray(a).T
    return _record(a.value.T, (a, lambda g: g.T))


def getitem(a, key):
    """Basic indexing (slices / ints), or an index array without repeats such
    as a permutation; the adjoint scatters into zeros."""
    if a.__class__ is not Var:
        return a[key]
    shape = a.value.shape

    def scatter(g):
        gz = np.zeros(shape, dtype=np.float64)
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
        # np.array stacks along a new first axis in one call, where np.stack
        # makes about fifteen
        return np.array(parts) if axis == 0 else np.stack(parts, axis=axis)
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


def _take(av, idx, mv):
    """av[..., idx] along the last axis, or with mv, idx indexing av and mv
    laid end to end; the entries that index mv are filled in after one take
    from av.  Returns (gathered, flat positions of those entries)."""
    if mv is None:
        # the method, not np.take: each call of a numpy wrapper that forwards
        # keywords leaves one block on CPython's dict free list until 80 such
        # calls have run, so a process's first steps kept touching new pages
        return av.take(idx, axis=-1), None
    n = av.shape[-1]
    out = av.take(idx, axis=-1, mode="clip")
    far = (idx >= n).ravel().nonzero()[0]
    rows = out.reshape(out.shape[:out.ndim - idx.ndim] + (idx.size,))
    rows[..., far] = mv.take(idx.ravel()[far] - n, axis=-1)
    return out, far


def take_rows(a, idx, more=None):
    """Gather a[..., idx] along the last axis; the adjoint is a scatter-add.

    With ``more``, idx indexes a and more laid end to end along that axis,
    ``concatenate([a, more], axis=-1)[..., idx]``, without forming the
    concatenation: the entries below a's length read a, the others more."""
    idx = np.asarray(idx)
    if a.__class__ is not Var and more.__class__ is not Var:
        return _take(np.asarray(a), idx, None if more is None else np.asarray(more))[0]
    av = value_of(a)
    n = av.shape[-1]
    if more is None:
        return _record(_take(av, idx, None)[0], (a, lambda g: _scatter_rows(g, idx, n)))
    mv = value_of(more)
    out, far = _take(av, idx, mv)
    m = n + mv.shape[-1]
    far_idx = idx.ravel()[far] - n

    def more_adjoint(g):
        rows = np.reshape(g, g.shape[:g.ndim - idx.ndim] + (idx.size,))
        return _scatter_rows(rows.take(far, axis=-1), far_idx, mv.shape[-1])

    # a's adjoint is the scatter over every entry, cut to a's length: its
    # bins are those of a scatter of a's entries alone, bitwise
    return _record(out, (a, lambda g: _scatter_rows(g, idx, m)[..., :n]), (more, more_adjoint))


def segment_sum(vals, idx, n):
    """Scatter-add vals (..., K) into (..., n) at last-axis indices idx;
    the adjoint is a gather.  Kept for the benchmark's tracer only (module
    docstring)."""
    idx = np.asarray(idx)
    if vals.__class__ is not Var:
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
        tape.nodes.clear()   # frees the records while a traceback holds the tape
