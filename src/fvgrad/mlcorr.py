"""Learned gradient correction: a small branch/trunk operator network.

Per interior cell the network maps the 3x4 neighbor differences
(u_j - u_i, flattened to 12 values) and the 3 stencil angles to a 3x4
block of correction coefficients alpha.  The branch path normalizes its
input per sample (reversible-normalization style), passes two residual
linear blocks, and emits combine-dimension features per output slot; the
trunk is one linear block on the angles; the two are contracted by an
inner product per output, rescaled by the input scale, squashed to the
open interval (-alpha_max, alpha_max), and un-flattened.  The squash is
``c*tanh(raw/alpha_max)`` with ``c`` the largest float below alpha_max:
tanh rounds to exactly 1 for large inputs, and c keeps |alpha| < alpha_max
strictly, so the Green-Gauss face weight 0.5 - alpha never vanishes.

The three neighbor slots follow the mesh's stencil order, which starts right
after the largest stencil angle (``mesh._stencil_start``).  The network is
not equivariant to a cyclic shift of its inputs, so this canonical start is
what makes alpha invariant under rotation of the mesh: per neighbor, alpha
depends only on the stencil's shape and the neighbor differences.  A
threefold-symmetric stencil (equal angles and equal distances) has no
geometric start, and there alpha depends on the mesh orientation.  The
meshes the runs and the benchmark build (``periodic_structured_mesh(27)``,
``periodic_irregular_mesh(27)`` and ``(100)``, ``structured_mesh(8)``,
``forward_step_mesh(0.02)`` and ``(0.1)``) have no such stencil, and a test
counts them; a mesh with equilateral stencils, such as one read from a
file, is the case this leaves open.

Inside the solver step the network runs on the step's arrays as they are:
the neighbor differences are (4, 3, N) (variable, neighbor, cell), the
angles (3, N), every activation (features, N) and alpha (4, 3, N), with the
cell axis last.  Its parameters keep the neighbor-major input order
(j*4 + v) of the checkpoint format; the forward pass permutes them instead
of the data, as it takes the layers from the flat vector through one
gather of their joined indices (``_layer_index``, ``_layer_gather``).

Traced, the network is one tape node on the parameter vector and du, as
the Rusanov flux is one node in ``solver``.  The parameters arrive as one
``NetParams``: the training loss traces them by handing the step
``params.with_values(v)`` with v a ``Var``.  Its values come from the same
numpy code as untraced, so the untraced step is unchanged bitwise.  Its
adjoint (``_network_adjoint``) runs back through the network one layer at
a time and scatters each layer's parameter adjoint into the flat vector
through the same index.  The node keeps only the activations that adjoint
reads: not the (combine*width, N) product of the trunk and the branch
output that the head contracts, which the adjoint rebuilds.  Recorded op
by op, the network took 37 nodes and kept that product, the largest array
of a traced step.

The forward pass writes in place every array the node does not keep, all
of them untraced, and never writes into one the node keeps.  It contracts
the head over near-equal chunks of at most ``HEAD_CELLS`` cells, so the
product trunk x h exists for one chunk at a time.

Cells touching a boundary get an exactly-zero alpha, which reduces the
corrected gradients to the plain reconstruction there.  With every
parameter zero the output is identically zero, so the corrected solver
reproduces the baseline bitwise.
"""

import functools
import json
import math
import struct
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import autodiff as ad
from . import mesh as msh

MAGIC = b"GFNN"
VERSION = 1
NORM_EPS = 1e-6
# Most cells per chunk of the head's contraction (``network_forward``).  The
# chunks are cut by ``mesh.aligned_cuts``, at multiples of BLOCK_ALIGN
# cells like the step's blocks, so alpha does not depend on where the
# chunks or the blocks fall, and they are of near-equal size: OpenBLAS
# rounds a short tail chunk differently.  At 4,096 cells, trunk x h of a
# chunk is 2 MB.
HEAD_CELLS = 4096


class NetworkError(ValueError):
    def __init__(self, message, layer=None):
        super().__init__(message if layer is None else f"{message} (layer={layer})")
        self.layer = layer


@dataclass(frozen=True)
class NetConfig:
    width: int = 8          # branch block width
    combine: int = 8        # inner-product dimension between branch and trunk
    alpha_max: float = 0.5
    # class constants, not fields: the solver's stencil feeds the network the
    # 4 Euler variables of 3 neighbours
    n_neighbors = 3
    n_vars = 4

    def __post_init__(self):
        for name in ("width", "combine"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise NetworkError(f"{name} must be a positive integer, got {value!r}")
        if not (np.isfinite(self.alpha_max) and self.alpha_max > 0):
            raise NetworkError(f"alpha_max must be finite and > 0, got {self.alpha_max!r}")

    @property
    def n_in(self):
        return self.n_neighbors * self.n_vars

    def layer_shapes(self):
        w, p, m = self.width, self.combine, self.n_in
        return [
            ("norm_scale", (m,)),
            ("norm_shift", (m,)),
            ("branch0_skip", (w, m)),
            ("branch0_w", (w, m)),
            ("branch0_b", (w,)),
            ("branch1_w", (w, w)),
            ("branch1_b", (w,)),
            ("trunk_w", (p, 3)),
            ("trunk_b", (p,)),
            ("head_w", (m * p, w)),
            ("head_b", (m * p,)),
        ]


@dataclass
class NetParams:
    """Flat parameter vector of a network.  Its layer table, one (name,
    shape, offset) per layer, follows from the config (``_make_table``)."""

    config: NetConfig
    values: np.ndarray

    @property
    def table(self):
        return _make_table(self.config)[0]

    @property
    def count(self):
        return _make_table(self.config)[1]

    def with_values(self, vec):
        return NetParams(self.config, vec)


def _make_table(config):
    table = []
    off = 0
    for name, shape in config.layer_shapes():
        table.append((name, shape, off))
        off += int(np.prod(shape))
    return table, off


def zero_params(config=NetConfig()):
    _, n = _make_table(config)
    return NetParams(config, np.zeros(n))


def init_params(config=NetConfig(), seed=0):
    """Seeded initialization; the output head starts at zero so the initial
    corrected solver coincides with the baseline."""
    table, n = _make_table(config)
    rng = np.random.default_rng(seed)
    vec = np.zeros(n)
    p = NetParams(config, vec)
    for name, shape, off in table:
        size = int(np.prod(shape))
        if name == "norm_scale":
            vec[off:off + size] = 1.0
        elif name.endswith("_w") and not name.startswith("head"):
            fan_in = shape[1]
            vec[off:off + size] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size)
        elif name == "branch0_skip":
            vec[off:off + size] = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size)
    return p


def _check_finite(name, x):
    # all finite iff the largest and the smallest entry are, as both
    # reductions keep a NaN: two passes and no temporary array (0.0 joins
    # both, for a block without cells)
    v = ad.value_of(x)
    if not (math.isfinite(np.maximum.reduce(v, axis=None, initial=0.0))
            and math.isfinite(np.minimum.reduce(v, axis=None, initial=0.0))):
        raise NetworkError("non-finite activation", layer=name)


@functools.cache
def _layer_index(config):
    """Index of each layer in the flat parameter vector, as the forward pass
    takes it with one gather and the adjoint scatters it back: each name
    maps to an array of the layer's working shape whose entries are
    positions in the vector.

    The network's parameters index its input neighbor-major (j*4 + v, the
    checkpoint's order); the solver's stencil arrays are variable-major
    (4, 3, N), whose rows flatten to v*3 + j.  So the index permutes every
    input-indexed axis (the rows of the normalisation and of the head, the
    columns of branch0) to variable-major order, which lets the forward pass
    run on the stencil array as it is, and makes every (k,) vector a (k, 1)
    column that broadcasts over cells.  Each vector position appears once.
    Built once per configuration, from ``_make_table``, the one layout a
    checkpoint may have (``load_params``)."""
    m = config.n_in
    vm = np.arange(m).reshape(config.n_neighbors, config.n_vars).T.ravel()
    table, _ = _make_table(config)
    idx = {name: off + np.arange(int(np.prod(shape))).reshape(shape)
           for name, shape, off in table}
    for name in ("norm_scale", "norm_shift"):
        idx[name] = idx[name][vm, None]
    for name in ("branch0_skip", "branch0_w"):
        idx[name] = idx[name][:, vm]
    for name in ("branch0_b", "branch1_b", "trunk_b"):
        idx[name] = idx[name][:, None]
    idx["head_w"] = idx["head_w"].reshape(m, -1)[vm]
    idx["head_b"] = idx["head_b"].reshape(m, -1)[vm]
    for i in idx.values():
        i.flags.writeable = False
    return idx


@functools.cache
def _layer_gather(config):
    """``_layer_index`` as one gather: the layers' indices joined in table
    order, and each layer's (name, cut of the joined index, working shape)."""
    idx = _layer_index(config)
    joined = np.concatenate([i.ravel() for i in idx.values()])
    joined.flags.writeable = False
    cuts, lo = [], 0
    for name, i in idx.items():
        cuts.append((name, slice(lo, lo + i.size), i.shape))
        lo += i.size
    return joined, tuple(cuts)


def network_forward(params, du, theta):
    """Correction coefficients for stencil inputs.

    du: neighbor differences, (4, 3, N) (variable, neighbor, cell); theta:
    stencil angles, (3, N), in the same neighbor order, a mesh constant that
    is never traced.  Returns alpha with the shape of du.  Activations are
    (features, N), with the cell axis last.

    The values are computed by the same numpy code whether or not du or the
    parameter vector ``params.values`` is traced.  A traced call records
    alpha as one tape node on those two operands (``_network_adjoint``),
    which keeps the activations its adjoint reads: the normalised input, the
    input scale, both branch blocks' tanh outputs and the first block's
    output, the trunk and the squash's tanh; with du traced, also the
    centered input and the head's raw output.
    """
    cfg = params.config
    duv = ad.value_of(du)
    if duv.ndim != 3 or duv.shape[:2] != (cfg.n_vars, cfg.n_neighbors):
        raise NetworkError(f"du must have shape {(cfg.n_vars, cfg.n_neighbors)} + (N,), "
                           f"got {duv.shape}")
    n = duv.shape[-1]
    if ad.value_of(theta).shape != (3, n):
        raise NetworkError(f"theta shape {ad.value_of(theta).shape} does not match "
                           f"du {duv.shape}")
    vec = params.values
    joined, cuts = _layer_gather(cfg)
    flat = ad.value_of(vec).take(joined)
    L = {name: flat[cut].reshape(shape) for name, cut, shape in cuts}
    # the node keeps every activation below when traced, and centered and
    # raw0 too when du is traced; any other array is overwritten in place
    traced = du.__class__ is ad.Var or vec.__class__ is ad.Var
    keeps_du = du.__class__ is ad.Var

    z = duv.reshape(cfg.n_in, n)
    centered = z - ad.mean(z, axis=0, keepdims=True)
    scale = np.sqrt(ad.mean(centered * centered, axis=0, keepdims=True) + NORM_EPS)
    zn0 = np.divide(centered, scale, out=None if keeps_du else centered)
    zn = np.multiply(zn0, L["norm_scale"], out=None if traced else zn0)
    zn += L["norm_shift"]
    _check_finite("norm", zn)

    t0 = _tanh_layer(L["branch0_w"], zn, L["branch0_b"])
    h0 = L["branch0_skip"] @ zn
    h0 += t0
    _check_finite("branch0", h0)
    t1 = _tanh_layer(L["branch1_w"], h0, L["branch1_b"])
    h = np.add(h0, t1, out=None if traced else h0)
    _check_finite("branch1", h)

    trunk = _tanh_layer(L["trunk_w"], theta, L["trunk_b"])
    _check_finite("trunk", trunk)
    # untraced, the head runs with no more arrays alive than it reads
    acts = (zn0, scale, t0, h0, t1, trunk) if traced else None
    du_acts = [centered] if keeps_du else None
    del centered, zn0, zn, t0, h0, t1

    # raw[m, n] = sum_p (head_w[m*P+p] . h[:, n] + head_b[m*P+p]) trunk[p, n]
    # with P = combine, contracted over (p, w) in one matmul per chunk of
    # cells, so the (n_in*P, N) branch features are never formed, nor the
    # (P*W, N) product trunk x h for more than one chunk.  A chunk holds
    # fewer than n / k + BLOCK_ALIGN cells, so this k keeps it in HEAD_CELLS
    raw0 = np.empty((cfg.n_in, n))
    bounds = msh.aligned_cuts(n, max(1, -(-n // (HEAD_CELLS - msh.BLOCK_ALIGN))))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        raw0[:, lo:hi] = L["head_w"] @ _outer(trunk[:, lo:hi], h[:, lo:hi])
        raw0[:, lo:hi] += L["head_b"] @ trunk[:, lo:hi]
    q = np.multiply(raw0, scale, out=None if keeps_du else raw0)
    q *= 1.0 / cfg.alpha_max
    squash = np.tanh(q, out=q)
    alpha = np.multiply(squash, np.nextafter(cfg.alpha_max, 0.0),
                        out=None if traced else squash)
    _check_finite("head", alpha)
    alpha = alpha.reshape(duv.shape)
    if not traced:
        return alpha

    acts += (squash,)
    if keeps_du:
        du_acts.append(raw0)
    shape = duv.shape
    both = []

    def adjoints(g):
        # one pass gives both operands' adjoints, whichever asks first
        if not both:
            both.extend(_network_adjoint(cfg, L, theta, acts, du_acts,
                                         g.reshape(cfg.n_in, shape[-1])))
        return both

    return ad._record(alpha, (vec, lambda g: adjoints(g)[0]),
                      (du, lambda g: adjoints(g)[1].reshape(shape)))


def _tanh_layer(w, x, b):
    """tanh(w @ x + b), computed in the product's own array."""
    a = w @ x
    a += b
    return np.tanh(a, out=a)


def _outer(trunk, h):
    """trunk (P, N) times h (W, N) per cell, as the (P*W, N) rows p*W + w."""
    return (trunk[:, None] * h).reshape(trunk.shape[0] * h.shape[0], h.shape[-1])


def _network_adjoint(cfg, L, theta, acts, du_acts, g):
    """Adjoints of ``network_forward`` for the adjoint g of alpha, (n_in, N):
    the parameter vector's, and du's as (n_in, N) (None if du_acts is None).

    One small adjoint per layer, from the squash back to the input
    normalisation (Griewank and Walther, *Evaluating Derivatives*, 2008,
    ch. 10).  Each layer's parameter adjoint is scattered into the flat
    vector through ``_layer_index``.  The head rebuilds the (P*W, N)
    product trunk x h, which the forward pass drops, and forms that
    product's adjoint once for both factors.  Sums are taken in the order
    the op-by-op network's tape took them, so the adjoints agree with it to
    round-off."""
    zn0, scale, t0, h0, t1, trunk, squash = acts
    grads = {}
    # squash: alpha = c tanh(raw0 scale / alpha_max)
    c = np.nextafter(cfg.alpha_max, 0.0)
    g_raw = g * c * (1.0 - squash * squash) * (1.0 / cfg.alpha_max)
    g_raw0 = g_raw * scale

    # head: raw0 = head_w (trunk x h) + head_b trunk
    h = h0 + t1
    grads["head_w"] = g_raw0 @ _outer(trunk, h).T
    grads["head_b"] = g_raw0 @ trunk.T
    g_outer = (L["head_w"].T @ g_raw0).reshape(cfg.combine, cfg.width, g.shape[-1])
    g_trunk = L["head_b"].T @ g_raw0 + np.einsum("pwn,wn->pn", g_outer, h)
    g_h = np.einsum("pwn,pn->wn", g_outer, trunk)
    # dropped once read, so no later layer's adjoint adds to its (P*W, N)
    del g_outer, h

    # trunk: tanh(trunk_w theta + trunk_b)
    g_a = g_trunk * (1.0 - trunk * trunk)
    grads["trunk_w"] = g_a @ theta.T
    grads["trunk_b"] = g_a.sum(axis=1, keepdims=True)

    # branch1: h = h0 + tanh(branch1_w h0 + branch1_b)
    g_a = g_h * (1.0 - t1 * t1)
    grads["branch1_w"] = g_a @ h0.T
    grads["branch1_b"] = g_a.sum(axis=1, keepdims=True)
    g_h0 = g_h + L["branch1_w"].T @ g_a

    # branch0: h0 = branch0_skip zn + tanh(branch0_w zn + branch0_b)
    zn = zn0 * L["norm_scale"] + L["norm_shift"]
    g_a = g_h0 * (1.0 - t0 * t0)
    grads["branch0_skip"] = g_h0 @ zn.T
    grads["branch0_w"] = g_a @ zn.T
    grads["branch0_b"] = g_a.sum(axis=1, keepdims=True)
    g_zn = L["branch0_w"].T @ g_a + L["branch0_skip"].T @ g_h0

    # normalisation: zn = (centered / scale) norm_scale + norm_shift
    grads["norm_scale"] = (g_zn * zn0).sum(axis=1, keepdims=True)
    grads["norm_shift"] = g_zn.sum(axis=1, keepdims=True)
    joined, cuts = _layer_gather(cfg)
    g_vec = np.empty(joined.size)
    g_vec[joined] = np.concatenate([grads[name].ravel() for name, _, _ in cuts])
    if du_acts is None:
        return g_vec, None

    # scale = sqrt(mean(centered^2) + eps) enters zn and raw = raw0 scale;
    # centered = z - mean(z)
    centered, raw0 = du_acts
    g_zn0 = g_zn * L["norm_scale"]
    g_scale = ((g_raw * raw0).sum(axis=0, keepdims=True)
               + (-g_zn0 * zn0 / scale).sum(axis=0, keepdims=True))
    m = cfg.n_in
    # one t per factor of centered * centered, added as the tape adds them
    t = (g_scale * (0.5 / scale) / m) * centered
    g_c = g_zn0 / scale + t + t
    return g_vec, g_c - g_c.sum(axis=0, keepdims=True) / m


def masked_alpha(mesh, params, du):
    """Network forward over all cells with boundary cells forced to zero."""
    alpha = network_forward(params, du, mesh.angles)
    if mesh.all_interior:
        return alpha
    return ad.where(mesh.interior_mask, alpha, 0.0)


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config json, shape table, raw float64
# ---------------------------------------------------------------------------

def save_params(params, path):
    """Write params; the shape table is the one its config gives."""
    cfg_blob = json.dumps({
        "width": params.config.width,
        "combine": params.config.combine,
        "n_neighbors": params.config.n_neighbors,
        "n_vars": params.config.n_vars,
        "alpha_max": params.config.alpha_max,
    }).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<I", len(params.table)))
        for name, shape, off in params.table:
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", len(shape)))
            for s in shape:
                fh.write(struct.pack("<I", s))
            fh.write(struct.pack("<Q", off))
        fh.write(np.ascontiguousarray(params.values, dtype="<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[:4] != MAGIC:
            raise NetworkError("bad checkpoint magic")
        pos = 4
        version, = struct.unpack_from("<I", raw, pos)
        pos += 4
        if version != VERSION:
            raise NetworkError(f"unsupported checkpoint version {version}")
        blob_len, = struct.unpack_from("<I", raw, pos)
        pos += 4
        blob = dict(json.loads(raw[pos:pos + blob_len].decode()))
        sizes = {name: blob.pop(name, getattr(NetConfig, name))
                 for name in ("n_vars", "n_neighbors")}
        cfg = NetConfig(**blob)
        pos += blob_len
        n_entries, = struct.unpack_from("<I", raw, pos)
        pos += 4
        table = []
        for _ in range(n_entries):
            nlen, = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + nlen].decode()
            pos += nlen
            ndim, = struct.unpack_from("<B", raw, pos)
            pos += 1
            shape = tuple(struct.unpack_from(f"<{ndim}I", raw, pos))
            pos += 4 * ndim
            off, = struct.unpack_from("<Q", raw, pos)
            pos += 8
            table.append((name, shape, off))
        total = sum(int(np.prod(s)) for _, s, _ in table)
        vals = np.frombuffer(raw[pos:], dtype="<f8")
        if vals.size != total:
            raise NetworkError(f"checkpoint holds {vals.size} parameters, "
                               f"shape table expects {total}")
    except NetworkError:
        raise
    except struct.error as exc:
        raise NetworkError(f"truncated checkpoint: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise NetworkError(f"corrupt checkpoint: {exc}") from exc
    if sizes != {"n_vars": cfg.n_vars, "n_neighbors": cfg.n_neighbors}:
        raise NetworkError(f"checkpoint network takes n_vars={sizes['n_vars']} and "
                           f"n_neighbors={sizes['n_neighbors']}; the solver's stencil "
                           f"has {cfg.n_vars} and {cfg.n_neighbors}")
    expected, _ = _make_table(cfg)
    for got, want in zip_longest(table, expected):
        if got != want:
            raise NetworkError(f"shape table (names, shapes and offsets) does not match "
                               f"this build's architecture: the file has {got}, "
                               f"the build {want}")
    return NetParams(cfg, vals.astype(np.float64))
