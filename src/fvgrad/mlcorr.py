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

MAGIC = b"GFNN"
VERSION = 1
NORM_EPS = 1e-6


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
    takes it with one ``ad.take_rows`` gather: each name maps to an array of
    the layer's working shape whose entries are positions in the vector.

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
    """``_layer_index`` as one gather: the layer names, their indices joined
    in that order, and each layer's working shape, for
    ``ad.take_rows_split``."""
    idx = _layer_index(config)
    joined = np.concatenate([i.ravel() for i in idx.values()])
    joined.flags.writeable = False
    return tuple(idx), joined, tuple(i.shape for i in idx.values())


def network_forward(params, du, theta, vec=None):
    """Correction coefficients for stencil inputs.

    du: neighbor differences, (4, 3, N) (variable, neighbor, cell); theta:
    stencil angles, (3, N), in the same neighbor order.  Returns alpha with
    the shape of du.  Activations are (features, N), with the cell axis last.
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
    vec = params.values if vec is None else vec
    names, idx, shapes = _layer_gather(cfg)
    L = dict(zip(names, ad.take_rows_split(vec, idx, shapes)))

    z = ad.reshape(du, (cfg.n_in, n))
    mu = ad.mean(z, axis=0, keepdims=True)
    centered = z - mu
    var = ad.mean(centered * centered, axis=0, keepdims=True)
    scale = ad.sqrt(var + NORM_EPS)
    zn = centered / scale
    zn = zn * L["norm_scale"] + L["norm_shift"]
    _check_finite("norm", zn)

    h = ad.matmul(L["branch0_skip"], zn) + ad.tanh(
        ad.matmul(L["branch0_w"], zn) + L["branch0_b"])
    _check_finite("branch0", h)
    h = h + ad.tanh(ad.matmul(L["branch1_w"], h) + L["branch1_b"])
    _check_finite("branch1", h)

    trunk = ad.tanh(ad.matmul(L["trunk_w"], theta) + L["trunk_b"])
    _check_finite("trunk", trunk)

    # raw[m, n] = sum_p (head_w[m*P+p] . h[:, n] + head_b[m*P+p]) trunk[p, n]
    # with P = combine, contracted over (p, w) in one matmul so the
    # (n_in*P, N) branch features are never formed
    pw = cfg.combine * cfg.width
    outer = ad.reshape(ad.reshape(trunk, (cfg.combine, 1, n))
                       * ad.reshape(h, (1, cfg.width, n)), (pw, n))
    raw = ad.matmul(L["head_w"], outer) + ad.matmul(L["head_b"], trunk)
    raw = raw * scale
    alpha = np.nextafter(cfg.alpha_max, 0.0) * ad.tanh(raw * (1.0 / cfg.alpha_max))
    _check_finite("head", alpha)

    return ad.reshape(alpha, (cfg.n_vars, cfg.n_neighbors, n))


def masked_alpha(mesh, params, du, vec=None):
    """Network forward over all cells with boundary cells forced to zero."""
    alpha = network_forward(params, du, mesh.angles, vec=vec)
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
