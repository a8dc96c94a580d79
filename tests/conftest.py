import hashlib
import struct

import numpy as np
import pytest

from fvgrad import mesh as msh
from fvgrad import mlcorr
from fvgrad.euler import GasModel


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def gas():
    return GasModel()


@pytest.fixture(scope="session")
def periodic_mesh_small():
    return msh.periodic_structured_mesh(6)


@pytest.fixture(scope="session")
def periodic_mesh_irregular():
    return msh.periodic_irregular_mesh(8, seed=3)


@pytest.fixture(scope="session")
def bounded_mesh_small():
    return msh.structured_mesh(
        6, boundary_spec=msh.BoundarySpec.uniform(msh.SUPERSONIC_OUT))


@pytest.fixture(scope="session")
def seeded_params():
    return seeded_network_params()


def seeded_network_params():
    """Every entry non-zero, the output head included, so alpha is non-zero."""
    rng = np.random.default_rng(11)
    params = mlcorr.zero_params()
    vec = np.empty(params.count)
    for name, shape, off in params.table:
        size = int(np.prod(shape))
        scale = 0.05 if name.startswith("head") else 1.0 / np.sqrt(shape[-1])
        vec[off:off + size] = rng.normal(0.0, scale, size)
        if name == "norm_scale":
            vec[off:off + size] += 1.0
    return params.with_values(vec)


def save_params_with_offset(params, path, name, offset):
    """Save params, then set the offset of layer ``name`` in the file's
    shape table."""
    mlcorr.save_params(params, path)
    raw = bytearray(path.read_bytes())
    pos = raw.index(name.encode()) + len(name)
    pos += 1 + 4 * raw[pos]                 # ndim byte and the shape
    raw[pos:pos + 8] = struct.pack("<Q", offset)
    path.write_bytes(bytes(raw))


def save_params_sized(params, path, name, value):
    """Save params, then write a one-digit ``value`` for the network size
    ``name`` (n_vars or n_neighbors) into the file's config blob."""
    mlcorr.save_params(params, path)
    raw = path.read_bytes()
    old = f'"{name}": {getattr(params.config, name)}'.encode()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, f'"{name}": {value}'.encode()))


def finite_diff_grad(fn, params, rel_step=1e-6):
    """Central finite differences of a scalar fn(params) -> float: the
    oracle of the tape's vector-Jacobian products."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    flat = params.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        h = rel_step * max(1.0, abs(flat[i]))
        p_hi = flat.copy()
        p_lo = flat.copy()
        p_hi[i] += h
        p_lo[i] -= h
        out[i] = (fn(p_hi.reshape(params.shape)) - fn(p_lo.reshape(params.shape))) / (2 * h)
    return grad


def digest(a):
    """sha256 prefix of an array's bytes, for pinning outputs bitwise."""
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def random_admissible_prim(rng, n, lo=0.3, hi=2.0, vmax=1.0):
    """Seeded admissible primitive states."""
    return np.column_stack([
        rng.uniform(lo, hi, n),
        rng.uniform(-vmax, vmax, n),
        rng.uniform(-vmax, vmax, n),
        rng.uniform(lo, hi, n),
    ])


def smooth_prim_field(points, amp=0.3):
    """Smooth periodic primitive field on the unit square."""
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([
        1.0 + amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        amp * np.sin(2 * np.pi * y),
        -amp * np.cos(2 * np.pi * x),
        1.0 + amp * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
    ])


def rotated_mesh(m, theta):
    """``m`` with every node rotated by ``theta`` about the origin.

    Boundary tags and periodic groups are carried over per edge, because the
    box rules of ``BoundarySpec.periodic_box`` only match axis-aligned sides.
    Periodic faces pair by translation, so a rotated periodic box still pairs.
    """
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    table = {(min(a, b), max(a, b)): (tag, group)
             for a, b, tag, group in m.boundary_edges.tolist()}
    return msh.build_mesh(m.nodes @ rot.T, m.tri.copy(),
                          msh.BoundarySpec.from_edge_table(table))
