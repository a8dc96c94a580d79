import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import mesh as msh
from fvgrad import mlcorr, recon
from fvgrad.euler import GasModel


def tanh(a):
    """np.tanh of a plain or a traced array, recorded as a tape node whose
    adjoint reads the output: the network's activation for the tests that
    record it op by op."""
    out = np.tanh(ad.value_of(a))
    return ad._record(out, (a, lambda g: g * (1.0 - out * out)))


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


def _half_edge_midpoints(m, cells):
    """Per cell, its three half-edges in ``tri`` order: their midpoints
    (n, 3, 2) and node offsets head minus tail (n, 3, 2)."""
    tail = m.nodes[m.tri[cells]]
    head = m.nodes[m.tri[cells][:, [1, 2, 0]]]
    return (tail + head) / 2.0, head - tail


def mesh_geometry(m):
    """The geometry ``build_mesh`` uses but does not keep, computed from
    the nodes and the kept tables as the build computes it, bitwise:
    ``f_len`` (F,), ``f_shift`` (F, 2) (left-side midpoint minus right-side
    midpoint; non-zero only on merged periodic faces), ``b_tag`` (Fb,),
    ``nbr_dx`` and ``nbr_dy`` (N, 3) (neighbour centroid offsets in stencil
    order, across the periodic wrap) and ``ghost_centroid`` (Fb, 2)."""
    n, ni = m.n_cells, m.n_iface
    faces = np.arange(m.n_faces)
    # each face is its left cell's half-edge with the face's midpoint
    mids, offsets = _half_edge_midpoints(m, m.f_left)
    k = np.argmax((mids == m.f_mid[:, None, :]).all(axis=2), axis=1)
    assert (mids[faces, k] == m.f_mid).all()
    f_len = np.hypot(*offsets[faces, k].T)
    # the right cell's side of an interior face: the half-edge nearest the
    # face midpoint the right slot's centroid-to-face offset points at
    mids_r, _ = _half_edge_midpoints(m, m.f_right[:ni])
    seen = (m.cell_foff.reshape(2, 3 * n)[:, m.face_slots[1, :ni]].T + m.centroid[m.f_right[:ni]])
    k_r = np.argmin(np.hypot(*(mids_r - seen[:, None, :]).transpose(2, 0, 1)), axis=1)
    f_shift = np.zeros((m.n_faces, 2))
    f_shift[:ni] = m.f_mid[:ni] - mids_r[np.arange(ni), k_r]
    b_tag = np.empty(m.n_ghost, dtype=np.int64)
    for code, where in m.tag_slices.items():
        b_tag[where] = code
    # ghosts mirror their cell's centroid across the boundary face
    cell, (gnx, gny) = m.f_left[ni:], m.f_normal[ni:].T
    cx, cy = m.centroid.T
    depth = (m.f_mid[ni:, 0] - cx[cell]) * gnx + (m.f_mid[ni:, 1] - cy[cell]) * gny
    ghost = np.column_stack([cx[cell] + 2.0 * depth * gnx, cy[cell] + 2.0 * depth * gny])
    # a neighbour seen from its left side sits at its centroid plus the face's shift
    left = m.slot_len > 0
    shift = [np.where(left, s[m.slot_face], -s[m.slot_face]) for s in f_shift.T]
    ext = np.concatenate([m.centroid, ghost])
    nbr_dx, nbr_dy = ((ext[m.nbr, c] + s - m.centroid[:, c]).T for c, s in zip((0, 1), shift))
    return SimpleNamespace(f_len=f_len, f_shift=f_shift, b_tag=b_tag,
                           nbr_dx=nbr_dx, nbr_dy=nbr_dy, ghost_centroid=ghost)


def with_neighbors(m, u_ext):
    """(u, u_nb) of a (k, n_cells + n_ghost) field laid out with its ghost
    states after its cells: the cells' (k, n_cells) values and their
    neighbour values through ``recon.neighbor_values``."""
    n = m.n_cells
    u = u_ext[:, :n]
    return u, recon.neighbor_values(m, u, u_ext[:, n:] if m.n_ghost else None)


def gradient_gg_of(m, u_ext, alpha=None):
    """``recon.gradient_gg`` of a field laid out as ``with_neighbors`` takes it."""
    return recon.gradient_gg(m, *with_neighbors(m, u_ext), alpha=alpha)


def gradient_lsq_of(m, u_ext, alpha=None):
    """``recon.gradient_lsq`` of a field laid out as ``with_neighbors`` takes it."""
    return recon.gradient_lsq(m, recon.neighbor_deltas(m, *with_neighbors(m, u_ext)),
                              alpha=alpha)


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
