import hashlib
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import mesh as msh
from fvgrad import bc as bclib
from fvgrad import bench, mlcorr, recon, solver, train
from fvgrad.euler import GasModel, cons_to_prim, prim_to_cons


def tanh(a):
    """np.tanh of a plain or a traced array, recorded as a tape node whose
    adjoint reads the output: the network's activation for the tests that
    record it op by op."""
    out = np.tanh(ad.value_of(a))
    return ad._record(out, (a, lambda g: g * (1.0 - out * out)))


def minimum(a, b):
    """Elementwise min of plain or traced arrays, keeping NaNs as np.minimum
    does; ties send the adjoint to a, as ``ad.maximum`` does.  With ``amin``
    and ``amax``, the op-by-op limiter's."""
    if a.__class__ is not ad.Var and b.__class__ is not ad.Var:
        return np.minimum(a, b)
    av = ad.value_of(a)
    return ad.where((av <= ad.value_of(b)) | np.isnan(av), a, b)


def _extreme(a, axis, ufunc, keeps):
    """ufunc.reduce(a, axis), traced or not; traced, its value and adjoint
    are those of the chain of pairwise extremes (``ad._first_extreme``)."""
    if a.__class__ is not ad.Var:
        return ufunc.reduce(a, axis=axis)
    axis = axis % a.value.ndim
    pick, chosen = ad._first_extreme(a.value, axis, keeps)
    # 0.0 + g, as the chain's gathers scatter their adjoints into zeros
    return ad._record(pick, (a, lambda g: np.where(chosen, 0.0 + np.expand_dims(g, axis), 0.0)))


def amax(a, axis):
    """Maximum over one axis; ties send the adjoint to the first entry."""
    return _extreme(a, axis, np.maximum, np.greater_equal)


def amin(a, axis):
    """Minimum over one axis; ties send the adjoint to the first entry."""
    return _extreme(a, axis, np.minimum, np.less_equal)


def matmul(a, b):
    """a @ b of plain or traced arrays, recorded as one tape node: the
    op-by-op network's layers."""
    if a.__class__ is not ad.Var and b.__class__ is not ad.Var:
        return np.matmul(a, b)
    av, bv = ad.value_of(a), ad.value_of(b)
    return ad._record(av @ bv, (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
                      (b, lambda g: np.swapaxes(av, -1, -2) @ g))


def mean(a, axis=None, keepdims=False):
    """``ad.mean`` of a plain or traced array; traced, its adjoint spreads
    g / n back over the n entries of each mean: the op-by-op network's
    normalisation."""
    if a.__class__ is not ad.Var:
        return ad.mean(a, axis, keepdims)
    out = ad.mean(a.value, axis, keepdims)
    n = a.value.size // max(out.size, 1)
    shape = a.value.shape
    return ad._record(out, (a, lambda g: ad._spread(g / n, axis, keepdims, shape)))


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


def loss_case(mesh_name, b, k, state="smooth", limiter_k=5.0):
    """Inputs of the training loss program at K = k on a group of b: a mesh
    of b copies of ``periodic_structured_mesh(6)`` or of the 504-cell
    forward step, its bc table, an ml_lsq StepConfig, the stacked states at
    t and the plain mode's k primitive reference states.  ``state`` is
    "smooth" (``smooth_prim_field`` times noise per cell and variable) or
    "piecewise" (two constant states, left and right of the mesh's mean x,
    each sample's scaled by one factor)."""
    gas = GasModel()
    m, bc_table = ((msh.periodic_structured_mesh(6), {}) if mesh_name == "periodic"
                   else bench.forward_step_mesh(0.2))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq", limiter_k=limiter_k)
    dt = solver.compute_dt(m, cfg)
    rng = np.random.default_rng(5)
    if state == "smooth":
        u_t = [smooth_prim_field(m.centroid) * rng.uniform(0.9, 1.1, (m.n_cells, 4))
               for _ in range(b)]
    else:
        left = m.centroid[:, :1] < m.centroid[:, 0].mean()
        u_t = [np.where(left, [1.0, 0.2, 0.0, 1.0], [0.5, 0.2, 0.0, 0.4]) * rng.uniform(0.9, 1.1)
               for _ in range(b)]
    w_t = [prim_to_cons(u, gas) for u in u_t]
    refs = [[cons_to_prim(w, gas) for _, w, _ in solver.march(m, w0, dt, k, cfg.plain(),
                                                              bc_table)] for w0 in w_t]
    return (m.copies(b), bclib.tile_table(bc_table, b), cfg, np.concatenate(w_t),
            [np.concatenate(step) for step in zip(*refs)])


def loss_gradients(case, params):
    """Loss and gradient of the training loss program on ``loss_case``'s
    inputs, with respect to the network's parameter vector."""
    m, bc_table, cfg, w_t, u_refs = case
    program, _ = train._loss_program(m, cfg, bc_table, params, w_t, u_refs,
                                     train.LossWeights())
    return ad.record_and_backprop(program, params.values)


@pytest.fixture(scope="session")
def stencils_10k():
    """The untraced step's stencil inputs on the 10,082-cell
    ``periodic_irregular_mesh(71)`` under Riemann case 6: (mesh, u, u_nb,
    du, delta), delta the face increments of the plain LSQ gradient."""
    m = msh.periodic_irregular_mesh(71)
    u = np.ascontiguousarray(bench.riemann_case(6).evaluate(m.centroid).T)
    u_nb = recon.neighbor_values(m, u, None)
    du = recon.neighbor_deltas(m, u, u_nb)
    return m, u, u_nb, du, recon.face_increments(m, recon.gradient_lsq(m, du))


def untraced_peak(call):
    """Bytes a warm ``call()`` allocates at its peak above what it starts
    with (tracemalloc, which sees numpy's arrays)."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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


def full_round_lattice_delaunay(pts, grid, tol):
    """``mesh._lattice_delaunay`` with every round re-pairing all half-edges
    by ``mesh._edges`` and re-testing every interior edge: the oracle of the
    rounds that re-test only the edges near the last flips.  The same split,
    the same selection rule and the same flips, so the same triangles."""
    a, b = grid[:-1, :-1].ravel(), grid[:-1, 1:].ravel()
    c, d = grid[1:, 1:].ravel(), grid[1:, :-1].ravel()
    ac = (msh._orient(pts, a, b, c) > 0) & (msh._orient(pts, a, c, d) > 0)
    bd = ~ac | (msh._incircle(pts, a, b, c, d) > tol)
    tri = np.where(bd[:, None], np.column_stack([a, b, d, b, c, d]),
                   np.column_stack([a, b, c, a, c, d])).reshape(-1, 3)
    for _ in range(msh.LAWSON_MAX_ROUNDS):
        _, first, second = msh._edges(tri, len(pts))
        e = np.flatnonzero(second >= 0)
        t1, k1 = np.divmod(first[e], 3)
        t2, k2 = np.divmod(second[e], 3)
        p, q, r = tri[t1, k1], tri[t1, (k1 + 1) % 3], tri[t1, (k1 + 2) % 3]
        s = tri[t2, (k2 + 2) % 3]
        bad = np.flatnonzero(msh._incircle(pts, p, q, r, s) > tol)
        if not bad.size:
            return tri
        least = np.full(len(tri), len(e))
        np.minimum.at(least, t1[bad], bad)
        np.minimum.at(least, t2[bad], bad)
        go = bad[(least[t1[bad]] == bad) & (least[t2[bad]] == bad)]
        tri[t1[go]] = np.column_stack([p[go], s[go], r[go]])
        tri[t2[go]] = np.column_stack([s[go], q[go], r[go]])
    raise msh.MeshError(f"Lawson flips did not converge in {msh.LAWSON_MAX_ROUNDS} rounds")


def tiled_copies(m, b):
    """``Mesh.copies(b)`` of a mesh m with every table tiled field by field
    from m's, without a build: the oracle of the copies' per-cell tables,
    nodes, triangles, tag slices and ghosts.  Its interior faces come copy by
    copy, each copy's periodic faces after its plain ones, where the build
    lists every copy's plain interior faces before the periodic ones."""
    n, ni, nn = m.n_cells, m.n_iface, len(m.nodes)
    copy = np.arange(b)
    # (copy, face of m) of each face of the copies, in this tiling's order
    runs = [np.arange(ni)] + [ni + np.arange(s.start, s.stop) for s in m.tag_slices.values()]
    src_face = np.concatenate([np.tile(r, b) for r in runs])
    src_copy = np.concatenate([np.repeat(copy, len(r)) for r in runs])
    face = np.empty((b, m.n_faces), dtype=np.int64)
    face[src_copy, src_face] = np.arange(b * m.n_faces)
    # each copy's ids as f_right and nbr name them: cells, then ghosts
    ext = np.concatenate([n * copy[:, None] + np.arange(n), b * n + face[:, ni:] - b * ni],
                         axis=1)

    def slot(c, s):
        return s // n * (b * n) + c * n + s % n

    def tiled(a):
        return np.tile(a, b)      # along the last (cell) axis

    face_slots = slot(src_copy, m.face_slots[:, src_face])
    face_slots[1, b * ni:] = 3 * b * n + np.arange(b * (m.n_faces - ni))

    return msh.Mesh(
        nodes=np.tile(m.nodes, (b, 1)),
        tri=(m.tri + nn * copy[:, None, None]).reshape(-1, 3),
        area=tiled(m.area), inv_area=tiled(m.inv_area), sqrt_area=tiled(m.sqrt_area),
        centroid=np.tile(m.centroid, (b, 1)),
        f_left=ext[src_copy, m.f_left[src_face]], f_right=ext[src_copy, m.f_right[src_face]],
        f_normal=m.f_normal[src_face], f_mid=m.f_mid[src_face], n_iface=b * ni,
        face_slots=face_slots,
        tag_slices={code: slice(b * s.start, b * s.stop) for code, s in m.tag_slices.items()},
        boundary_edges=np.concatenate([m.boundary_edges + [nn * c, nn * c, 0, 0]
                                       for c in copy]),
        nbr=ext[:, m.nbr].transpose(1, 0, 2).reshape(3, -1),
        lsq_wd=tiled(m.lsq_wd), inv11=tiled(m.inv11), inv12=tiled(m.inv12),
        inv22=tiled(m.inv22), angles=tiled(m.angles),
        interior_mask=tiled(m.interior_mask), cell_foff=tiled(m.cell_foff),
        cell_sn=tiled(m.cell_sn),
        slot_face=face[:, m.slot_face].transpose(1, 0, 2).reshape(3, -1),
        slot_len=tiled(m.slot_len),
        region=None if m.region is None else tiled(m.region),
    )


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
