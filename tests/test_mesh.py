import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fvgrad import bench
from fvgrad import mesh as msh
from fvgrad.mesh import BoundarySpec, MeshError
from conftest import mesh_geometry, rotated_mesh


def test_unit_right_triangle_geometry():
    m = msh.build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert m.area[0] == pytest.approx(0.5, abs=0)
    np.testing.assert_allclose(m.centroid[0], [1 / 3, 1 / 3], rtol=1e-15)


def test_two_triangles_shared_edge_normal():
    m = msh.build_mesh([(0, 0), (1, 1), (1, 0), (0, 1)],
                       [(0, 2, 1), (0, 1, 3)])
    assert m.n_iface == 1
    n = m.f_normal[0]
    edge = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(np.dot(n, edge)) < 1e-14
    assert abs(np.hypot(*n) - 1.0) < 1e-12


def test_ccw_reorientation():
    m = msh.build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # clockwise input
    p = m.nodes[m.tri[0]]
    cross = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - \
            (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
    assert cross > 0


def test_structured_split_counts_and_closure():
    n = 5
    m = msh.periodic_structured_mesh(n)
    assert m.n_cells == 2 * n * n
    assert m.interior_mask.all()
    # brute-force closure over every cell
    for i in range(m.n_cells):
        total = np.zeros(2)
        perim = 0.0
        for k in range(3):
            total += m.cell_sn[:, k, i]
            perim += np.hypot(*m.cell_sn[:, k, i])
        assert np.hypot(*total) <= 1e-12 * perim


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError, match="cell"):
        msh.build_mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])


def test_duplicate_triangle_rejected():
    with pytest.raises(MeshError, match="duplicate"):
        msh.build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)])


def test_repeated_node_rejected():
    nodes = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(MeshError, match="repeated node: cell 1"):
        msh.build_mesh(nodes, [(0, 1, 2), (1, 3, 3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad_nodes,first", [([1], 1), ([4], 4), ([4, 2], 2)])
def test_non_finite_node_rejected(bad, bad_nodes, first):
    """The first such node is named, even an unused one (node 4), which
    would poison the mesh's length scale.  A NaN gave NaN areas and
    centroids, an inf a "zero area" triangle."""
    nodes = np.array([(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)], dtype=np.float64)
    nodes[bad_nodes, 1] = bad
    with pytest.raises(MeshError, match=f"non-finite node coordinate: node {first} "):
        msh.build_mesh(nodes, [(0, 1, 2), (1, 3, 2)])


def test_non_manifold_edge_rejected():
    nodes = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0.5)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(MeshError, match="non-manifold"):
        msh.build_mesh(nodes, tris)


def test_refine_single_triangle():
    m = msh.build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    fine, pm = msh.refine_uniform(m)
    assert fine.n_cells == 4
    np.testing.assert_allclose(fine.area, m.area[0] / 4, rtol=1e-12)
    np.testing.assert_allclose(pm.child_area.sum(axis=1), pm.parent_area,
                               rtol=1e-12)


def test_refine_quadruples_and_preserves_area():
    m = msh.periodic_irregular_mesh(5, seed=2)
    fine, pm = msh.refine_uniform(m)
    assert fine.n_cells == 4 * m.n_cells
    assert abs(fine.area.sum() - m.area.sum()) <= 1e-12 * m.area.sum()
    # paper-scale arithmetic: a 2614-cell coarse mesh refines to 10456 cells
    assert 4 * 2614 == 10456


def test_refine_twice_composes_parent_maps():
    m = msh.periodic_structured_mesh(3)
    f1, pm1 = msh.refine_uniform(m)
    f2, pm2 = msh.refine_uniform(f1)
    assert f2.n_cells == 16 * m.n_cells
    # areas of the 16 descendants sum to the root area
    for root in range(m.n_cells):
        mids = pm1.children[root]
        leaves = pm2.children[mids].ravel()
        assert abs(f2.area[leaves].sum() - m.area[root]) <= 1e-12


def test_projection_constant_and_mean():
    m = msh.build_mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    fine, pm = msh.refine_uniform(m)
    const = np.full((4, 4), 3.7)
    np.testing.assert_allclose(msh.project_fine_to_coarse(const, pm), 3.7,
                               rtol=1e-14)
    vals = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = msh.project_fine_to_coarse(vals, pm)
    assert out[0, 0] == pytest.approx(2.5, rel=1e-13)


def test_projection_conserves_integral(rng):
    m = msh.periodic_irregular_mesh(6, seed=4)
    fine, pm = msh.refine_uniform(m)
    w = rng.normal(size=(fine.n_cells, 4))
    proj = msh.project_fine_to_coarse(w, pm)
    tot_fine = (fine.area[:, None] * w).sum(axis=0)
    tot_coarse = (m.area[:, None] * proj).sum(axis=0)
    np.testing.assert_allclose(tot_coarse, tot_fine, rtol=1e-13)


def test_projection_size_mismatch_rejected():
    m = msh.periodic_structured_mesh(3)
    fine, pm = msh.refine_uniform(m)
    with pytest.raises(ValueError, match="rows"):
        msh.project_fine_to_coarse(np.zeros((5, 4)), pm)


def _triforce_mesh():
    """Equilateral center triangle with its three edge reflections."""
    s = 1.0
    h = s * np.sqrt(3) / 2
    nodes = [(0, 0), (1, 0), (0.5, h),          # center (up-pointing)
             (0.5, -h), (1.5, h), (-0.5, h)]
    tris = [(0, 1, 2), (0, 3, 1), (1, 4, 2), (0, 2, 5)]
    return msh.build_mesh(nodes, tris)


def test_stencil_angles_equilateral():
    m = _triforce_mesh()
    np.testing.assert_allclose(m.angles[:, 0], 2 * np.pi / 3, rtol=1e-12)


def test_stencil_angles_rotation_invariant():
    m = _triforce_mesh()
    th = 37 * np.pi / 180
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m2 = msh.build_mesh(m.nodes @ rot.T, m.tri.copy())
    np.testing.assert_allclose(sorted(m2.angles[:, 0]), sorted(m.angles[:, 0]),
                               atol=1e-12)
    np.testing.assert_allclose(m2.angles[:, 0], m.angles[:, 0], atol=1e-12)
    # the triforce's equal angles cannot show a cyclic shift of the stencil;
    # an irregular mesh has a unique largest angle in every cell
    m = msh.periodic_irregular_mesh(5, seed=21)
    m2 = rotated_mesh(m, 0.31)
    assert (m2.nbr == m.nbr).all()
    np.testing.assert_allclose(m2.angles, m.angles, atol=1e-12)


def test_stencil_order_rotation_invariant_with_tied_angles():
    # corner cells of a walled structured mesh have two equal largest angles
    # (mirrored ghost centroids); the tie-break must not depend on orientation
    m = msh.structured_mesh(6, boundary_spec=BoundarySpec.uniform("slip_wall"))
    for th in (1.0, np.pi / 2, np.pi):
        m2 = rotated_mesh(m, th)
        assert (m2.nbr == m.nbr).all()
        np.testing.assert_allclose(m2.angles, m.angles, atol=1e-12)


def test_stencil_angles_translation_invariant():
    m = _triforce_mesh()
    m2 = msh.build_mesh(m.nodes + np.array([2.3, -1.7]), m.tri.copy())
    np.testing.assert_allclose(m2.angles[:, 0], m.angles[:, 0], atol=1e-12)


def test_stencil_angles_match_atan2_oracle():
    m = msh.periodic_irregular_mesh(5, seed=9)
    # every stencil starts right after its (here unique) largest angle
    assert (m.angles.argmax(axis=0) == 2).all()
    geo = mesh_geometry(m)
    for cell in np.where(m.interior_mask)[0][:20]:
        dirs = np.column_stack([geo.nbr_dx[cell], geo.nbr_dy[cell]])
        ang = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2 * np.pi)
        expect = (np.roll(ang, -1) - ang) % (2 * np.pi)
        got = m.angles[:, cell]
        np.testing.assert_allclose(got, expect, atol=1e-13)
        assert all(0 < a < 2 * np.pi for a in got)
        assert abs(sum(got) - 2 * np.pi) < 1e-10


def test_periodic_pairing_lengths_and_topology():
    m = msh.periodic_structured_mesh(4)
    assert m.n_ghost == 0
    geo = mesh_geometry(m)
    wrapped = np.abs(geo.f_shift).sum(axis=1) > 0
    assert wrapped.sum() == 4 + 4  # one merged face per opposite boundary pair
    # antisymmetric neighbor offsets across the periodic wrap
    for i in range(m.n_cells):
        for k in range(3):
            j = m.nbr[k, i]
            back = np.where(m.nbr[:, j] == i)[0]
            assert back.size >= 1
            d_ij = np.array([geo.nbr_dx[i, k], geo.nbr_dy[i, k]])
            d_ji = np.column_stack([geo.nbr_dx[j, back], geo.nbr_dy[j, back]])
            assert np.min(np.hypot(*(d_ji + d_ij).T)) < 1e-12


def test_periodic_irregular_mesh_builds():
    m = msh.periodic_irregular_mesh(6, seed=0)
    assert m.n_ghost == 0
    assert m.interior_mask.all()
    assert (m.area > 0).all()


def _triangle_set(tri):
    return {tuple(sorted(t)) for t in np.asarray(tri).tolist()}


@pytest.mark.parametrize("n,seeds", [(27, 5), (50, 5), (71, 5), (100, 5)]
                         + [(n, 10) for n in (2, 3, 5, 6, 8, 12)])
def test_irregular_mesh_is_the_delaunay_triangulation_of_its_nodes(n, seeds):
    """Qhull is the oracle: the same triangles, 2 n^2 of them."""
    delaunay = pytest.importorskip("scipy.spatial").Delaunay
    for seed in range(seeds):
        m = msh.periodic_irregular_mesh(n, seed)
        assert m.n_cells == 2 * n * n, seed
        assert _triangle_set(m.tri) == _triangle_set(delaunay(m.nodes).simplices), seed


def _exact_delaunay_violations(m):
    """Exact arithmetic on the float nodes, scaled to integers by their
    common power-of-two denominator: the clockwise or flat triangles, the
    interior edges whose opposite node lies strictly inside the circle
    through the other triangle, and the total signed area."""
    exact = [Fraction(v) for v in m.nodes.ravel().tolist()]
    scale = max(v.denominator for v in exact)
    ints = [int(v * scale) for v in exact]
    p = list(zip(ints[0::2], ints[1::2]))

    def orient(a, b, c):
        return ((p[b][0] - p[a][0]) * (p[c][1] - p[a][1])
                - (p[b][1] - p[a][1]) * (p[c][0] - p[a][0]))

    def incircle(a, b, c, d):
        rows = [(p[v][0] - p[d][0], p[v][1] - p[d][1]) for v in (a, b, c)]
        (ax, ay), (bx, by), (cx, cy) = rows
        return ((ax * ax + ay * ay) * (bx * cy - cx * by)
                + (bx * bx + by * by) * (cx * ay - ax * cy)
                + (cx * cx + cy * cy) * (ax * by - bx * ay))

    tris = m.tri.tolist()
    opposite = {(t[k], t[(k + 1) % 3]): t[(k + 2) % 3] for t in tris for k in range(3)}
    flat = [t for t in tris if orient(*t) <= 0]
    illegal = [(a, b) for (a, b), c in opposite.items()
               if (b, a) in opposite and incircle(a, b, c, opposite[b, a]) > 0]
    return flat, illegal, Fraction(sum(orient(*t) for t in tris), 2 * scale * scale)


@pytest.mark.parametrize("jitter", [0.05, 0.35, 0.45, 0.49])
@pytest.mark.parametrize("lx,ly", [(1.0, 1.0), (2.0, 0.5), (3.0, 1.0)])
def test_irregular_mesh_is_exactly_delaunay(lx, ly, jitter):
    """Every triangle counter-clockwise, every interior edge locally Delaunay
    and the box covered once, in exact arithmetic.  This holds where Qhull
    does not: its triangulation of irregular_mesh(3, seed=4, lx=3.0,
    jitter=0.45) has one edge with the opposite node strictly inside."""
    for n in range(1, 13):
        for seed in (0, 4):
            m = msh.irregular_mesh(n, seed, lx, ly, jitter)
            assert m.n_cells == 2 * n * n
            flat, illegal, area = _exact_delaunay_violations(m)
            assert not flat and not illegal, (n, seed, flat, illegal)
            assert area == Fraction(lx) * Fraction(ly), (n, seed)


def test_irregular_mesh_at_zero_jitter_is_the_lattice_split():
    """Every quad is co-circular and keeps the split of structured_mesh, quads
    row by row where structured_mesh takes them column by column."""
    for lx, ly in [(1.0, 1.0), (2.0, 0.5)]:
        for n in (1, 2, 7):
            m = msh.irregular_mesh(n, lx=lx, ly=ly, jitter=0.0)
            s = msh.structured_mesh(n, lx=lx, ly=ly)
            by_column = s.nodes[s.tri].reshape(n, n, 2, 3, 2)
            assert np.array_equal(m.nodes[m.tri], by_column.transpose(1, 0, 2, 3, 4)
                                  .reshape(-1, 3, 2)), (lx, ly, n)


IRREGULAR_STEP_PROBE = """
import sys
import numpy as np
from fvgrad import mesh, mlcorr, solver
from fvgrad.euler import GasModel, prim_to_cons
m = mesh.periodic_irregular_mesh(8)
cfg = solver.StepConfig(co=0.05, gradient="ml_lsq")
w = prim_to_cons(np.tile([1.0, 0.1, 0.2, 1.0], (m.n_cells, 1)), GasModel())
solver.step_explicit_euler(m, w, solver.compute_dt(m, cfg), cfg, {}, mlcorr.zero_params())
print(*sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_an_irregular_mesh_step_loads_no_scipy():
    """Importing scipy.spatial costs a process about 36 MB: building an irregular
    mesh and stepping on it, in a fresh interpreter, must not load scipy."""
    env = dict(os.environ)
    src = str(Path(msh.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IRREGULAR_STEP_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("jitter", [-0.1, 0.5, np.nan])
def test_irregular_mesh_rejects_jitter_outside_the_lattice_cell(jitter):
    with pytest.raises(ValueError, match="jitter"):
        msh.irregular_mesh(4, jitter=jitter)


def test_ascii_roundtrip(tmp_path):
    m = msh.structured_mesh(3, boundary_spec=BoundarySpec.uniform("slip_wall"))
    path = tmp_path / "mesh.txt"
    msh.write_mesh_ascii(m, path)
    m2 = msh.read_mesh_ascii(path)
    np.testing.assert_allclose(m2.nodes, m.nodes, rtol=0, atol=0)
    assert (m2.tri == m.tri).all()
    assert (mesh_geometry(m2).b_tag == mesh_geometry(m).b_tag).all()


def test_ascii_periodic_roundtrip(tmp_path):
    m = msh.periodic_structured_mesh(3)
    path = tmp_path / "mesh.txt"
    msh.write_mesh_ascii(m, path)
    m2 = msh.read_mesh_ascii(path)
    assert m2.n_ghost == 0
    assert m2.n_iface == m.n_iface


def test_a_mesh_read_from_file_is_read_only(tmp_path):
    path = tmp_path / "mesh.txt"
    msh.write_mesh_ascii(msh.structured_mesh(3, boundary_spec=BoundarySpec.uniform("slip_wall")),
                         path)
    m = msh.read_mesh_ascii(path)
    arrays = {k: v for k, v in vars(m).items() if isinstance(v, np.ndarray)}
    assert "region" in arrays
    assert [k for k, v in arrays.items() if v.flags.writeable] == []


def test_ghost_centroids_are_mirrors():
    m = msh.structured_mesh(3, boundary_spec=BoundarySpec.uniform("slip_wall"))
    ghost_centroid = mesh_geometry(m).ghost_centroid
    for bi in range(m.n_ghost):
        f = m.n_iface + bi
        c = m.f_left[f]
        mid, n = m.f_mid[f], m.f_normal[f]
        d = np.dot(mid - m.centroid[c], n)
        expect = m.centroid[c] + 2 * d * n
        np.testing.assert_allclose(ghost_centroid[bi], expect, atol=1e-14)


# ---------------------------------------------------------------------------
# layout digests: face order and stencil order fix every summation order, so
# a change to them changes outputs even where each value is still right
# ---------------------------------------------------------------------------

def _layout_digests(m):
    out = {}
    # nbr hashed one row per cell, as the build stored it when these were pinned
    arrays = {**vars(m), "b_tag": mesh_geometry(m).b_tag, "nbr": m.nbr.T}
    for name in ("tri", "f_left", "f_right", "nbr", "b_tag", "boundary_edges"):
        a = np.ascontiguousarray(arrays[name], dtype="<i8")
        out[name] = hashlib.sha256(a.tobytes()).hexdigest()[:16]
    layout = f"{m.n_iface};" + ";".join(
        f"{c}:{s.start}:{s.stop}" for c, s in sorted(m.tag_slices.items()))
    out["layout"] = hashlib.sha256(layout.encode()).hexdigest()[:16]
    return out


LAYOUT_DIGESTS = {
    "periodic_structured_6": {
        "tri": "5c978131f76d10b4", "f_left": "f1a294e5c4d13850",
        "f_right": "3186412f97666ace", "nbr": "9f8138accd194888",
        "b_tag": "e3b0c44298fc1c14", "boundary_edges": "b76639ca25785b8a",
        "layout": "446aface1e1e851d"},
    "slip_wall_structured_6": {
        "tri": "5c978131f76d10b4", "f_left": "c7ed97f9720e6ac0",
        "f_right": "56f8ef1181e414f5", "nbr": "c07f6145dce8be82",
        "b_tag": "382b24dca5aee4f7", "boundary_edges": "25fb5194e1904da1",
        "layout": "6057274a617fc2ff"},
    "forward_step_0.2": {
        "tri": "fa52ce7580c8a7a7", "f_left": "cd53f747a80ec4a3",
        "f_right": "31025ba0c10a33ad", "nbr": "0f14471d0097b377",
        "b_tag": "02f4c21555543c0a", "boundary_edges": "401ecad853099947",
        "layout": "3a74495c3800118d"},
    "refined_periodic_structured_6": {
        "tri": "7ef72bc5c1887813", "f_left": "72b284955107c7e1",
        "f_right": "73377ce45ef22ab5", "nbr": "77d2944c8252357f",
        "b_tag": "e3b0c44298fc1c14", "boundary_edges": "f71bde64b69289a1",
        "layout": "a2bffbf703cf8bae"},
}


def _layout_mesh(name):
    if name == "periodic_structured_6":
        return msh.periodic_structured_mesh(6)
    if name == "slip_wall_structured_6":
        return msh.structured_mesh(6, boundary_spec=BoundarySpec.uniform("slip_wall"))
    if name == "forward_step_0.2":
        return bench.forward_step_mesh(0.2)[0]
    return msh.refine_uniform(msh.periodic_structured_mesh(6))[0]


@pytest.mark.parametrize("name", sorted(LAYOUT_DIGESTS))
def test_mesh_layout_digests(name):
    assert _layout_digests(_layout_mesh(name)) == LAYOUT_DIGESTS[name]


def _array_digest(m):
    """One digest of every array of a mesh: its bytes, dtype, shape and
    strides, so its memory layout too; plus n_iface and tag_slices."""
    h = hashlib.sha256(f"{m.n_iface};{sorted(m.tag_slices.items())}".encode())
    for name, a in sorted(vars(m).items()):
        if isinstance(a, np.ndarray):
            h.update(f"{name};{a.dtype.str};{a.shape};{a.strides};"
                     f"{a.flags.c_contiguous}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# periodic_irregular_27 was re-recorded when irregular meshes moved from Qhull
# to Lawson flips: the same triangles, renumbered, with areas and centroids
# within 1.5e-16 and 2.3e-16 of their largest entries.  All six were
# re-recorded when the mesh stopped keeping f_len, f_shift, b_tag, nbr_dx,
# nbr_dy and ghost_centroid (``conftest.mesh_geometry`` computes them): the
# new values are the old digests taken without those six arrays.  All six
# were re-recorded when f_slot_l and f_slot_r became the rows of face_slots:
# each new value is the old build's digest with those two arrays replaced by
# the (2, F) table made of them and the ghosts' 3 N + j.  All six were
# re-recorded when nbr and angles moved from (N, 3) to (3, N): each new
# value is the old build's digest with those two arrays transposed and
# contiguous
ARRAY_DIGESTS = {
    "periodic_structured_6": "9ed5efad9a7dd18f",
    "slip_wall_structured_6": "2f1b5ed798778073",
    "forward_step_0.2": "faea9d5b38db6b41",
    "refined_periodic_structured_6": "3d00c2a3efd4b6cd",
    "periodic_irregular_27": "238be4c5606934b3",
    "forward_step_0.1": "6e5b5c6355eb9715",
}


@pytest.mark.parametrize("name", sorted(ARRAY_DIGESTS))
def test_every_mesh_array_is_pinned(name):
    """Every array bitwise and laid out as recorded, beyond the topology
    that LAYOUT_DIGESTS pins: the build may change how it computes them,
    never what it stores."""
    if name == "periodic_irregular_27":
        m = msh.periodic_irregular_mesh(27)
    elif name == "forward_step_0.1":
        m = bench.forward_step_mesh(0.1)[0]
    else:
        m = _layout_mesh(name)
    assert _array_digest(m) == ARRAY_DIGESTS[name]


def _square_fan(ys_left, ys_right):
    """Unit square fanned from its centre, with extra nodes on the sides.

    ``ys_left`` and ``ys_right`` are the heights of the nodes that split
    the left and the right side into several boundary edges.
    """
    ring = ([(0.0, 0.0), (1.0, 0.0)] + [(1.0, y) for y in sorted(ys_right)]
            + [(1.0, 1.0), (0.0, 1.0)] + [(0.0, y) for y in sorted(ys_left, reverse=True)])
    n = len(ring)
    tris = [(n, k, (k + 1) % n) for k in range(n)]
    return ring + [(0.5, 0.5)], tris


@pytest.mark.parametrize("ys_left, ys_right, message", [
    ([0.5], [], "periodic group 1 has an odd number of faces"),
    ([1 / 3, 2 / 3], [], "periodic group 1: sides do not split evenly"),
    ([1 / 3, 2 / 3], [0.2, 0.4], "periodic group 1: no partner for face at"),
    ([0.5], [0.3], "periodic group 1: paired faces differ in length"),
])
def test_periodic_sides_that_do_not_match_are_rejected(ys_left, ys_right, message):
    msh.build_mesh(*_square_fan([0.5], [0.5]), BoundarySpec.periodic_box())  # sides match
    nodes, tris = _square_fan(ys_left, ys_right)
    with pytest.raises(MeshError, match=message):
        msh.build_mesh(nodes, tris, BoundarySpec.periodic_box())


def test_boundary_faces_without_a_tag_are_rejected():
    nodes, tris = _square_fan([], [])
    with pytest.raises(MeshError, match="matched no boundary rule"):
        msh.build_mesh(nodes, tris, BoundarySpec(rules=[]))
    with pytest.raises(MeshError, match=r"boundary edge \(0, 1\) has no entry"):
        msh.build_mesh(nodes, tris, BoundarySpec.from_edge_table({(1, 2): (5, 0)}))


# ---------------------------------------------------------------------------
# stencil slots: slot j * N + i is neighbor j of cell i, and every slot is
# one side of exactly one face
# ---------------------------------------------------------------------------

SLOT_MESHES = {
    "periodic_structured_27": lambda: msh.periodic_structured_mesh(27),
    "periodic_irregular_27": lambda: msh.periodic_irregular_mesh(27),
    "periodic_irregular_100": lambda: msh.periodic_irregular_mesh(100),
    "structured_8": lambda: msh.structured_mesh(8),
    "forward_step_0.02": lambda: bench.forward_step_mesh(0.02)[0],
    "forward_step_0.1": lambda: bench.forward_step_mesh(0.1)[0],
    "slip_wall_structured_6": lambda: msh.structured_mesh(
        6, boundary_spec=BoundarySpec.uniform("slip_wall")),
    "refined_irregular_6": lambda: msh.refine_uniform(msh.irregular_mesh(6, seed=5))[0],
    "periodic_irregular_8_copies_3": lambda: msh.periodic_irregular_mesh(8, seed=3).copies(3),
    "forward_step_0.1_copies_2": lambda: bench.forward_step_mesh(0.1)[0].copies(2),
}


@pytest.mark.parametrize("name", sorted(SLOT_MESHES))
def test_face_slots_cover_every_stencil_slot_once(name):
    m = SLOT_MESHES[name]()
    n, ni = m.n_cells, m.n_iface
    geo = mesh_geometry(m)
    assert m.face_slots.shape == (2, m.n_faces)
    f_slot_l, f_slot_r = m.face_slots[0], m.face_slots[1, :ni]
    # a boundary face's right side is its ghost, numbered after the slots
    assert (m.face_slots[1, ni:] == 3 * n + m.f_right[ni:] - n).all()
    assert (m.f_right[ni:] == n + np.arange(m.n_ghost)).all()
    slots = np.concatenate([f_slot_l, f_slot_r])
    assert (np.sort(slots) == np.arange(3 * n)).all()
    # the slot's cell is the face's cell on that side, its neighbor the other
    nbr = m.nbr.ravel()
    assert (f_slot_l % n == m.f_left).all()
    assert (f_slot_r % n == m.f_right[:ni]).all()
    assert (nbr[f_slot_l] == m.f_right).all()
    assert (nbr[f_slot_r] == m.f_left[:ni]).all()
    # the centroid-to-face offset at each side's slot, bitwise
    off = m.cell_foff.reshape(2, 3 * n)
    assert (off[:, f_slot_l].T == m.f_mid - m.centroid[m.f_left]).all()
    assert (off[:, f_slot_r].T
            == m.f_mid[:ni] - geo.f_shift[:ni] - m.centroid[m.f_right[:ni]]).all()
    # the inverse tables: each slot's face, and its length signed by the side
    face, length = m.slot_face.ravel(), m.slot_len.ravel()
    assert m.slot_face.shape == m.slot_len.shape == (3, n)
    assert (face[f_slot_l] == np.arange(m.n_faces)).all()
    assert (face[f_slot_r] == np.arange(ni)).all()
    assert (length[f_slot_l] == geo.f_len).all()
    assert (length[f_slot_r] == -geo.f_len[:ni]).all()
    # the signed length along the face normal is the cell's outward scaled normal
    assert (m.slot_len * m.f_normal[m.slot_face].transpose(2, 0, 1) == m.cell_sn).all()


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("name", ["periodic_structured_27", "forward_step_0.1",
                                  "slip_wall_structured_6"])
def test_copies_are_the_mesh_b_times_with_no_face_between_them(name, b):
    """Copy c is cells c N to (c + 1) N - 1 with this mesh's per-cell
    constants and its neighbours offset by c N; interior faces come copy by
    copy, then each tag's boundary faces copy by copy, with their ghosts.
    The copies report their count: b, and b * 2 for copies of them."""
    m = SLOT_MESHES[name]()
    c = m.copies(b)
    assert m.copies(1) is m and m.copies(b) is c
    assert (m.n_copies, c.n_copies, c.copies(2).n_copies) == (1, b, 2 * b)
    n, ni, nb = m.n_cells, m.n_iface, m.n_ghost
    assert (c.n_cells, c.n_faces, c.n_iface) == (b * n, b * m.n_faces, b * ni)
    assert c.tag_slices == {k: slice(b * s.start, b * s.stop) for k, s in m.tag_slices.items()}
    assert [k for k, v in vars(c).items() if isinstance(v, np.ndarray) and v.flags.writeable] == []
    for name_ in ("area", "lsq_wd", "cell_foff", "cell_sn", "slot_len", "interior_mask"):
        assert (getattr(c, name_) == np.tile(getattr(m, name_), b)).all(), name_
    assert (c.angles == np.tile(m.angles, b)).all()
    # interior faces of copy k are this mesh's, offset by k N
    for k in range(b):
        f = slice(k * ni, (k + 1) * ni)
        assert (c.f_left[f] == m.f_left[:ni] + k * n).all()
        assert (c.f_right[f] == m.f_right[:ni] + k * n).all()
        assert (c.f_normal[f] == m.f_normal[:ni]).all()
    # boundary faces: per tag, copy by copy; the ghost of face n_iface + g is b N + g
    for code, s in m.tag_slices.items():
        g = np.arange(s.start, s.stop)
        for k in range(b):
            cg = b * s.start + k * len(g) + np.arange(len(g))
            assert (c.f_left[c.n_iface + cg] == m.f_left[ni + g] + k * n).all()
            assert (c.f_mid[c.n_iface + cg] == m.f_mid[ni + g]).all()
            assert (c.f_right[c.n_iface + cg] == b * n + cg).all()
    # no neighbour across copies; a cell's ghost neighbours are its copy's
    cells = np.arange(b * n) // n
    real = c.nbr < b * n
    assert (c.nbr[real] // n == np.broadcast_to(cells, c.nbr.shape)[real]).all()
    assert ((c.nbr >= b * n).sum(axis=0) == np.tile((m.nbr >= n).sum(axis=0), b)).all()
    assert nb * b == c.n_ghost
