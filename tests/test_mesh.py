import hashlib

import numpy as np
import pytest

from fvgrad import bench
from fvgrad import mesh as msh
from fvgrad.mesh import BoundarySpec, MeshError
from conftest import rotated_mesh


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
    np.testing.assert_allclose(m.angles[0], 2 * np.pi / 3, rtol=1e-12)


def test_stencil_angles_rotation_invariant():
    m = _triforce_mesh()
    th = 37 * np.pi / 180
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m2 = msh.build_mesh(m.nodes @ rot.T, m.tri.copy())
    np.testing.assert_allclose(sorted(m2.angles[0]), sorted(m.angles[0]),
                               atol=1e-12)
    np.testing.assert_allclose(m2.angles[0], m.angles[0], atol=1e-12)
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
    np.testing.assert_allclose(m2.angles[0], m.angles[0], atol=1e-12)


def test_stencil_angles_match_atan2_oracle():
    m = msh.periodic_irregular_mesh(5, seed=9)
    # every stencil starts right after its (here unique) largest angle
    assert (m.angles.argmax(axis=1) == 2).all()
    for cell in np.where(m.interior_mask)[0][:20]:
        dirs = np.column_stack([m.nbr_dx[cell], m.nbr_dy[cell]])
        ang = np.arctan2(dirs[:, 1], dirs[:, 0]) % (2 * np.pi)
        expect = (np.roll(ang, -1) - ang) % (2 * np.pi)
        got = m.angles[cell]
        np.testing.assert_allclose(got, expect, atol=1e-13)
        assert all(0 < a < 2 * np.pi for a in got)
        assert abs(sum(got) - 2 * np.pi) < 1e-10


def test_periodic_pairing_lengths_and_topology():
    m = msh.periodic_structured_mesh(4)
    assert m.n_ghost == 0
    wrapped = np.abs(m.f_shift).sum(axis=1) > 0
    assert wrapped.sum() == 4 + 4  # one merged face per opposite boundary pair
    # antisymmetric neighbor offsets across the periodic wrap
    for i in range(m.n_cells):
        for k in range(3):
            j = m.nbr[i, k]
            back = np.where(m.nbr[j] == i)[0]
            assert back.size >= 1
            d_ij = np.array([m.nbr_dx[i, k], m.nbr_dy[i, k]])
            d_ji = np.column_stack([m.nbr_dx[j, back], m.nbr_dy[j, back]])
            assert np.min(np.hypot(*(d_ji + d_ij).T)) < 1e-12


def test_periodic_irregular_mesh_builds():
    m = msh.periodic_irregular_mesh(6, seed=0)
    assert m.n_ghost == 0
    assert m.interior_mask.all()
    assert (m.area > 0).all()


def test_ascii_roundtrip(tmp_path):
    m = msh.structured_mesh(3, boundary_spec=BoundarySpec.uniform("slip_wall"))
    path = tmp_path / "mesh.txt"
    msh.write_mesh_ascii(m, path)
    m2 = msh.read_mesh_ascii(path)
    np.testing.assert_allclose(m2.nodes, m.nodes, rtol=0, atol=0)
    assert (m2.tri == m.tri).all()
    assert (m2.b_tag == m.b_tag).all()


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
    assert "region" in arrays and "ghost_centroid" in arrays
    assert [k for k, v in arrays.items() if v.flags.writeable] == []


def test_ghost_centroids_are_mirrors():
    m = msh.structured_mesh(3, boundary_spec=BoundarySpec.uniform("slip_wall"))
    for bi in range(m.n_ghost):
        f = m.n_iface + bi
        c = m.f_left[f]
        mid, n = m.f_mid[f], m.f_normal[f]
        d = np.dot(mid - m.centroid[c], n)
        expect = m.centroid[c] + 2 * d * n
        np.testing.assert_allclose(m.ghost_centroid[bi], expect, atol=1e-14)


# ---------------------------------------------------------------------------
# layout digests: face order and stencil order fix every summation order, so
# a change to them changes outputs even where each value is still right
# ---------------------------------------------------------------------------

def _layout_digests(m):
    out = {}
    for name in ("tri", "f_left", "f_right", "nbr", "b_tag", "boundary_edges"):
        a = np.ascontiguousarray(getattr(m, name), dtype="<i8")
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
}


@pytest.mark.parametrize("name", sorted(SLOT_MESHES))
def test_face_slots_cover_every_stencil_slot_once(name):
    m = SLOT_MESHES[name]()
    n, ni = m.n_cells, m.n_iface
    assert m.f_slot_l.shape == (m.n_faces,) and m.f_slot_r.shape == (ni,)
    slots = np.concatenate([m.f_slot_l, m.f_slot_r])
    assert (np.sort(slots) == np.arange(3 * n)).all()
    # the slot's cell is the face's cell on that side, its neighbor the other
    nbr = m.nbr.T.ravel()
    assert (m.f_slot_l % n == m.f_left).all()
    assert (m.f_slot_r % n == m.f_right[:ni]).all()
    assert (nbr[m.f_slot_l] == m.f_right).all()
    assert (nbr[m.f_slot_r] == m.f_left[:ni]).all()
    # the centroid-to-face offset at each side's slot, bitwise
    off = m.cell_foff.reshape(2, 3 * n)
    assert (off[:, m.f_slot_l].T == m.f_mid - m.centroid[m.f_left]).all()
    assert (off[:, m.f_slot_r].T
            == m.f_mid[:ni] - m.f_shift[:ni] - m.centroid[m.f_right[:ni]]).all()
    # the inverse tables: each slot's face, and its length signed by the side
    face, length = m.slot_face.ravel(), m.slot_len.ravel()
    assert m.slot_face.shape == m.slot_len.shape == (3, n)
    assert (face[m.f_slot_l] == np.arange(m.n_faces)).all()
    assert (face[m.f_slot_r] == np.arange(ni)).all()
    assert (length[m.f_slot_l] == m.f_len).all()
    assert (length[m.f_slot_r] == -m.f_len[:ni]).all()
    # the signed length along the face normal is the cell's outward scaled normal
    assert (m.slot_len * m.f_normal[m.slot_face].transpose(2, 0, 1) == m.cell_sn).all()
