import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import mesh as msh
from fvgrad import recon
from fvgrad.mesh import BoundarySpec
from conftest import (amax, amin, gradient_gg_of, gradient_lsq_of, loss_case, loss_gradients,
                      mesh_geometry, minimum, untraced_peak, with_neighbors)


def extended_field(mesh, fn):
    """Evaluate an analytic primitive field on cells and ghost mirrors, as
    one (4, n_cells + n_ghost) field, its ghost states after its cells."""
    vals = fn(mesh.centroid)
    if mesh.n_ghost:
        vals = np.vstack([vals, fn(mesh_geometry(mesh).ghost_centroid)])
    return vals.T


def linear_field(a=(2.0, -5.0, 0.5, 1.0), b=(3.0, 1.0, -2.0, 0.25)):
    a = np.asarray(a)
    b = np.asarray(b)

    def fn(pts):
        return 3.0 + np.outer(pts[:, 0], a) + np.outer(pts[:, 1], b)

    return fn, a, b


@pytest.fixture(scope="module")
def bounded_irregular():
    return msh.irregular_mesh(6, seed=5,
                              boundary_spec=BoundarySpec.uniform("supersonic_out"))


def test_gg_zero_on_constants(periodic_mesh_irregular):
    u = np.full((4, periodic_mesh_irregular.n_cells), 2.3)
    gx, gy = gradient_gg_of(periodic_mesh_irregular, u)
    assert np.abs(gx).max() < 1e-13 and np.abs(gy).max() < 1e-13


def test_gg_first_order_on_linear_interior(bounded_irregular):
    fn, a, b = linear_field()
    u = extended_field(bounded_irregular, fn)
    gx, gy = gradient_gg_of(bounded_irregular, u)
    gx, gy = gx.T, gy.T
    sel = bounded_irregular.interior_mask
    h = bounded_irregular.mean_cell_length
    assert np.abs(gx[sel] - a).max() < 3.0 * np.abs(a).max() * h / h  # bounded
    # refined mesh shrinks the deviation (first-order consistency)
    fine, _ = msh.refine_uniform(bounded_irregular)
    uf = extended_field(fine, fn)
    gxf = gradient_gg_of(fine, uf)[0].T
    err_c = np.abs(gx[sel] - a).mean()
    err_f = np.abs(gxf[fine.interior_mask] - a).mean()
    assert err_f < err_c


def test_gg_exact_on_symmetric_stencil():
    s = 1.0
    h = s * np.sqrt(3) / 2
    nodes = [(0, 0), (1, 0), (0.5, h), (0.5, -h), (1.5, h), (-0.5, h)]
    tris = [(0, 1, 2), (0, 3, 1), (1, 4, 2), (0, 2, 5)]
    m = msh.build_mesh(nodes, tris)
    fn, a, b = linear_field()
    u = extended_field(m, fn)
    gx, gy = gradient_gg_of(m, u)
    np.testing.assert_allclose(gx[:, 0], a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gy[:, 0], b, rtol=0, atol=1e-12)


def test_lsq_exact_on_linear(bounded_irregular):
    fn, a, b = linear_field()
    u = extended_field(bounded_irregular, fn)
    gx, gy = gradient_lsq_of(bounded_irregular, u)
    np.testing.assert_allclose(gx.T, np.tile(a, (bounded_irregular.n_cells, 1)),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(gy.T, np.tile(b, (bounded_irregular.n_cells, 1)),
                               rtol=0, atol=1e-12)


def test_lsq_zero_on_constants(periodic_mesh_irregular):
    u = np.full((4, periodic_mesh_irregular.n_cells), -1.7)
    gx, gy = gradient_lsq_of(periodic_mesh_irregular, u)
    assert np.abs(gx).max() < 1e-13 and np.abs(gy).max() < 1e-13


def test_lsq_matches_dense_normal_equation_oracle(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = rng.normal(size=(m.n_cells, 4))
    gx, gy = gradient_lsq_of(m, u.T)
    gx, gy = gx.T, gy.T
    geo = mesh_geometry(m)
    for cell in rng.integers(0, m.n_cells, 12):
        A = np.zeros((2, 2))
        rhs = np.zeros((2, 4))
        for k in range(3):
            dx, dy = geo.nbr_dx[cell, k], geo.nbr_dy[cell, k]
            w = 1.0 / (dx * dx + dy * dy)
            du = u[m.nbr[k, cell]] - u[cell]
            A += w * np.array([[dx * dx, dx * dy], [dx * dy, dy * dy]])
            rhs += w * np.outer([dx, dy], du)
        sol = np.linalg.solve(A, rhs)
        np.testing.assert_allclose(gx[cell], sol[0], atol=1e-12)
        np.testing.assert_allclose(gy[cell], sol[1], atol=1e-12)


def test_shift_invariance(periodic_mesh_irregular, rng):
    m = periodic_mesh_irregular
    u = rng.normal(size=(m.n_cells, 4))
    # constant cancellation (the shift itself rounds u at machine epsilon)
    for grad_fn in (gradient_lsq_of, gradient_gg_of):
        gx0, gy0 = grad_fn(m, u.T)
        gx1, gy1 = grad_fn(m, u.T + 2.0)
        assert np.abs(gx1 - gx0).max() < 1e-13
        assert np.abs(gy1 - gy0).max() < 1e-13


def test_rotation_equivariance(rng):
    nodes0 = None
    th = 0.61
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    m1 = msh.irregular_mesh(5, seed=11,
                            boundary_spec=BoundarySpec.uniform("supersonic_out"))
    m2 = msh.build_mesh(m1.nodes @ rot.T, m1.tri.copy(),
                        BoundarySpec.uniform("supersonic_out"))

    def fn(pts):
        return np.column_stack([np.sin(pts[:, 0] + 0.3 * pts[:, 1])] * 4)

    u1 = extended_field(m1, fn)
    u2 = extended_field(m2, lambda pts: fn(pts @ rot))  # same physical field
    for grad_fn in (gradient_gg_of, gradient_lsq_of):
        gx1, gy1 = grad_fn(m1, u1)
        gx2, gy2 = grad_fn(m2, u2)
        for c in range(4):
            expected = np.column_stack([gx1[c], gy1[c]]) @ rot.T
            got = np.column_stack([gx2[c], gy2[c]])
            np.testing.assert_allclose(got, expected, atol=1e-11)


def test_limiter_one_on_constant(periodic_mesh_small):
    m = periodic_mesh_small
    u = np.full((4, m.n_cells), 0.9)
    grad = gradient_lsq_of(m, u)
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u),
                               recon.face_increments(m, grad))
    assert (phi == 1.0).all()


def test_limiter_near_one_on_monotone_linear(periodic_mesh_small):
    m = periodic_mesh_small
    # gentle monotone data, far from extrema on interior cells
    fn, a, b = linear_field(a=(0.1, 0.1, 0.1, 0.1), b=(0.05,) * 4)
    u = fn(m.centroid).T
    # periodic wrap creates jumps; restrict the check to cells away from it
    grad = gradient_lsq_of(m, u)
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u),
                               recon.face_increments(m, grad))
    inner = ((m.centroid[:, 0] > 0.25) & (m.centroid[:, 0] < 0.75)
             & (m.centroid[:, 1] > 0.25) & (m.centroid[:, 1] < 0.75))
    assert phi[:, inner].min() >= 0.99


def test_limiter_cuts_overshoot_at_local_max(periodic_mesh_small):
    m = periodic_mesh_small
    u = np.zeros((4, m.n_cells))
    cell = int(np.argmin(np.hypot(*(m.centroid - 0.5).T)))
    u[:, cell] = 1.0
    gx = np.zeros((4, m.n_cells))
    gy = np.zeros((4, m.n_cells))
    gx[:, cell] = 50.0  # large artificial slope at the peak
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u),
                               recon.face_increments(m, (gx, gy)))
    assert phi[:, cell].max() < 0.5


def test_limiter_bounds_and_clip(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = rng.normal(size=(m.n_cells, 4)).T
    grad = gradient_lsq_of(m, u)
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u),
                               recon.face_increments(m, grad))
    assert (phi >= 0.0).all() and (phi <= 1.0).all()


def test_limited_reconstruction_bounded_by_neighbors(rng, periodic_mesh_irregular):
    """u_face stays within [min, max] of the stencil up to the omega slack."""
    m = periodic_mesh_irregular
    u = rng.normal(size=(m.n_cells, 4))
    grad = gradient_lsq_of(m, u.T)
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u.T),
                               recon.face_increments(m, grad),
                               k_limiter=5.0).T
    gx, gy = grad[0].T, grad[1].T
    omega = (5.0 * np.sqrt(m.area)) ** 3
    u_nb = u[m.nbr.T]
    u_max = np.maximum(u_nb.max(axis=1), u)
    u_min = np.minimum(u_nb.min(axis=1), u)
    off = m.cell_foff.T
    delta = (off[:, :, 0:1] * gx[:, None, :]
             + off[:, :, 1:2] * gy[:, None, :])
    incr = phi[:, None, :] * delta
    uf = u[:, None, :] + incr
    slack = omega[:, None, None] / (2.0 * np.maximum(np.abs(delta), 1e-300))
    over = uf - u_max[:, None, :]
    under = u_min[:, None, :] - uf
    assert (over <= slack + 1e-12).all()
    assert (under <= slack + 1e-12).all()


def _op_by_op_limiter(mesh, u, u_nb, delta, k_limiter=5.0):
    """The limiter with every operation recorded on the tape, as it was
    recorded before it became one node: the oracle of that node's adjoints."""
    n = mesh.n_cells
    u_min = minimum(amin(u_nb, axis=1), u)
    u_max = ad.maximum(amax(u_nb, axis=1), u)
    omega = (k_limiter * mesh.sqrt_area) ** 3
    a_max = ad.reshape(u_max - u, (4, 1, n))
    a_min = ad.reshape(u_min - u, (4, 1, n))
    zero = delta == 0.0
    b = ad.where(zero, 1.0, delta)
    a = ad.where(delta > 0.0, a_max, a_min)
    aa = a * a
    ab = a * b
    smooth = (aa + 2.0 * ab + omega) / (aa + 2.0 * (b * b) + ab)
    phi_face = ad.where(zero, 1.0, smooth)
    return minimum(ad.maximum(amin(phi_face, axis=1), 0.0), 1.0)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("mesh_name", ["periodic", "forward_step"])
@pytest.mark.parametrize("state", ["smooth", "piecewise", "clipped_at_zero"])
def test_the_limiter_node_matches_the_op_by_op_oracle(monkeypatch, seeded_params, state,
                                                      mesh_name, b, k):
    """The traced limiter is one node whose adjoints are hand-derived.
    Through the training loss, on one sample and a group on ``Mesh.copies``,
    the loss equals the op-by-op limiter's bitwise and the gradient equals
    it to 1e-14 of its largest entry (the message reports the gap).  At
    K = 1 only delta is traced; at K = 2 the second step's u and u_nb are
    too.  Each state reaches the branches it is for: "smooth" clips phi at
    1 (limiter_k 5), "piecewise" gives delta == 0 and ties in the
    neighbourhood extremes, "clipped_at_zero" (limiter_k 0) gives phi == 0
    at local extrema and phi inside (0, 1) elsewhere."""
    case = loss_case(mesh_name, b, k, "piecewise" if state == "piecewise" else "smooth",
                     limiter_k=0.0 if state == "clipped_at_zero" else 5.0)
    seen = []
    node = recon.venkat_limiter

    def spy(cells, u, u_nb, delta, k_limiter):
        phi = node(cells, u, u_nb, delta, k_limiter)
        seen.append([ad.value_of(x) for x in (u, u_nb, delta, phi)])
        return phi

    monkeypatch.setattr(recon, "venkat_limiter", spy)
    loss, grad = loss_gradients(case, seeded_params)
    monkeypatch.setattr(recon, "venkat_limiter", _op_by_op_limiter)
    expect, oracle = loss_gradients(case, seeded_params)
    assert loss == expect
    assert np.abs(oracle).max() > 0.0
    gap = np.abs(grad - oracle).max() / np.abs(oracle).max()
    assert gap <= 1e-14, gap

    u, u_nb, delta, phi = (np.concatenate(x, axis=-1) for x in zip(*seen))
    if state == "smooth":
        assert ((phi == 1.0) & (delta != 0.0).all(axis=1)).any()
    elif state == "piecewise":
        assert (delta == 0.0).any() and (u == u_nb.min(axis=1)).any()
    else:
        assert (phi == 0.0).any() and ((phi > 0.0) & (phi < 1.0)).any()


def test_the_untraced_limiter_peaks_at_few_stencil_arrays(stencils_10k):
    """Untraced, the limiter writes its (4, 3, N) arrays in place once
    nothing reads them again: on 10,082 cells it peaks (tracemalloc) below
    4.5 such arrays, where the op-by-op form peaked at 8.2 (7.95 MB)."""
    m, u, u_nb, _, delta = stencils_10k
    peak = untraced_peak(lambda: recon.venkat_limiter(m.cell_blocks(1)[0], u, u_nb, delta, 5.0))
    assert peak < 4.5 * delta.nbytes, peak / delta.nbytes


def test_muscl_first_order_when_phi_zero(rng, periodic_mesh_small):
    from conftest import random_admissible_prim

    m = periodic_mesh_small
    u = random_admissible_prim(rng, m.n_cells)
    grad = gradient_lsq_of(m, u.T)
    slots, nfb = recon.slot_states(m, u.T, recon.face_increments(m, grad),
                                   np.zeros((4, m.n_cells)))
    u_l, u_r = recon.muscl_face_values(m, slots, None).transpose(1, 0, 2)
    np.testing.assert_allclose(u_l.T, u[m.f_left], atol=0, rtol=0)
    assert nfb == 0


def test_muscl_exact_on_linear_both_sides(bounded_irregular):
    m = bounded_irregular
    fn, a, b = linear_field(a=(0.2, 0.1, -0.1, 0.05), b=(0.1, -0.2, 0.15, 0.1))
    # positive offset keeps every reconstructed state admissible
    fn2 = lambda pts: fn(pts) + 4.0
    u = extended_field(m, fn2)
    grad = gradient_lsq_of(m, u)
    phi = np.ones((4, m.n_cells))
    n = m.n_cells
    slots, nfb = recon.slot_states(m, u[:, :n], recon.face_increments(m, grad), phi)
    u_l, u_r = recon.muscl_face_values(m, slots, u[:, n:]).transpose(1, 0, 2)
    u_l, u_r = u_l.T, u_r.T
    expect = fn2(m.f_mid)
    np.testing.assert_allclose(u_l, expect, atol=1e-12)
    ifc = m.n_iface
    np.testing.assert_allclose(u_r[:ifc], expect[:ifc], atol=1e-12)
    np.testing.assert_allclose(u_l[:ifc], u_r[:ifc], atol=1e-12)
    assert nfb == 0


def test_muscl_fallback_on_inadmissible_reconstruction(periodic_mesh_small):
    m = periodic_mesh_small
    u = np.full((4, m.n_cells), 1.0)
    u[0] = 0.01  # thin density: overshoot goes negative quickly
    gx = np.zeros((4, m.n_cells))
    gy = np.zeros((4, m.n_cells))
    cell = 7
    gx[0, cell] = 10.0
    slots, nfb = recon.slot_states(m, u, recon.face_increments(m, (gx, gy)),
                                   np.ones((4, m.n_cells)))
    u_l, u_r = recon.muscl_face_values(m, slots, None).transpose(1, 0, 2)
    assert nfb >= 1
    assert (u_l[0] > 0).all() and (u_r[0] > 0).all()


# ---------------------------------------------------------------------------
# the stencil contractions against their broadcast-and-sum formulas, written
# on (N, 3, 4) cell-first arrays: the reductions run in the same order, so
# the results must be bitwise equal
# ---------------------------------------------------------------------------

def _broadcast_gradients(m, u_ext, alpha):
    n = m.n_cells
    u, u_nb = u_ext[:n], u_ext[m.nbr.T]
    face_val = (0.5 + alpha) * u[:, None, :] + (0.5 - alpha) * u_nb
    ns = m.cell_sn.T
    inv_area = (1.0 / m.area)[:, None]
    gg = (np.sum(face_val * ns[:, :, 0:1], axis=1) * inv_area,
          np.sum(face_val * ns[:, :, 1:2], axis=1) * inv_area)
    du = (1.0 + alpha) * (u_nb - u[:, None, :])
    geo = mesh_geometry(m)
    lsq_w = 1.0 / (geo.nbr_dx ** 2 + geo.nbr_dy ** 2)
    bx = np.sum((lsq_w * geo.nbr_dx)[:, :, None] * du, axis=1)
    by = np.sum((lsq_w * geo.nbr_dy)[:, :, None] * du, axis=1)
    lsq = (m.inv11[:, None] * bx + m.inv12[:, None] * by,
           m.inv12[:, None] * bx + m.inv22[:, None] * by)
    return gg, lsq


def _two_branch_limiter(m, u_ext, grad, k):
    """Venkatakrishnan's factor evaluated on both branches, then selected."""
    n = m.n_cells
    u, u_nb = u_ext[:n], u_ext[m.nbr.T]
    u_max = np.maximum(np.maximum(np.maximum(u_nb[:, 0], u_nb[:, 1]), u_nb[:, 2]), u)
    u_min = np.minimum(np.minimum(np.minimum(u_nb[:, 0], u_nb[:, 1]), u_nb[:, 2]), u)
    off = m.cell_foff.T
    delta = off[:, :, 0:1] * grad[0][:, None, :] + off[:, :, 1:2] * grad[1][:, None, :]
    omega = ((k * np.sqrt(m.area)) ** 3)[:, None, None]
    b = np.where(delta == 0.0, 1.0, delta)

    def smooth(a):
        return (a * a + 2.0 * a * b + omega) / (a * a + 2.0 * b * b + a * b)

    with np.errstate(divide="ignore", invalid="ignore"):
        phi_face = np.where(delta > 0.0, smooth((u_max - u)[:, None, :]),
                            np.where(delta < 0.0, smooth((u_min - u)[:, None, :]), 1.0))
    return np.clip(phi_face.min(axis=1), 0.0, 1.0)


@pytest.mark.parametrize("which", ["periodic", "bounded"])
def test_stencil_contractions_bitwise_equal_broadcast_sums(rng, periodic_mesh_irregular,
                                                           bounded_irregular, which):
    m = periodic_mesh_irregular if which == "periodic" else bounded_irregular
    u_ext = rng.normal(size=(m.n_cells + m.n_ghost, 4))
    for alpha in (np.zeros((m.n_cells, 3, 4)), rng.uniform(-0.4, 0.4, (m.n_cells, 3, 4))):
        gg, lsq = _broadcast_gradients(m, u_ext, alpha)
        for got, want in ((gradient_gg_of(m, u_ext.T, alpha=alpha.T), gg),
                          (gradient_lsq_of(m, u_ext.T, alpha=alpha.T), lsq)):
            assert (got[0].T == want[0]).all() and (got[1].T == want[1]).all()
    for gx, gy in (gradient_lsq_of(m, u_ext.T), gradient_gg_of(m, u_ext.T)):
        gx[:, ::5], gy[:, ::5] = 0.0, 0.0   # faces with delta == 0
        delta = recon.face_increments(m, (gx, gy))
        phi = recon.venkat_limiter(m.cell_blocks(1)[0], *with_neighbors(m, u_ext.T), delta, 5.0)
        assert (phi == 1.0).any() and (phi < 1.0).any()
        assert (phi.T == _two_branch_limiter(m, u_ext, (gx.T, gy.T), 5.0)).all()


# ---------------------------------------------------------------------------
# per-slot MUSCL against the per-face extrapolation it replaced: every face
# side extrapolates from its own cell through gathered gradients, limiters
# and centroid-to-midpoint offsets.  The forward values must be bitwise
# equal; the adjoints sum in another order
# ---------------------------------------------------------------------------

def _per_face_muscl(m, u_ext, grad, phi):
    n, ni = m.n_cells, m.n_iface
    gx, gy = grad
    u = u_ext[:, :n]
    right_int = m.f_right[:ni]
    off_l = (m.f_mid - m.centroid[m.f_left]).T
    off_r = (m.f_mid[:ni] - mesh_geometry(m).f_shift[:ni] - m.centroid[right_int]).T

    def extrapolate(cells, off, limiter):
        incr = (off[0] * ad.take_rows(gx, cells)
                + off[1] * ad.take_rows(gy, cells))
        return ad.take_rows(u, cells) + ad.take_rows(limiter, cells) * incr

    def bad_faces(states):
        sv = ad.value_of(states)
        return (sv[0] <= 0.0) | (sv[3] <= 0.0)

    u_l = extrapolate(m.f_left, off_l, phi)
    u_r_int = extrapolate(right_int, off_r, phi)
    bad_l, bad_r = bad_faces(u_l), bad_faces(u_r_int)
    n_fallback = 0
    if bad_l.any() or bad_r.any():
        keep = np.ones(n)
        keep[m.f_left[bad_l]] = 0.0
        keep[right_int[bad_r]] = 0.0
        n_fallback = int(n - keep.sum())
        phi = phi * keep
        u_l = extrapolate(m.f_left, off_l, phi)
        u_r_int = extrapolate(right_int, off_r, phi)
    u_r = u_r_int
    if m.n_ghost:
        u_r = ad.concatenate([u_r_int, ad.take_rows(u_ext, m.f_right[ni:])], axis=1)
    return u_l, u_r, n_fallback


def _muscl_pair(m, u_ext, limit):
    """(per-slot, per-face) MUSCL on the limited LSQ reconstruction of u_ext;
    ``limit`` scales the limiter so the fallback path can be forced."""
    grad = gradient_lsq_of(m, u_ext)
    delta = recon.face_increments(m, grad)
    u, u_nb = with_neighbors(m, u_ext)
    phi = recon.venkat_limiter(m.cell_blocks(1)[0], u, u_nb, delta, 5.0) * limit
    slots, nfb = recon.slot_states(m, u, delta, phi)
    faces = recon.muscl_face_values(m, slots, u_ext[:, m.n_cells:] if m.n_ghost else None)
    return ((faces[:, 0], faces[:, 1], nfb), _per_face_muscl(m, u_ext, grad, phi))


@pytest.mark.parametrize("path", ["plain", "fallback"])
@pytest.mark.parametrize("which", ["periodic", "bounded"])
def test_slot_muscl_matches_per_face_extrapolation(rng, periodic_mesh_irregular,
                                                   bounded_irregular, which, path):
    from conftest import random_admissible_prim

    m = periodic_mesh_irregular if which == "periodic" else bounded_irregular
    u_ext = random_admissible_prim(rng, m.n_cells + m.n_ghost).T
    # the limiter keeps these states admissible; 8 x phi overshoots
    limit = 8.0 if path == "fallback" else 1.0
    (u_l, u_r, nfb), (o_l, o_r, o_nfb) = _muscl_pair(m, u_ext, limit)
    assert (u_l == o_l).all() and (u_r == o_r).all()
    assert nfb == o_nfb
    assert (nfb > 0) == (path == "fallback")

    weights = rng.normal(size=(2, 4, m.n_faces))

    def loss(muscl):
        def program(u):
            u_l, u_r, _ = muscl(u)
            return ad.sum(u_l * weights[0]) + ad.sum(u_r * weights[1])
        return program

    _, g_slot = ad.record_and_backprop(loss(lambda u: _muscl_pair(m, u, limit)[0]), u_ext)
    _, g_face = ad.record_and_backprop(loss(lambda u: _muscl_pair(m, u, limit)[1]), u_ext)
    assert np.abs(g_slot).max() > 0
    assert np.abs(g_slot - g_face).max() <= 1e-13 * np.abs(g_face).max()
