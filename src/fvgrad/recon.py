"""Gradient reconstruction and slope limiting on the primitive variables.

Gradients are per-cell (gx, gy) pairs, each of shape (n_cells, 4).  Both
reconstructions consume the extended field (interior cells followed by
ghost rows) so boundary stencils are complete.  The optional ``alpha``
argument (per-cell, per-neighbor, per-variable coefficients) applies the
learned correction; ``alpha=None`` is the plain scheme and ``alpha == 0``
reproduces it bitwise.
"""

import numpy as np

from . import autodiff as ad


def neighbor_values(mesh, u_ext):
    """Neighbor primitive states in stencil order, shape (N, 3, 4)."""
    flat = ad.take_rows(u_ext, mesh.nbr.ravel())
    return ad.reshape(flat, (mesh.n_cells, 3, 4))


def neighbor_deltas(mesh, u, u_nb):
    """u_j - u_i per neighbor, the shared input of LSQ and the network."""
    return u_nb - ad.reshape(u, (mesh.n_cells, 1, 4))


def gradient_gg(mesh, u_ext, alpha=None, u_nb=None):
    """Green-Gauss gradient with optional per-neighbor correction weights."""
    n = mesh.n_cells
    u = u_ext[:n] if ad.value_of(u_ext).shape[0] != n else u_ext
    if u_nb is None:
        u_nb = neighbor_values(mesh, u_ext)
    ui = ad.reshape(u, (n, 1, 4))
    if alpha is None:
        face_val = 0.5 * ui + 0.5 * u_nb
    else:
        face_val = (0.5 + alpha) * ui + (0.5 - alpha) * u_nb
    inv_area = mesh.inv_area[:, None]
    gx = ad.einsum("njv,nj->nv", face_val, mesh.cell_sn[:, :, 0]) * inv_area
    gy = ad.einsum("njv,nj->nv", face_val, mesh.cell_sn[:, :, 1]) * inv_area
    return gx, gy


def gradient_lsq(mesh, u_ext, alpha=None, du=None):
    """Inverse-distance-squared weighted least-squares gradient.

    Solves the 2x2 normal equations per cell (matrix precomputed at mesh
    build, with a determinant guard).  ``alpha`` reweights the right-hand
    side terms by (1 + alpha_j).  Exact for globally linear fields.
    """
    n = mesh.n_cells
    if du is None:
        u = u_ext[:n] if ad.value_of(u_ext).shape[0] != n else u_ext
        du = neighbor_deltas(mesh, u, neighbor_values(mesh, u_ext))
    if alpha is not None:
        du = (1.0 + alpha) * du
    bx = ad.einsum("nj,njv->nv", mesh.lsq_wd[:, :, 0], du)
    by = ad.einsum("nj,njv->nv", mesh.lsq_wd[:, :, 1], du)
    gx = mesh.inv11[:, None] * bx + mesh.inv12[:, None] * by
    gy = mesh.inv12[:, None] * bx + mesh.inv22[:, None] * by
    return gx, gy


def venkat_limiter(mesh, u_ext, grad, k_limiter=5.0, u_nb=None):
    """Smooth slope limiter, one value per cell and variable, clipped to [0,1].

    Per face j of cell i, with a = (neighborhood max/min minus u_i) and
    b = (r_ij - r_i) . grad u_i, the face factor is
    L(a, b) = (a^2 + 2ab + w) / (a^2 + 2b^2 + ab), w = (K h)^3, h = sqrt(|C|);
    a takes the max where b > 0 and the min where b < 0, so L is evaluated
    once per face; the cell value is the minimum over its faces (1 where
    b = 0).  ``u_nb`` reuses neighbor values the caller already gathered.
    """
    n = mesh.n_cells
    gx, gy = grad
    u = u_ext[:n] if ad.value_of(u_ext).shape[0] != n else u_ext
    if u_nb is None:
        u_nb = neighbor_values(mesh, u_ext)

    nb_min = ad.minimum(ad.minimum(u_nb[:, 0, :], u_nb[:, 1, :]), u_nb[:, 2, :])
    nb_max = ad.maximum(ad.maximum(u_nb[:, 0, :], u_nb[:, 1, :]), u_nb[:, 2, :])
    u_min = ad.minimum(nb_min, u)
    u_max = ad.maximum(nb_max, u)

    off = mesh.cell_foff                                 # (N, 3, 2)
    delta = (off[:, :, 0:1] * ad.reshape(gx, (n, 1, 4))
             + off[:, :, 1:2] * ad.reshape(gy, (n, 1, 4)))

    omega = (k_limiter * np.sqrt(mesh.area)) ** 3
    omega = omega[:, None, None]
    a_max = ad.reshape(u_max - u, (n, 1, 4))
    a_min = ad.reshape(u_min - u, (n, 1, 4))
    zero = delta == 0.0
    b = ad.where(zero, 1.0, delta)
    a = ad.where(delta > 0.0, a_max, a_min)
    smooth = (a * a + 2.0 * a * b + omega) / (a * a + 2.0 * b * b + a * b)
    phi_face = ad.where(zero, 1.0, smooth)
    phi = ad.minimum(ad.minimum(phi_face[:, 0, :], phi_face[:, 1, :]),
                     phi_face[:, 2, :])
    return ad.minimum(ad.maximum(phi, 0.0), 1.0)


def muscl_face_values(mesh, u_ext, grad, phi):
    """One-sided face states u_ij, u_ji at every face midpoint.

    Left states come from the left cell's limited linear extrapolation; the
    right side uses the right cell for interior faces and the ghost value
    (first order) for boundary faces.  Cells whose extrapolation produces a
    non-admissible face state fall back to first order (phi = 0 for that
    cell) and are counted.
    """
    n = mesh.n_cells
    gx, gy = grad
    u = u_ext[:n] if ad.value_of(u_ext).shape[0] != n else u_ext
    right_int = mesh.f_right[:mesh.n_iface]

    def extrapolate(cells, off, limiter):
        incr = (off[:, 0:1] * ad.take_rows(gx, cells)
                + off[:, 1:2] * ad.take_rows(gy, cells))
        return ad.take_rows(u, cells) + ad.take_rows(limiter, cells) * incr

    def bad_rows(states):
        sv = ad.value_of(states)
        return (sv[:, 0] <= 0.0) | (sv[:, 3] <= 0.0)

    u_l = extrapolate(mesh.f_left, mesh.f_off_l, phi)
    u_r_int = extrapolate(right_int, mesh.f_off_r, phi)

    bad_l = bad_rows(u_l)
    bad_r = bad_rows(u_r_int)
    n_fallback = 0
    if bad_l.any() or bad_r.any():
        keep = np.ones(n)
        keep[mesh.f_left[bad_l]] = 0.0
        keep[right_int[bad_r]] = 0.0
        n_fallback = int(n - keep.sum())
        phi = phi * keep[:, None]
        u_l = extrapolate(mesh.f_left, mesh.f_off_l, phi)
        u_r_int = extrapolate(right_int, mesh.f_off_r, phi)

    if mesh.n_ghost:
        u_ghost = ad.take_rows(u_ext, mesh.f_right[mesh.n_iface:])
        u_r = ad.concatenate([u_r_int, u_ghost], axis=0)
    else:
        u_r = u_r_int
    return u_l, u_r, n_fallback
