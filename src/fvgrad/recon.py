"""Gradient reconstruction and slope limiting on the primitive variables.

Every array here keeps the cell (or face) axis last and contiguous: fields
and gradients are (4, n_cells), with the extended field (interior cells
followed by ghost entries) (4, n_cells + n_ghost) so boundary stencils are
complete; stencil arrays are (4, 3, n_cells) (variable, neighbor, cell), and
face states (4, n_faces).  A gradient is a (gx, gy) pair.  The optional
``alpha`` argument (per-variable, per-neighbor, per-cell coefficients,
(4, 3, n_cells)) applies the learned correction; ``alpha=None`` is the plain
scheme and ``alpha == 0`` reproduces it bitwise.

One entry of a stencil array belongs to a stencil slot, neighbor j of cell i
(see ``mesh``), and each slot is one side of one face.  The step forms the
face increments (r_ij - r_i) . grad u_i once per slot (``face_increments``);
the limiter reads them, ``slot_states`` extrapolates each slot's limited
state, and ``muscl_face_values`` gathers the face states from the slots.

Every function here but ``neighbor_values`` and ``muscl_face_values`` reads
only its own cells.  Given those cells' neighbour values (``u_nb``) or
deltas (``du``), it also takes a ``mesh.CellBlock`` in place of the mesh,
with the block's cells' fields.
"""

import numpy as np

from . import autodiff as ad
from .euler import P, RHO, not_positive


def _cells(mesh, u_ext):
    """The interior (4, n_cells) part of a field that may carry ghosts."""
    n = mesh.n_cells
    return u_ext[:, :n] if ad.value_of(u_ext).shape[-1] != n else u_ext


def neighbor_values(mesh, u_ext):
    """Neighbor primitive states in stencil order, shape (4, 3, N)."""
    return ad.take_rows(u_ext, mesh.nbr.T)


def neighbor_deltas(mesh, u, u_nb):
    """u_j - u_i per neighbor, the shared input of LSQ and the network."""
    return u_nb - ad.reshape(u, (4, 1, mesh.n_cells))


def gradient_gg(mesh, u_ext, alpha=None, u_nb=None):
    """Green-Gauss gradient with optional per-neighbor correction weights.

    ``u_ext`` is any (k, n_cells + n_ghost) field: the step's four
    primitives, or the entropy flux components of the training loss.
    """
    if u_nb is None:
        u_nb = neighbor_values(mesh, u_ext)
    k = ad.value_of(u_ext).shape[0]
    ui = ad.reshape(_cells(mesh, u_ext), (k, 1, mesh.n_cells))
    if alpha is None:
        face_val = 0.5 * ui + 0.5 * u_nb
    else:
        face_val = (0.5 + alpha) * ui + (0.5 - alpha) * u_nb
    gx = ad.einsum("vjn,jn->vn", face_val, mesh.cell_sn[0]) * mesh.inv_area
    gy = ad.einsum("vjn,jn->vn", face_val, mesh.cell_sn[1]) * mesh.inv_area
    return gx, gy


def gradient_lsq(mesh, u_ext, alpha=None, du=None):
    """Inverse-distance-squared weighted least-squares gradient.

    Solves the 2x2 normal equations per cell (matrix precomputed at mesh
    build, with a determinant guard).  ``alpha`` reweights the right-hand
    side terms by (1 + alpha_j).  Exact for globally linear fields.
    """
    if du is None:
        du = neighbor_deltas(mesh, _cells(mesh, u_ext), neighbor_values(mesh, u_ext))
    if alpha is not None:
        du = (1.0 + alpha) * du
    bx = ad.einsum("jn,vjn->vn", mesh.lsq_wd[0], du)
    by = ad.einsum("jn,vjn->vn", mesh.lsq_wd[1], du)
    gx = mesh.inv11 * bx + mesh.inv12 * by
    gy = mesh.inv12 * bx + mesh.inv22 * by
    return gx, gy


def face_increments(mesh, grad):
    """(r_ij - r_i) . grad u_i per stencil slot, shape (4, 3, N).

    r_ij is the midpoint of cell i's j-th face on cell i's own side, so
    these are the increments of the unlimited linear extrapolation; the
    limiter and MUSCL both read them.
    """
    n = mesh.n_cells
    gx, gy = grad
    off = mesh.cell_foff                                 # (2, 3, N)
    return (off[0] * ad.reshape(gx, (4, 1, n))
            + off[1] * ad.reshape(gy, (4, 1, n)))


def venkat_limiter(mesh, u_ext, delta, k_limiter=5.0, u_nb=None):
    """Smooth slope limiter, one value per variable and cell, clipped to [0,1].

    Per face j of cell i, with a = (neighborhood max/min minus u_i) and
    b = delta_ij = (r_ij - r_i) . grad u_i (``face_increments``), the face
    factor is L(a, b) = (a^2 + 2ab + w) / (a^2 + 2b^2 + ab), w = (K h)^3,
    h = sqrt(|C|); a takes the max where b > 0 and the min where b < 0, so
    L is evaluated once per face; the cell value is the minimum over its
    faces (1 where b = 0).  ``u_nb`` reuses neighbor values the caller
    already gathered.
    """
    n = mesh.n_cells
    u = _cells(mesh, u_ext)
    if u_nb is None:
        u_nb = neighbor_values(mesh, u_ext)

    nb_min = ad.minimum(ad.minimum(u_nb[:, 0], u_nb[:, 1]), u_nb[:, 2])
    nb_max = ad.maximum(ad.maximum(u_nb[:, 0], u_nb[:, 1]), u_nb[:, 2])
    u_min = ad.minimum(nb_min, u)
    u_max = ad.maximum(nb_max, u)

    omega = (k_limiter * mesh.sqrt_area) ** 3
    a_max = ad.reshape(u_max - u, (4, 1, n))
    a_min = ad.reshape(u_min - u, (4, 1, n))
    zero = delta == 0.0
    b = ad.where(zero, 1.0, delta)
    a = ad.where(delta > 0.0, a_max, a_min)
    # 2ab and 2b^2 as 2(ab) and 2(bb): doubling is exact, so these equal
    # (2a)b and (2b)b bitwise
    aa = a * a
    ab = a * b
    smooth = (aa + 2.0 * ab + omega) / (aa + 2.0 * (b * b) + ab)
    phi_face = ad.where(zero, 1.0, smooth)
    phi = ad.minimum(ad.minimum(phi_face[:, 0], phi_face[:, 1]), phi_face[:, 2])
    return ad.minimum(ad.maximum(phi, 0.0), 1.0)


def slot_states(mesh, u_ext, delta, phi):
    """Each stencil slot's limited linear extrapolation, (4, 3, N), and the
    number of cells that fell back to first order.

    A slot's state is u_i + phi_i * delta_ij, with ``delta`` from
    ``face_increments``.  A cell with a non-admissible slot state
    (``euler.not_positive`` on its rho or p, so NaN included) falls back to
    first order (phi = 0 for that cell) and is counted.
    """
    n = mesh.n_cells
    u = ad.reshape(_cells(mesh, u_ext), (4, 1, n))

    def extrapolate(limiter):
        return u + ad.reshape(limiter, (4, 1, n)) * delta

    s = extrapolate(phi)
    sv = ad.value_of(s)
    bad = (not_positive(sv[RHO]) | not_positive(sv[P])).any(axis=0)
    n_fallback = int(bad.sum())
    if n_fallback:
        phi = phi * np.where(bad, 0.0, 1.0)
        s = extrapolate(phi)
    return s, n_fallback


def muscl_face_values(mesh, u_ext, slots):
    """One-sided face states u_ij, u_ji at every face midpoint, each (4, F).

    ``slots`` are the slot states of ``slot_states``.  Every slot is one side
    of exactly one face, so the left states and the right states of interior
    faces are gathers of the slot states through ``mesh.f_slot_l`` and
    ``mesh.f_slot_r``; a boundary face's right state is its ghost value
    (first order).
    """
    s = ad.reshape(slots, (4, 3 * mesh.n_cells))
    u_l = ad.take_rows(s, mesh.f_slot_l)
    u_r = ad.take_rows(s, mesh.f_slot_r)
    if mesh.n_ghost:
        u_ghost = ad.take_rows(u_ext, mesh.f_right[mesh.n_iface:])
        u_r = ad.concatenate([u_r, u_ghost], axis=1)
    return u_l, u_r
