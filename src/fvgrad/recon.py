"""Gradient reconstruction and slope limiting on the primitive variables.

Every array here keeps the cell (or face) axis last and contiguous: fields
and gradients are (4, n_cells), stencil arrays (4, 3, n_cells) (variable,
neighbor, cell), and face states (4, 2, n_faces).  Fields hold the cells
alone; on a mesh with boundary faces their ghost states are a separate
(4, n_ghost) array (``bc.extend_with_ghosts``).  The two gathers that read
past the cells, ``neighbor_values`` and ``muscl_face_values``, take the
ghosts as their second array, and every other function takes the stencil
input its caller gathered: neighbour values ``u_nb`` or deltas ``du``.

A gradient is a (gx, gy) pair.  The optional ``alpha`` argument
(per-variable, per-neighbor, per-cell coefficients, (4, 3, n_cells)) applies
the learned correction; ``alpha=None`` is the plain scheme and
``alpha == 0`` reproduces it bitwise.

One entry of a stencil array belongs to a stencil slot, neighbor j of cell i
(see ``mesh``), and each slot is one side of one face.  The step forms the
face increments (r_ij - r_i) . grad u_i once per slot (``face_increments``);
the limiter reads them, ``slot_states`` extrapolates each slot's limited
state, and ``muscl_face_values`` gathers both sides' face states from the
slots and the ghosts.

Every function here but those two gathers reads only its own cells, so it
also takes a ``mesh.CellBlock`` in place of the mesh, with the block's
cells' fields and stencil inputs.
"""

import numpy as np

from . import autodiff as ad
from .euler import P, RHO, not_positive


def neighbor_values(mesh, u, ghosts):
    """Neighbor states in stencil order, (k, 3, N), of a (k, N) field u and
    its (k, n_ghost) ghost states (None on a mesh without boundary faces)."""
    return ad.take_rows(u, mesh.nbr, ghosts)


def neighbor_deltas(mesh, u, u_nb):
    """u_j - u_i per neighbor, the shared input of LSQ and the network."""
    return u_nb - ad.reshape(u, (4, 1, mesh.n_cells))


def gradient_gg(mesh, u, u_nb, alpha=None):
    """Green-Gauss gradient with optional per-neighbor correction weights.

    ``u`` is any (k, n_cells) field and ``u_nb`` its neighbour values: the
    step's four primitives, or the entropy flux components of the training
    loss.
    """
    k = ad.value_of(u).shape[0]
    ui = ad.reshape(u, (k, 1, mesh.n_cells))
    if alpha is None:
        face_val = 0.5 * ui + 0.5 * u_nb
    else:
        face_val = (0.5 + alpha) * ui + (0.5 - alpha) * u_nb
    gx = ad.einsum("vjn,jn->vn", face_val, mesh.cell_sn[0]) * mesh.inv_area
    gy = ad.einsum("vjn,jn->vn", face_val, mesh.cell_sn[1]) * mesh.inv_area
    return gx, gy


def gradient_lsq(mesh, du, alpha=None):
    """Inverse-distance-squared weighted least-squares gradient from
    ``neighbor_deltas`` du.

    Solves the 2x2 normal equations per cell (matrix precomputed at mesh
    build, with a determinant guard).  ``alpha`` reweights the right-hand
    side terms by (1 + alpha_j).  Exact for globally linear fields.
    """
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


def venkat_limiter(mesh, u, u_nb, delta, k_limiter=5.0):
    """Smooth slope limiter, one value per variable and cell, clipped to [0,1].

    Per face j of cell i, with a = (neighborhood max/min minus u_i) and
    b = delta_ij = (r_ij - r_i) . grad u_i (``face_increments``), the face
    factor is L(a, b) = (a^2 + 2ab + w) / (a^2 + 2b^2 + ab), w = (K h)^3,
    h = sqrt(|C|); a takes the max where b > 0 and the min where b < 0, so
    L is evaluated once per face; the cell value is the minimum over its
    faces (1 where b = 0).  ``u_nb`` are the neighbor values of u.
    """
    n = mesh.n_cells
    u_min = ad.minimum(ad.amin(u_nb, axis=1), u)
    u_max = ad.maximum(ad.amax(u_nb, axis=1), u)

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
    return ad.minimum(ad.maximum(ad.amin(phi_face, axis=1), 0.0), 1.0)


def slot_states(mesh, u, delta, phi):
    """Each stencil slot's limited linear extrapolation, (4, 3, N), and the
    number of cells that fell back to first order.

    A slot's state is u_i + phi_i * delta_ij, with ``delta`` from
    ``face_increments``.  A cell with a non-admissible slot state
    (``euler.not_positive`` on its rho or p, so NaN included) falls back to
    first order (phi = 0 for that cell) and is counted.
    """
    n = mesh.n_cells
    u = ad.reshape(u, (4, 1, n))

    def extrapolate(limiter):
        return u + ad.reshape(limiter, (4, 1, n)) * delta

    s = extrapolate(phi)
    sv = ad.value_of(s)
    bad = np.logical_or.reduce(not_positive(sv[RHO]) | not_positive(sv[P]), axis=0)
    n_fallback = int(np.count_nonzero(bad))
    if n_fallback:
        phi = phi * np.where(bad, 0.0, 1.0)
        s = extrapolate(phi)
    return s, n_fallback


def muscl_face_values(mesh, slots, ghosts):
    """One-sided face states at every face midpoint, (4, 2, F): u_ij and
    u_ji, the left and the right state of each face.

    ``slots`` are the slot states of ``slot_states`` and ``ghosts`` the
    ghost states, or None on a mesh without boundary faces.  Every slot is
    one side of exactly one face, and a boundary face's right state is its
    ghost value (first order), so every face state is one gather through
    ``mesh.face_slots`` from the slot states followed by the ghost states.
    """
    s = ad.reshape(slots, (4, 3 * mesh.n_cells))
    return ad.take_rows(s, mesh.face_slots, ghosts)
