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
cells' fields and stencil inputs; ``venkat_limiter`` takes a block only,
as its omega lives on the block (``CellBlock.limiter_omega``; a whole mesh
is ``mesh.cell_blocks(1)[0]``).  The gathers take a block too, with the
whole field and ghosts: ``neighbor_values`` a ``mesh.CellBlock``, for its
cells' neighbours, and ``muscl_face_values`` a ``mesh.FaceBlock``, for its
faces' two sides.

The limiter is one tape node (``venkat_limiter``), computed by one numpy
body traced or not.  That body writes an array in place once nothing reads
it again, so an untraced call holds few (4, 3, N) arrays at once; it never
writes into an array the node's adjoint keeps, nor into its inputs.
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


def venkat_limiter(cells, u, u_nb, delta, k_limiter=5.0):
    """Smooth slope limiter, one value per variable and cell, clipped to [0,1].

    Per face j of cell i, with a = (neighborhood max/min minus u_i) and
    b = delta_ij = (r_ij - r_i) . grad u_i (``face_increments``), the face
    factor is L(a, b) = (a^2 + 2ab + w) / (a^2 + 2b^2 + ab), w = (K h)^3,
    h = sqrt(|C|) (``cells.limiter_omega``); a takes the max where b > 0
    and the min where b < 0, so L is evaluated once per face; the cell
    value is the minimum over its faces (1 where b = 0).  ``cells`` is a
    ``mesh.CellBlock`` and ``u_nb`` are the neighbor values of u.

    The values are computed by the same numpy code whether or not u, u_nb
    or delta is traced (module docstring).  A traced call records phi as
    one tape node on the three operands (``_limiter_adjoint``), as the flux
    and the network are one node each.  It keeps delta, a_max and a_min,
    the face factors and their denominators, the minimum before the clip
    and the face each minimum took; with u or u_nb traced, also the
    branches the neighbourhood extremes took.  Recorded op by op, the
    limiter took 14 nodes with only delta traced (24 with all three), and
    its tape kept a and b too.
    """
    uv, nbv, dv = ad.value_of(u), ad.value_of(u_nb), ad.value_of(delta)
    to_u = u.__class__ is ad.Var or u_nb.__class__ is ad.Var
    to_delta = delta.__class__ is ad.Var
    nb_min = np.minimum.reduce(nbv, axis=1)
    nb_max = np.maximum.reduce(nbv, axis=1)
    a_min = np.minimum(nb_min, uv)
    a_max = np.maximum(nb_max, uv)
    picks = None
    if to_u:
        # where the extremes over u and the neighbours take the neighbours',
        # and which neighbour each takes: the first argument or entry at ties
        picks = ((nb_min <= uv) | np.isnan(nb_min), (nb_max >= uv) | np.isnan(nb_max),
                 ad._first_extreme(nbv, 1, np.less_equal)[1],
                 ad._first_extreme(nbv, 1, np.greater_equal)[1])
    del nb_min, nb_max
    a_min -= uv
    a_max -= uv

    zero = dv == 0.0
    a = np.where(dv > 0.0, a_max[:, None], a_min[:, None])
    b = np.where(zero, 1.0, dv)
    # in place wherever nothing reads the array again, so the stage holds
    # three (4, 3, N) arrays at its peak.  2ab and 2b^2 are 2(ab) and
    # 2(bb), and a sum of two terms commutes, so each value is the
    # formula's bitwise
    ab = a * b
    aa = np.multiply(a, a, out=a)
    den = np.multiply(b, b, out=b)
    den *= 2.0
    den += aa
    den += ab
    num = np.multiply(ab, 2.0, out=ab)
    num += aa
    del a, b, aa, ab
    num += cells.limiter_omega(k_limiter)
    smooth = np.divide(num, den, out=num)
    if not (to_u or to_delta):
        np.copyto(smooth, 1.0, where=zero)
        phi = np.minimum.reduce(smooth, axis=1)
        np.maximum(phi, 0.0, out=phi)
        return np.minimum(phi, 1.0, out=phi)

    # the adjoint keeps smooth, so the face values are an array of their own
    phi_face = np.where(zero, 1.0, smooth)
    phi_min = np.minimum.reduce(phi_face, axis=1)
    chosen = ad._first_extreme(phi_face, 1, np.less_equal)[1]
    del phi_face
    phi = np.minimum(np.maximum(phi_min, 0.0), 1.0)
    kept = (dv, zero, a_max, a_min, smooth, den, phi_min, chosen, picks)
    done = []

    def adjoints(g):
        # one pass gives every operand's adjoint, whichever asks first
        if not done:
            done.extend(_limiter_adjoint(g, *kept, to_delta))
        return done

    return ad._record(phi, (u, lambda g: adjoints(g)[0]), (u_nb, lambda g: adjoints(g)[1]),
                      (delta, lambda g: adjoints(g)[2]))


def _limiter_adjoint(g, dv, zero, a_max, a_min, smooth, den, phi_min, chosen, picks,
                     to_delta):
    """Adjoints of ``venkat_limiter`` for the adjoint g of phi, (4, N): u's,
    u_nb's and delta's, each None when not asked for (u's and u_nb's when
    ``picks`` is None, delta's when not ``to_delta``).

    Derived by hand, node by node in reverse, from the limiter recorded op
    by op, which the tests keep as its oracle.  Ties follow the tape's
    taken-branch rules: a pairwise minimum or maximum sends the adjoint to
    its first argument, a minimum or maximum over the faces or the
    neighbours to the first extreme entry (``ad._first_extreme``), and
    ``where`` follows its condition.  Each adjoint sums its terms in the
    order that tape added them, so the adjoints agree with it to round-off,
    and bitwise wherever an operand had no adjoint before the limiter's."""
    # phi = minimum(maximum(phi_min, 0), 1), phi_min = amin(phi_face)
    clipped = np.maximum(phi_min, 0.0)
    g = np.where((clipped <= 1.0) | np.isnan(clipped), g, 0.0)
    g = np.where((phi_min >= 0.0) | np.isnan(phi_min), g, 0.0)
    # phi_face = where(zero, 1, smooth), smooth = num / den, with
    # num = (aa + 2 ab) + omega and den = (aa + 2 bb) + ab; each (4, 3, N)
    # array is written in place once nothing reads it again
    g_den = np.where(chosen, 0.0 + g[:, None], 0.0)
    np.copyto(g_den, 0.0, where=zero)
    g_num = g_den / den
    np.negative(g_den, out=g_den)
    g_den *= smooth
    g_den /= den
    g_ab = g_num * 2.0
    g_ab += g_den
    if picks is not None:
        g_aa = np.add(g_num, g_den, out=g_num)
    del g_num
    pos = dv > 0.0
    a = np.where(pos, a_max[:, None], a_min[:, None])
    b = np.where(zero, 1.0, dv)
    g_delta = None
    if to_delta:
        # b = where(zero, 1, delta) enters bb = b b and ab = a b
        g_delta = np.multiply(g_den, 2.0, out=g_den)
        g_delta *= b
        g_delta += g_delta
        g_delta += g_ab * a
        np.copyto(g_delta, 0.0, where=zero)
    del g_den
    if picks is None:
        return None, None, g_delta

    # a = where(pos, a_max, a_min) enters ab and aa = a a; a_max = u_max - u
    # and a_min = u_min - u, with u_max = maximum(amax(u_nb), u) and
    # u_min = minimum(amin(u_nb), u)
    g_a = np.multiply(g_ab, b, out=g_ab)
    del b
    g_aa *= a
    g_a += g_aa
    g_a += g_aa
    del a, g_aa
    g_max = np.where(pos, g_a, 0.0).sum(axis=1)
    g_min = np.where(pos, 0.0, g_a).sum(axis=1)
    takes_nb_min, takes_nb_max, first_min, first_max = picks
    g_u = (((-g_min + -g_max) + np.where(takes_nb_max, 0.0, g_max))
           + np.where(takes_nb_min, 0.0, g_min))
    g_nb = (np.where(first_max, 0.0 + np.where(takes_nb_max, g_max, 0.0)[:, None], 0.0)
            + np.where(first_min, 0.0 + np.where(takes_nb_min, g_min, 0.0)[:, None], 0.0))
    return g_u, g_nb, g_delta


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
