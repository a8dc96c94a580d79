"""Ghost-state construction for the boundary condition families.

Each non-periodic boundary face owns one ghost slot; the ghost state is a
primitive-variable function of the interior state and the outward normal.
Periodic faces never reach this layer (the mesh merges them into interior
faces).  A prescribed state or back pressure must be admissible as
``euler.not_positive`` reads it (rho and p > 0, NaN rejected); ghost states
that come out below a small positive floor are clamped to it and counted.
``table_from_ic`` derives the prescribed values of every tag from an
initial condition, and ``tile_table`` a mesh's table for its copies
(``Mesh.copies``).

``ghost_state`` takes states with a trailing component axis, (..., 4);
``extend_with_ghosts`` works on the solver's (4, n) fields, cell axis last,
and returns the ghost states as their own (4, n_ghost) array, ghost slot k
at column k.  A stencil or a face reaches them through ``ad.take_rows``
with the ghosts as its second array (``recon.neighbor_values``,
``recon.muscl_face_values``), so no field is ever laid out with its ghosts.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import mesh as msh
from .euler import AdmissibilityError, GasModel, P, RHO, U, V, not_positive

CLAMP_FLOOR = 1e-10


@dataclass
class BCSpec:
    """Parameters for one boundary tag.

    kind: tag code from the mesh module.
    state: freestream primitive state for inflow conditions, shape (4,) or
        per-face (G, 4).
    back_pressure: prescribed static pressure for subsonic outflow, scalar
        or per-face.
    """

    kind: int
    state: np.ndarray = None
    back_pressure: float = None

    def __post_init__(self):
        if self.kind in (msh.SUPERSONIC_IN, msh.SUBSONIC_IN):
            if self.state is None:
                raise ValueError("inflow condition requires a freestream state")
            s = np.asarray(self.state, dtype=np.float64)
            if (not_positive(s[..., RHO]) | not_positive(s[..., P])).any():
                raise AdmissibilityError("freestream state", "rho or p not > 0")
            self.state = s
        if self.kind == msh.SUBSONIC_OUT:
            if self.back_pressure is None:
                raise ValueError("subsonic outflow requires a back pressure")
            if not_positive(self.back_pressure).any():
                raise AdmissibilityError("back pressure", "not > 0")


def table_from_ic(mesh, ic):
    """BCSpec for every boundary tag of the mesh, from an initial condition.

    ic maps points (M, 2) to primitive states (M, 4); inflow tags take its
    state and subsonic outflow its pressure, each at the tag's own face
    midpoints.  A periodic mesh has no tags and gets an empty table.
    """
    mids = mesh.f_mid[mesh.n_iface:]
    table = {}
    for code, sl in mesh.tag_slices.items():
        if code in (msh.SUPERSONIC_IN, msh.SUBSONIC_IN):
            table[code] = BCSpec(kind=code, state=ic(mids[sl]))
        elif code == msh.SUBSONIC_OUT:
            table[code] = BCSpec(kind=code, back_pressure=ic(mids[sl])[:, P])
        else:
            table[code] = BCSpec(kind=code)
    return table


def tile_table(table, b):
    """The table for ``Mesh.copies(b)`` of the mesh it was made for: every
    per-face state or back pressure tiled b times, as the copies list each
    tag's faces copy by copy; a state of one row, or a scalar pressure,
    serves every copy as it is."""
    if b == 1:
        return table
    out = {}
    for code, spec in table.items():
        state, back = spec.state, spec.back_pressure
        if state is not None and np.ndim(state) == 2:
            state = np.tile(state, (b, 1))
        if np.ndim(back) == 1:
            back = np.tile(back, b)
        out[code] = replace(spec, state=state, back_pressure=back)
    return out


def ghost_state(spec, interior, n, gas=GasModel()):
    """Ghost primitive state for one BC family.

    interior: primitive state(s), shape (..., 4); n: outward unit normal(s).
    Returns (ghost, n_clamped).
    """
    n = np.asarray(n, dtype=np.float64)
    rho_i = interior[..., RHO]
    u_i = interior[..., U]
    v_i = interior[..., V]
    p_i = interior[..., P]

    if spec.kind == msh.SUPERSONIC_IN:
        ghost = np.broadcast_to(spec.state, ad.value_of(interior).shape).copy()
        return ghost, 0

    if spec.kind == msh.SUPERSONIC_OUT:
        return interior, 0

    if spec.kind == msh.SLIP_WALL:
        vn = u_i * n[..., 0] + v_i * n[..., 1]
        gu = u_i - 2.0 * vn * n[..., 0]
        gv = v_i - 2.0 * vn * n[..., 1]
        return ad.stack([rho_i, gu, gv, p_i], axis=-1), 0

    # reference state for the characteristic relations: the interior state
    c0 = ad.sqrt(gas.gamma * p_i / rho_i)
    rho0 = rho_i

    if spec.kind == msh.SUBSONIC_IN:
        wb = spec.state
        rho_b, u_b, v_b, p_b = wb[..., RHO], wb[..., U], wb[..., V], wb[..., P]
        dvn = (u_b - u_i) * n[..., 0] + (v_b - v_i) * n[..., 1]
        p_g = 0.5 * (p_b + p_i - rho0 * c0 * dvn)
        rho_g = rho_b + (p_g - p_b) / (c0 * c0)
        # momentum relation uses rho0*c0 (the printed p0*c0 is dimensionally off)
        coef = (p_b - p_g) / (rho0 * c0)
        gu = u_b - n[..., 0] * coef
        gv = v_b - n[..., 1] * coef
    elif spec.kind == msh.SUBSONIC_OUT:
        p_g = np.broadcast_to(np.asarray(spec.back_pressure, dtype=np.float64),
                              ad.value_of(p_i).shape)
        rho_g = rho_i + (p_g - p_i) / (c0 * c0)
        coef = (p_i - p_g) / (rho0 * c0)
        gu = u_i - n[..., 0] * coef
        gv = v_i - n[..., 1] * coef
    else:
        raise ValueError(f"unsupported boundary kind {spec.kind}")

    n_clamped = int(np.sum(ad.value_of(rho_g) < CLAMP_FLOOR)
                    + np.sum(ad.value_of(p_g) < CLAMP_FLOOR))
    rho_g = ad.maximum(CLAMP_FLOOR, rho_g) if n_clamped else rho_g
    p_g = ad.maximum(CLAMP_FLOOR, p_g) if n_clamped else p_g
    return ad.stack([rho_g, gu, gv, p_g], axis=-1), n_clamped


def extend_with_ghosts(mesh, u, bc_table, gas=GasModel()):
    """Ghost primitive states for every boundary face, in ghost-slot order.

    u is the (4, n_cells) primitive field, cell axis last; bc_table maps tag
    code -> BCSpec.  Returns (ghosts (4, n_ghost), clamps), or (None, 0) on a
    mesh without boundary faces.  The name is older than this form; the
    benchmark's tracer resolves the ghost stage by it.
    """
    if mesh.n_ghost == 0:
        return None, 0
    bcells = mesh.f_left[mesh.n_iface:]
    normals = mesh.f_normal[mesh.n_iface:]
    parts = []
    clamps = 0
    for code, sl in mesh.tag_slices.items():
        spec = bc_table.get(code)
        if spec is None:
            raise KeyError(f"no BCSpec for boundary tag '{msh.TAG_NAMES[code]}'")
        if spec.kind != code:
            raise ValueError(f"BCSpec kind mismatch for tag '{msh.TAG_NAMES[code]}'")
        interior = ad.transpose(ad.take_rows(u, bcells[sl]))
        rows, nc = ghost_state(spec, interior, normals[sl], gas)
        parts.append(ad.transpose(rows))
        clamps += nc
    ghosts = parts[0] if len(parts) == 1 else ad.concatenate(parts, axis=1)
    return ghosts, clamps
