"""Unstructured triangular meshes for the cell-centered finite volume solver.

A built ``Mesh`` is immutable and carries every derived quantity the solver
needs: face geometry (length, midpoint, left/right cells, unit normal
oriented left to right), per-cell neighbor tables in counter-clockwise
order, the stencil angles between successive centroid-to-centroid
directions, precomputed inverse least-squares normal matrices, ghost
slots for non-periodic boundary faces, and the constants that
reconstruction would otherwise recompute every step (centroid-to-face
offsets and each face's stencil slots, Green-Gauss scaled normals, LSQ
weighted offsets, 1/|C| and sqrt|C|).

Topology comes from one array-based edge numbering (``_edges``): edges are
numbered in the order of their first half-edge, and faces, ghosts, the
per-cell tables and the midpoints of a refinement all follow that order.

Each cell's stencil starts at the neighbor right after its largest stencil
angle (see ``_stencil_start``), so the neighbor order, and with it every
per-neighbor input of the correction network, follows the shape of the
stencil and not its orientation: rotating or translating a mesh leaves
``nbr`` and ``angles`` unchanged, up to round-off in ``angles``, on every
stencil that is not threefold symmetric.

Periodic boundaries are resolved at build time: the two paired boundary
faces are merged into a single interior-like face whose right cell sits at
a virtually translated centroid (``f_shift`` records the translation), so
periodic cells look like interior cells to every downstream consumer.

Ghost cells (one layer) mirror the interior centroid across the boundary
face; their values are synthesized per step by the boundary-condition
layer and live at index ``n_cells + k`` of the cell axis of extended fields.

The per-step constants the solver reads with every field (``lsq_wd``,
``cell_foff``, ``cell_sn``) are stored with the cell axis last and
contiguous, like the step's own fields; the topology and geometry tables
keep one row per cell or face.

A stencil slot is one (neighbor j, cell i) pair of a per-cell table, at flat
index ``j * n_cells + i`` of a (..., 3, n_cells) array reshaped to
(..., 3 * n_cells).  Every slot is one side of exactly one face: the left
side of any face, or the right side of an interior one.  ``f_slot_l`` and
``f_slot_r`` name each face's two slots, so a per-slot quantity (MUSCL's
face states) reaches the faces through one gather per side.  The inverse
tables ``slot_face`` and ``slot_len`` (3, N) name each slot's face and its
length, signed by the side, so a per-face flux reaches the cells through one
gather and a stencil sum.
"""

from dataclasses import dataclass, field

import numpy as np

# boundary tag codes (stored per face; parameters live in the bc layer)
PERIODIC = 0
SUPERSONIC_IN = 1
SUPERSONIC_OUT = 2
SUBSONIC_IN = 3
SUBSONIC_OUT = 4
SLIP_WALL = 5

TAG_NAMES = {
    PERIODIC: "periodic",
    SUPERSONIC_IN: "supersonic_in",
    SUPERSONIC_OUT: "supersonic_out",
    SUBSONIC_IN: "subsonic_in",
    SUBSONIC_OUT: "subsonic_out",
    SLIP_WALL: "slip_wall",
}
TAG_CODES = {v: k for k, v in TAG_NAMES.items()}


class MeshError(ValueError):
    pass


class BoundarySpec:
    """Assigns a BC tag (and periodic pairing group) to each boundary face.

    Two matching modes: rule-based (first rule whose predicate accepts the
    face midpoint/normal wins) or an explicit per-edge table keyed by the
    sorted node pair, as produced by the ASCII reader and by refinement.
    """

    def __init__(self, rules=None, edge_table=None):
        self.rules = rules or []
        self.edge_table = edge_table

    @classmethod
    def uniform(cls, tag):
        code = TAG_CODES[tag] if isinstance(tag, str) else tag
        return cls(rules=[(code, 0, lambda mid, n: True)])

    @classmethod
    def periodic_box(cls, xmin=0.0, xmax=1.0, ymin=0.0, ymax=1.0, tol=1e-9):
        tx = tol * max(xmax - xmin, ymax - ymin)
        return cls(rules=[
            (PERIODIC, 1, lambda mid, n: abs(mid[0] - xmin) < tx or abs(mid[0] - xmax) < tx),
            (PERIODIC, 2, lambda mid, n: abs(mid[1] - ymin) < tx or abs(mid[1] - ymax) < tx),
        ])

    @classmethod
    def from_edge_table(cls, table):
        return cls(edge_table=dict(table))

    def assign(self, node_a, node_b, mid, normal):
        if self.edge_table is not None:
            key = (min(node_a, node_b), max(node_a, node_b))
            if key not in self.edge_table:
                raise MeshError(f"boundary edge {key} has no entry in the boundary table")
            return self.edge_table[key]
        for code, group, pred in self.rules:
            if pred(mid, normal):
                return code, group
        raise MeshError(f"boundary face at {mid} matched no boundary rule")


@dataclass
class Mesh:
    """A built triangulation: topology, geometry and per-step constants.

    Built only by ``build_mesh``; every array is read-only.  Face order and
    stencil order fix the order of every sum over faces or neighbors, so
    they are part of the layout, not an implementation detail.
    """

    nodes: np.ndarray          # (Nn, 2)
    tri: np.ndarray            # (N, 3) CCW node indices
    area: np.ndarray           # (N,)
    inv_area: np.ndarray       # (N,) 1 / area
    sqrt_area: np.ndarray      # (N,) sqrt(area), the cell length scale
    centroid: np.ndarray       # (N, 2)
    # faces in edge order: plain interior, merged periodic pairs by group,
    # then boundary faces by tag
    f_left: np.ndarray         # (F,) left cell id
    f_right: np.ndarray        # (F,) right cell id or ghost slot >= n_cells
    f_normal: np.ndarray       # (F, 2) unit, left -> right
    f_len: np.ndarray          # (F,)
    f_mid: np.ndarray          # (F, 2) midpoint on the left side
    f_shift: np.ndarray        # (F, 2) left-midpoint minus right-midpoint (periodic)
    n_iface: int               # faces with a real cell on both sides
    f_slot_l: np.ndarray       # (F,) flat stencil slot of the left side
    f_slot_r: np.ndarray       # (n_iface,) flat stencil slot of the right side
    # boundary faces (face ids n_iface..F-1, grouped by tag)
    b_tag: np.ndarray          # (Fb,)
    tag_slices: dict           # tag code -> slice into boundary order
    boundary_edges: np.ndarray # (Eb, 4) node_a, node_b, tag, group (pre-merge),
                               # in edge order
    # per-cell tables: neighbors CCW, starting right after the largest
    # stencil angle (ties: see _stencil_start), so angles[:, 2] is the largest
    nbr: np.ndarray            # (N, 3) extended ids (ghosts >= n_cells)
    nbr_dx: np.ndarray         # (N, 3) neighbor centroid offsets (virtual)
    nbr_dy: np.ndarray
    lsq_wd: np.ndarray         # (2, 3, N) LSQ weight 1/|d|^2 times offset d
    inv11: np.ndarray          # (N,) inverse LSQ normal matrix entries
    inv12: np.ndarray
    inv22: np.ndarray
    angles: np.ndarray         # (N, 3) stencil angles, radians; angles[:, k]
                               # lies between neighbors k and k+1 (mod 3)
    interior_mask: np.ndarray  # (N,) True when all neighbors are real cells
    cell_foff: np.ndarray      # (2, 3, N) centroid -> own-side face midpoint
    cell_sn: np.ndarray        # (2, 3, N) outward normal times face length
    slot_face: np.ndarray      # (3, N) face of each stencil slot
    slot_len: np.ndarray       # (3, N) its length, negative on the right side
    ghost_centroid: np.ndarray = field(default=None)  # (Fb, 2) mirrored centers
    region: np.ndarray = field(default=None)
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_cells(self):
        return self.tri.shape[0]

    @property
    def n_faces(self):
        return self.f_left.shape[0]

    @property
    def n_ghost(self):
        return self.n_faces - self.n_iface

    @property
    def min_sqrt_area(self):
        return float(self.sqrt_area.min())

    @property
    def mean_cell_length(self):
        return float(np.sqrt(self.area.mean()))

    def cell_blocks(self, k):
        """The cells in k contiguous blocks of near-equal size, as
        ``CellBlock`` views; built once per k and kept with the mesh.

        Each cut is the equal split rounded down to a multiple of
        BLOCK_ALIGN cells, so on a mesh of fewer than k * BLOCK_ALIGN cells
        the first blocks may be empty."""
        if k not in self._blocks:
            n = self.n_cells
            cuts = [BLOCK_ALIGN * (n * b // (k * BLOCK_ALIGN)) for b in range(k)] + [n]
            self._blocks[k] = [CellBlock(self, slice(lo, hi))
                               for lo, hi in zip(cuts[:-1], cuts[1:])]
        return self._blocks[k]


# Block cuts fall on multiples of this many cells.  Single-threaded
# OpenBLAS can round a column of the network's matrix products differently
# near the end of the matrix than inside it, so with arbitrary cuts a cell's
# alpha would depend on where its block was cut.  Cuts at multiples of 8
# already gave alpha bitwise equal to one block's for 2 to 7 blocks; 64
# leaves a margin.
BLOCK_ALIGN = 64


class CellBlock:
    """A contiguous range of a mesh's cells, for the step's per-cell stages.

    It holds views of the per-cell arrays those stages read, under the
    mesh's own names and cut to the range on the cell axis, so a block
    passes where the stages take a mesh.  ``cells`` is the range as a slice.
    """

    CELL_ARRAYS = ("inv_area", "sqrt_area", "lsq_wd", "inv11", "inv12", "inv22",
                   "interior_mask", "cell_foff", "cell_sn")

    def __init__(self, mesh, cells):
        self.cells = cells
        self.n_cells = cells.stop - cells.start
        for name in self.CELL_ARRAYS:
            setattr(self, name, getattr(mesh, name)[..., cells])
        self.angles = mesh.angles[cells]        # one row per cell


@dataclass
class ParentMap:
    parent: np.ndarray       # (Nf,) coarse parent of each fine cell
    children: np.ndarray     # (Nc, 4) fine children of each coarse cell
    child_area: np.ndarray   # (Nc, 4)
    parent_area: np.ndarray  # (Nc,)


def _signed_area(nodes, tri):
    p0 = nodes[tri[:, 0]]
    p1 = nodes[tri[:, 1]]
    p2 = nodes[tri[:, 2]]
    return 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                  - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))


STENCIL_TOL = 1e-9


def _stencil_start(dxy):
    """Canonical first neighbor of each stencil, as an index into ``dxy``.

    ``dxy`` (N, 3, 2) holds the centroid offsets of each cell's neighbors in
    counterclockwise order.  Every cyclic start is scored by the tuple
    (minus the angle that closes the stencil, the first angle, the distances
    to the first, second and third neighbor) and the smallest tuple wins, so
    the stencil starts right after its largest angle.  Each entry of the
    tuple is compared within a tolerance: STENCIL_TOL radians for angles,
    STENCIL_TOL times the longest offset for distances.  All the entries are
    invariant under rotation and translation.  Only a stencil on which all
    three angles and all three distances agree (threefold symmetric, like
    the equilateral one) has no geometric start; it keeps the given first
    neighbor, the first counterclockwise from +x, which depends on the
    orientation.
    """
    ang = np.arctan2(dxy[..., 1], dxy[..., 0]) % (2.0 * np.pi)
    gap = (np.roll(ang, -1, axis=1) - ang) % (2.0 * np.pi)   # neighbor k -> k+1
    dist = np.hypot(dxy[..., 0], dxy[..., 1])
    dtol = STENCIL_TOL * dist.max(axis=1, keepdims=True)
    start = np.arange(3)
    keys = [(-gap[:, start - 1], STENCIL_TOL), (gap, STENCIL_TOL)]
    keys += [(dist[:, (start + k) % 3], dtol) for k in range(3)]
    cand = np.ones(gap.shape, dtype=bool)
    for key, tol in keys:
        best = np.where(cand, key, np.inf).min(axis=1, keepdims=True)
        cand &= key <= best + tol
    return cand.argmax(axis=1)


def first_occurrence_ids(key):
    """Number the distinct values of the flattened ``key`` by first occurrence:
    returns each entry's number and, per number, the index where it first occurs."""
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inv.ravel()], first[order]


def _edges(tri, n_nodes):
    """Number the edges of a triangulation in the order of their first half-edge.

    Half-edge ``h = 3 * cell + k`` runs from node ``tri[cell, k]`` to node
    ``tri[cell, (k + 1) % 3]``.  Returns ``(edge, first, second)``: the edge
    id of every half-edge (3N,) and, per edge, its first and second
    half-edge (``second`` is -1 on a boundary edge).  An edge with more
    than two half-edges raises MeshError.
    """
    tail, head = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    key = np.minimum(tail, head) * n_nodes + np.maximum(tail, head)
    edge, first = first_occurrence_ids(key)
    count = np.bincount(edge)
    over = np.flatnonzero(count > 2)
    if over.size:
        h = first[over[0]]
        lo, hi = sorted((int(tail[h]), int(head[h])))
        raise MeshError(f"non-manifold edge {(lo, hi)}: {count[over[0]]} incident cells")
    by_edge = np.argsort(edge, kind="stable")      # half-edges grouped by edge
    nxt = np.minimum(np.cumsum(count) - count + 1, by_edge.size - 1)
    second = np.where(count == 2, by_edge[nxt], -1)
    return edge, first, second


def _cells_last(a):
    """(N, ..., 2) per-cell table as a contiguous (2, ..., N) one."""
    return np.ascontiguousarray(a.T)


def build_mesh(nodes, triangles, boundary_spec=None):
    """Build a Mesh from raw nodes and triangle node triples.

    Triangles are reoriented counterclockwise; all derived geometry is
    populated here.  Faces come in edge order (``_edges``): plain interior
    faces, then merged periodic pairs by group, then boundary faces by tag.
    Each cell's neighbors are listed counterclockwise, starting right after
    the largest stencil angle (``_stencil_start``).  Triangles with a
    repeated node, degenerate (zero-area) or duplicate triangles and
    non-manifold edges are rejected.  ``boundary_spec`` assigns BC tags;
    None means supersonic outflow (extrapolation) everywhere.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    tri = np.array(triangles, dtype=np.int64)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise MeshError("triangles must be (M, 3) node index triples")
    if tri.min(initial=0) < 0 or tri.max(initial=-1) >= len(nodes):
        raise MeshError("triangle references a node out of range")
    if boundary_spec is None:
        boundary_spec = BoundarySpec.uniform(SUPERSONIC_OUT)
    n_cells = tri.shape[0]

    # a repeated node also gives zero area; name it before the area check
    srt = np.sort(tri, axis=1)
    bad = np.flatnonzero((srt[:, 0] == srt[:, 1]) | (srt[:, 1] == srt[:, 2]))
    if bad.size:
        raise MeshError(f"triangle with repeated node: cell {bad[0]}")

    scale = max(np.ptp(nodes[:, 0]), np.ptp(nodes[:, 1]), 1e-300)
    sa = _signed_area(nodes, tri)
    flip = sa < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    area = np.abs(sa)
    bad = np.where(area <= 1e-14 * scale * scale)[0]
    if bad.size:
        raise MeshError(f"degenerate triangle (zero area): cell {bad[0]}")
    _, once, inv = np.unique(srt, axis=0, return_index=True, return_inverse=True)
    first_copy = once[inv.ravel()]
    bad = np.flatnonzero(first_copy != np.arange(n_cells))
    if bad.size:
        raise MeshError(f"duplicate triangle: cells {first_copy[bad[0]]} and {bad[0]}")
    centroid = (nodes[tri[:, 0]] + nodes[tri[:, 1]] + nodes[tri[:, 2]]) / 3.0

    # edge geometry along each edge's first half-edge; the cell of that
    # half-edge keeps the interior on its left: outward is (dy, -dx)
    _, first, second = _edges(tri, len(nodes))
    e_a, e_b = tri.ravel()[first], tri[:, [1, 2, 0]].ravel()[first]
    pa, pb = nodes[e_a], nodes[e_b]
    d = pb - pa
    e_len = np.hypot(d[:, 0], d[:, 1])
    e_normal = np.column_stack([d[:, 1] / e_len, -d[:, 0] / e_len])
    e_mid = (pa + pb) / 2.0
    e_cell = first // 3
    inner = np.flatnonzero(second >= 0)
    bnd = np.flatnonzero(second < 0)

    tags = np.array([boundary_spec.assign(a, b, mid, nrm) for a, b, mid, nrm in
                     zip(e_a[bnd].tolist(), e_b[bnd].tolist(), e_mid[bnd], e_normal[bnd])],
                    dtype=np.int64).reshape(-1, 2)
    boundary_edges = np.column_stack([e_a[bnd], e_b[bnd], tags])

    # pair periodic faces by translated midpoints and merge each pair into
    # one interior-like face with a virtual translation for the right cell
    per = tags[:, 0] == PERIODIC
    side_a, side_b = [], []
    tol = 1e-9 * scale
    for g in np.unique(tags[per, 1]).tolist():
        gf = bnd[per & (tags[:, 1] == g)]
        if len(gf) % 2:
            raise MeshError(f"periodic group {g} has an odd number of faces")
        n0 = e_normal[gf[0]]
        on_a = e_normal[gf, 0] * n0[0] + e_normal[gf, 1] * n0[1] > 0.0
        fa, fb = gf[on_a], gf[~on_a]
        if len(fa) != len(fb):
            raise MeshError(f"periodic group {g}: sides do not split evenly")
        mids_b = e_mid[fb]
        t_ab = mids_b.mean(axis=0) - e_mid[fa].mean(axis=0)
        used = np.zeros(len(fb), dtype=bool)
        for ea in fa:
            dist = np.hypot(*(mids_b - (e_mid[ea] + t_ab)).T)
            j = int(np.argmin(dist))
            if dist[j] > tol or used[j]:
                raise MeshError(f"periodic group {g}: no partner for face at {e_mid[ea]}")
            used[j] = True
            if abs(e_len[ea] - e_len[fb[j]]) > 1e-10:
                raise MeshError(f"periodic group {g}: paired faces differ in length")
            # keep side-a geometry; the right cell is the partner's, shifted by -t_ab
            side_a.append(ea)
            side_b.append(fb[j])
    side_a = np.array(side_a, dtype=np.int64)
    side_b = np.array(side_b, dtype=np.int64)
    by_tag = np.argsort(tags[~per, 0], kind="stable")
    b_tag = tags[~per, 0][by_tag]
    ghost = bnd[~per][by_tag]

    # faces: plain interior, merged periodic, then boundary by tag
    f_edge = np.concatenate([inner, side_a, ghost])
    n_iface = len(inner) + len(side_a)
    F = len(f_edge)
    f_left = e_cell[f_edge]
    f_right = np.concatenate([second[inner] // 3, e_cell[side_b],
                              n_cells + np.arange(len(ghost))])
    f_normal, f_len, f_mid = e_normal[f_edge], e_len[f_edge], e_mid[f_edge]
    f_shift = np.zeros((F, 2))
    f_shift[len(inner):n_iface] = e_mid[side_a] - e_mid[side_b]
    g_cell, g_n = f_left[n_iface:], f_normal[n_iface:]
    r = f_mid[n_iface:] - centroid[g_cell]
    depth = r[:, 0] * g_n[:, 0] + r[:, 1] * g_n[:, 1]
    ghost_centroid = centroid[g_cell] + 2.0 * depth[:, None] * g_n
    tag_slices = {}
    for code in sorted(set(b_tag.tolist())):
        idx = np.where(b_tag == code)[0]
        tag_slices[code] = slice(int(idx[0]), int(idx[-1]) + 1)

    # per-cell tables, one row per half-edge: its face, and whether the
    # cell is that face's left cell
    he_face = np.empty(3 * n_cells, dtype=np.int64)
    he_left = np.zeros(3 * n_cells, dtype=bool)
    he_face[first[f_edge]] = np.arange(F)
    he_left[first[f_edge]] = True
    he_face[np.concatenate([second[inner], first[side_b]])] = np.arange(n_iface)
    face = he_face.reshape(n_cells, 3)
    left = he_left.reshape(n_cells, 3)
    own = centroid[:, None, :]
    c_ext = np.concatenate([centroid, ghost_centroid])
    nbr = np.where(left, f_right[face], f_left[face])
    shift = np.where(left[..., None], f_shift[face], -f_shift[face])
    dxy = c_ext[nbr] + shift - own
    cell_foff = np.where(left[..., None], f_mid[face], f_mid[face] - f_shift[face]) - own
    cell_n = np.where(left, 1.0, -1.0)[..., None] * f_normal[face]
    slen = f_len[face]

    # order each stencil by face, then counterclockwise from +x, then roll
    # it to its canonical start
    cells = np.arange(n_cells)[:, None]
    perm = np.argsort(2 * face + ~left, axis=1, kind="stable")
    ang = np.arctan2(dxy[cells, perm, 1], dxy[cells, perm, 0]) % (2.0 * np.pi)
    perm = perm[cells, np.argsort(ang, axis=1, kind="stable")]
    roll = (_stencil_start(dxy[cells, perm])[:, None] + np.arange(3)) % 3
    perm = perm[cells, roll]
    nbr, dxy, cell_foff, cell_n, slen, face, left = (
        a[cells, perm] for a in (nbr, dxy, cell_foff, cell_n, slen, face, left))
    cell_sn = cell_n * slen[:, :, None]
    slot = np.arange(3 * n_cells).reshape(3, n_cells).T      # (N, 3): j * N + i
    f_slot_l = np.empty(F, dtype=np.int64)
    f_slot_l[face[left]] = slot[left]
    f_slot_r = np.empty(n_iface, dtype=np.int64)
    f_slot_r[face[~left]] = slot[~left]
    slot_face = np.empty(3 * n_cells, dtype=np.int64)
    slot_face[f_slot_l] = np.arange(F)
    slot_face[f_slot_r] = np.arange(n_iface)
    slot_len = np.empty(3 * n_cells)
    slot_len[f_slot_l] = f_len
    slot_len[f_slot_r] = -f_len[:n_iface]

    nbr_dx = dxy[:, :, 0].copy()
    nbr_dy = dxy[:, :, 1].copy()
    dist2 = nbr_dx ** 2 + nbr_dy ** 2
    lsq_w = 1.0 / dist2

    a11 = (lsq_w * nbr_dx ** 2).sum(axis=1)
    a12 = (lsq_w * nbr_dx * nbr_dy).sum(axis=1)
    a22 = (lsq_w * nbr_dy ** 2).sum(axis=1)
    det = a11 * a22 - a12 ** 2
    trace = a11 + a22
    degen = np.where(det <= 1e-14 * trace ** 2)[0]
    if degen.size:
        raise MeshError(f"degenerate LSQ stencil (singular normal matrix): cell {degen[0]}")
    inv11 = a22 / det
    inv12 = -a12 / det
    inv22 = a11 / det

    ang = np.arctan2(nbr_dy, nbr_dx) % (2.0 * np.pi)
    angles = (np.roll(ang, -1, axis=1) - ang) % (2.0 * np.pi)
    interior_mask = (nbr < n_cells).all(axis=1)

    # closed-polygon identity, Sum n |S| = 0 per cell
    closure = cell_sn.sum(axis=1)
    perim = slen.sum(axis=1)
    worst = np.abs(closure).max(axis=1) / perim
    if worst.max() > 1e-12:
        raise MeshError(f"face closure violated at cell {int(worst.argmax())}")
    asum = angles.sum(axis=1)
    if np.abs(asum - 2.0 * np.pi).max() > 1e-10:
        raise MeshError("stencil angles do not wind once around a centroid")

    m = Mesh(
        nodes=nodes, tri=tri, area=area, inv_area=1.0 / area, sqrt_area=np.sqrt(area),
        centroid=centroid,
        f_left=f_left, f_right=f_right, f_normal=f_normal, f_len=f_len,
        f_mid=f_mid, f_shift=f_shift, n_iface=n_iface,
        f_slot_l=f_slot_l, f_slot_r=f_slot_r,
        slot_face=slot_face.reshape(3, n_cells), slot_len=slot_len.reshape(3, n_cells),
        b_tag=b_tag, tag_slices=tag_slices, boundary_edges=boundary_edges,
        nbr=nbr, nbr_dx=nbr_dx, nbr_dy=nbr_dy,
        lsq_wd=_cells_last(np.stack([lsq_w * nbr_dx, lsq_w * nbr_dy], axis=2)),
        inv11=inv11, inv12=inv12, inv22=inv22,
        angles=angles, interior_mask=interior_mask,
        cell_foff=_cells_last(cell_foff), cell_sn=_cells_last(cell_sn),
        ghost_centroid=ghost_centroid,
    )
    for arr in vars(m).values():
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return m


def refine_uniform(mesh):
    """Split every triangle at its edge midpoints into four children.

    Midpoint nodes follow the mesh nodes in edge order (``_edges``).
    Boundary tags (and periodic pairing groups) are inherited by the two
    child edges of each boundary edge.  Returns the fine mesh and the
    parent map used by the conservative projection.
    """
    n_nodes = len(mesh.nodes)
    he_edge, first, second = _edges(mesh.tri, n_nodes)
    tail, head = mesh.tri.ravel()[first], mesh.tri[:, [1, 2, 0]].ravel()[first]
    nodes = np.concatenate([mesh.nodes, (mesh.nodes[tail] + mesh.nodes[head]) / 2.0])
    a, b, c = mesh.tri.T
    mab, mbc, mca = (n_nodes + he_edge).reshape(-1, 3).T
    tris = np.column_stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca])

    # build_mesh lists boundary edges in edge order, so row k of
    # boundary_edges is the k-th edge without a second half-edge
    mid = (n_nodes + np.flatnonzero(second < 0)).tolist()
    tag_group = [tuple(r) for r in mesh.boundary_edges[:, 2:].tolist()]
    edge_table = dict(zip(zip(mesh.boundary_edges[:, 0].tolist(), mid), tag_group))
    edge_table.update(zip(zip(mesh.boundary_edges[:, 1].tolist(), mid), tag_group))

    fine = build_mesh(nodes, tris.reshape(-1, 3), BoundarySpec.from_edge_table(edge_table))

    n_coarse = mesh.n_cells
    children = np.arange(4 * n_coarse, dtype=np.int64).reshape(n_coarse, 4)
    parent = np.repeat(np.arange(n_coarse, dtype=np.int64), 4)
    pm = ParentMap(
        parent=parent,
        children=children,
        child_area=fine.area[children],
        parent_area=mesh.area.copy(),
    )
    if np.abs(pm.child_area.sum(axis=1) - pm.parent_area).max() > 1e-10 * pm.parent_area.max():
        raise MeshError("child areas do not sum to parent areas")
    return fine, pm


def project_fine_to_coarse(fine_field, pm):
    """Area-weighted mean of the four children of each coarse cell.

    Acts on conservative variables; the total integral sum(|C| w) is
    preserved up to round-off.
    """
    fine_field = np.asarray(fine_field)
    if fine_field.shape[0] != pm.parent.shape[0]:
        raise ValueError(
            f"field has {fine_field.shape[0]} rows, parent map expects {pm.parent.shape[0]}")
    vals = fine_field[pm.children]                      # (Nc, 4, C)
    w = pm.child_area[:, :, None]
    return (vals * w).sum(axis=1) / pm.parent_area[:, None]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def structured_mesh(nx, ny=None, lx=1.0, ly=1.0, boundary_spec=None):
    """Structured-split triangulation of [0,lx] x [0,ly]: 2*nx*ny triangles."""
    if ny is None:
        ny = nx
    if min(nx, ny) < 1:
        raise ValueError(f"structured mesh needs nx, ny >= 1, got {nx}, {ny}")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    n00 = (i * (ny + 1) + j).ravel()
    n10, n01 = n00 + ny + 1, n00 + 1
    n11 = n10 + 1
    tris = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)
    return build_mesh(nodes, tris, boundary_spec)


def periodic_structured_mesh(nx, ny=None, lx=1.0, ly=1.0):
    return structured_mesh(nx, ny, lx, ly,
                           BoundarySpec.periodic_box(0.0, lx, 0.0, ly))


def irregular_mesh(n, seed=0, lx=1.0, ly=1.0, jitter=0.35, boundary_spec=None):
    """Seeded irregular Delaunay triangulation of [0,lx] x [0,ly].

    Boundary nodes stay on a uniform lattice (identical on opposite sides,
    so periodic pairing still works); interior nodes are jittered.  Roughly
    2*n*n cells.
    """
    from scipy.spatial import Delaunay

    if n < 1:
        raise ValueError(f"irregular mesh needs n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, lx, n + 1)
    ys = np.linspace(0.0, ly, n + 1)
    X, Y = np.meshgrid(xs[1:-1], ys[1:-1], indexing="ij")
    jit = rng.uniform(-jitter, jitter, size=((n - 1) ** 2, 2))
    pts = np.concatenate([
        np.column_stack([xs, np.zeros(n + 1)]),
        np.column_stack([xs, np.full(n + 1, ly)]),
        np.column_stack([np.zeros(n - 1), ys[1:-1]]),
        np.column_stack([np.full(n - 1, lx), ys[1:-1]]),
        np.column_stack([X.ravel() + jit[:, 0] * (lx / n), Y.ravel() + jit[:, 1] * (ly / n)]),
    ])
    dt = Delaunay(pts)
    return build_mesh(pts, dt.simplices, boundary_spec)


def periodic_irregular_mesh(n, seed=0, lx=1.0, ly=1.0, jitter=0.35):
    return irregular_mesh(n, seed, lx, ly, jitter,
                          BoundarySpec.periodic_box(0.0, lx, 0.0, ly))


# ---------------------------------------------------------------------------
# ASCII mesh format
# ---------------------------------------------------------------------------
# header `nodes N cells M`, N lines `x y`, M lines `i j k region`, then one
# line per boundary edge: `btag node_a node_b type [pair]`, 0-based indices.

def write_mesh_ascii(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"nodes {len(mesh.nodes)} cells {mesh.n_cells}\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        region = mesh.region if mesh.region is not None else np.zeros(mesh.n_cells, int)
        for t, r in zip(mesh.tri, region):
            fh.write(f"{t[0]} {t[1]} {t[2]} {int(r)}\n")
        for k, (a, b, tag, group) in enumerate(mesh.boundary_edges):
            name = TAG_NAMES[int(tag)].upper()
            extra = f" {int(group)}" if int(tag) == PERIODIC else ""
            fh.write(f"{k} {int(a)} {int(b)} {name}{extra}\n")


def read_mesh_ascii(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].split()
    if head[0] != "nodes" or head[2] != "cells":
        raise MeshError(f"bad mesh header: {lines[0]!r}")
    n_nodes, n_cells = int(head[1]), int(head[3])
    nodes = np.array([[float(v) for v in ln.split()] for ln in lines[1:1 + n_nodes]])
    tri_rows = lines[1 + n_nodes:1 + n_nodes + n_cells]
    tris = []
    region = []
    for ln in tri_rows:
        parts = ln.split()
        tris.append((int(parts[0]), int(parts[1]), int(parts[2])))
        region.append(int(parts[3]) if len(parts) > 3 else 0)
    table = {}
    for ln in lines[1 + n_nodes + n_cells:]:
        parts = ln.split()
        a, b = int(parts[1]), int(parts[2])
        tag = TAG_CODES[parts[3].lower()]
        group = int(parts[4]) if len(parts) > 4 else 0
        table[(min(a, b), max(a, b))] = (tag, group)
    spec = BoundarySpec.from_edge_table(table) if table else None
    m = build_mesh(nodes, tris, spec)
    m.region = np.array(region, dtype=np.int64)
    m.region.setflags(write=False)
    return m
