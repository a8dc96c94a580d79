"""Unstructured triangular meshes for the cell-centered finite volume solver.

A built ``Mesh`` is immutable and carries every derived quantity the solver
needs: face geometry (midpoint, left/right cells, unit normal oriented
left to right), per-cell neighbor tables in counter-clockwise
order, the stencil angles between successive centroid-to-centroid
directions, precomputed inverse least-squares normal matrices, ghost
slots for non-periodic boundary faces, and the constants that
reconstruction would otherwise recompute every step (centroid-to-face
offsets and each face's stencil slots, Green-Gauss scaled normals, LSQ
weighted offsets, 1/|C| and sqrt|C|, and the limiter's (K sqrt|C|)^3 per
K once a step asks for it).

Topology comes from one array-based edge numbering (``_edges``): edges are
numbered in the order of their first half-edge, and faces, ghosts, the
per-cell tables and the midpoints of a refinement all follow that order.

Each cell's stencil starts at the neighbor right after its largest stencil
angle (see ``_stencil_start``), so the neighbor order, and with it every
per-neighbor input of the correction network, follows the shape of the
stencil and not its orientation: rotating or translating a mesh leaves
``nbr`` and ``angles`` unchanged, up to round-off in ``angles``, on every
stencil that is not threefold symmetric.

The generators number cells two per lattice quad, the quad at column i and
row j giving cells 2 k and 2 k + 1: ``structured_mesh(nx, ny)`` takes the
quads column by column, k = i ny + j, and ``irregular_mesh(n)`` row by row,
k = j n + i.  In an irregular mesh a Lawson flip rewrites the two cells that
share the flipped edge in place, so a few cells hold a triangle of a
neighbouring quad.

Periodic boundaries are resolved at build time: the two paired boundary
faces are merged into a single interior-like face whose right cell sits at
a virtually translated centroid, so periodic cells look like interior
cells to every downstream consumer.

Ghost cells (one layer) mirror the interior centroid across the boundary
face; the boundary-condition layer synthesizes their values per step as an
array of their own.  ``f_right`` and ``nbr`` name ghost slot k
``n_cells + k``, as if the ghost states followed the cells;
``autodiff.take_rows`` gathers through such an index without joining them.

The per-cell tables the step reads (``nbr``, ``angles``, ``lsq_wd``,
``cell_foff``, ``cell_sn``, ``slot_face``, ``slot_len``) are stored with the
cell axis last and contiguous, like the step's own fields; the other
topology and geometry tables keep one row per cell or face.

``build_mesh`` itself works cells-last, like the step: nodes, cells, edges
and faces as one array per coordinate, and the per-cell tables as (3, N)
rows, one per stencil slot.  Every reduction, sort or comparison over a
cell's three entries is elementwise over the three rows, and a sum adds
them in row order, ((a + b) + c), as numpy's reduction over an axis of
three does, so the stored tables are bitwise those of a row-per-cell
build.  The stencil order is one permutation of the slot rows, applied once
to the slot tables; the face geometry of each slot is gathered after it.

A stencil slot is one (neighbor j, cell i) pair of a per-cell table, at flat
index ``j * n_cells + i`` of a (..., 3, n_cells) array reshaped to
(..., 3 * n_cells).  Every slot is one side of exactly one face: the left
side of any face, or the right side of an interior one.  ``face_slots``
(2, F) names each face's left and right slot; the right side of a boundary
face is its ghost, numbered 3 N + its ghost slot, as if the ghost states
followed the slots.  So a per-slot quantity (MUSCL's face states) reaches
both sides of every face through one gather.  The inverse
tables ``slot_face`` and ``slot_len`` (3, N) name each slot's face and its
length, signed by the side, so a per-face flux reaches the cells through one
gather and a stencil sum.

``Mesh.copies(b)`` lays b copies of a mesh side by side as one mesh with no
face between them, so that one traced program steps b states at once
(``train`` records a group of samples this way).  ``build_mesh`` builds
them like any other mesh, from the mesh's nodes and triangles tiled b times
and its boundary table with each copy's periodic groups renumbered, so
each copy pairs with itself and no table is derived a second way.
"""

from collections import Counter
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


class MeshFileError(MeshError):
    """A mesh file that does not parse (``read_mesh_ascii``)."""


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

    Built by ``build_mesh`` alone, which every generator, ``refine_uniform``,
    the file reader and ``Mesh.copies`` call; every array is read-only.
    Face order and stencil order fix the order of every sum over faces or
    neighbors, so they are part of the layout, not an implementation detail.
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
    f_mid: np.ndarray          # (F, 2) midpoint on the left side
    n_iface: int               # faces with a real cell on both sides
    face_slots: np.ndarray     # (2, F) flat stencil slot of the left and right
                               # side; 3 N + ghost slot for a boundary face's right
    # boundary faces (face ids n_iface..F-1, grouped by tag)
    tag_slices: dict           # tag code -> slice into boundary order
    boundary_edges: np.ndarray # (Eb, 4) node_a, node_b, tag, group (pre-merge),
                               # in edge order
    # per-cell tables: neighbors CCW, starting right after the largest
    # stencil angle (ties: see _stencil_start), so angles[2] is the largest
    nbr: np.ndarray            # (3, N) neighbor ids; n_cells + k for ghost slot k
    lsq_wd: np.ndarray         # (2, 3, N) LSQ weight 1/|d|^2 times offset d
    inv11: np.ndarray          # (N,) inverse LSQ normal matrix entries
    inv12: np.ndarray
    inv22: np.ndarray
    angles: np.ndarray         # (3, N) stencil angles, radians; angles[k]
                               # lies between neighbors k and k+1 (mod 3)
    interior_mask: np.ndarray  # (N,) True when all neighbors are real cells
    cell_foff: np.ndarray      # (2, 3, N) centroid -> own-side face midpoint
    cell_sn: np.ndarray        # (2, 3, N) outward normal times face length
    slot_face: np.ndarray      # (3, N) face of each stencil slot
    slot_len: np.ndarray       # (3, N) its length, negative on the right side
    region: np.ndarray = field(default=None)
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _face_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _copies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _omega: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        # no cell touches a boundary: the corrected step masks no alpha
        self.all_interior = bool(self.interior_mask.all())
        # copies of a built mesh this mesh holds side by side (``copies``)
        self.n_copies = 1

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

        The blocks are cut by ``aligned_cuts``, so on a mesh of fewer than
        k * BLOCK_ALIGN cells the first blocks may be empty."""
        if k not in self._blocks:
            cuts = aligned_cuts(self.n_cells, k)
            self._blocks[k] = [CellBlock(self, slice(lo, hi))
                               for lo, hi in zip(cuts[:-1], cuts[1:])]
        return self._blocks[k]

    def face_blocks(self, k):
        """The faces in k contiguous ranges of near-equal size, as
        ``FaceBlock`` views; built once per k and kept with the mesh."""
        if k not in self._face_blocks:
            f = self.n_faces
            self._face_blocks[k] = [FaceBlock(self, slice(f * b // k, f * (b + 1) // k))
                                    for b in range(k)]
        return self._face_blocks[k]

    def limiter_omega(self, k):
        """The limiter's smoothing term (k sqrt|C|)^3 per cell
        (``recon.venkat_limiter``); built once per k and kept with the mesh."""
        return _limiter_omega(self._omega, self.sqrt_area, k)

    def copies(self, b):
        """b copies of this mesh side by side, with no face between them, as
        one mesh; built once per b and kept with the mesh.  One copy is the
        mesh itself.  The result's ``n_copies`` is b times this mesh's.

        Copy c holds cells c N to (c + 1) N - 1 and nodes c Nn to
        (c + 1) Nn - 1 in this mesh's order, so a field on the copies is b
        fields of this mesh stacked along the cell axis.  ``build_mesh``
        builds them from the tiled nodes and triangles and ``boundary_edges``
        tiled the same way, each copy's group ids offset past the previous
        copy's so that every periodic face pairs within its copy; the
        copies' ``boundary_edges`` keep those groups.  In the build's face
        order the merged periodic faces of every copy follow the plain
        interior faces of every copy, and each tag's boundary faces come
        copy by copy, with their ghosts.  So the faces whose left cell lies
        in copy c are, in face order, this mesh's faces with their cells
        offset by c N; per-face boundary data on the copies is each tag's
        data of this mesh tiled b times (``bc.tile_table``); every per-cell
        and per-face value of a step equals that of the copy's own mesh, and
        a step on the copies records the ops of a step on one mesh.
        """
        if b == 1:
            return self
        if b not in self._copies:
            nn, group = len(self.nodes), self.boundary_edges[:, 3]
            copy = np.arange(b)[:, None, None]
            span = group.max(initial=0) - group.min(initial=0) + 1
            rows = (self.boundary_edges + copy * [nn, nn, 0, span]).reshape(-1, 4)
            table = {(min(p, q), max(p, q)): (tag, g) for p, q, tag, g in rows.tolist()}
            tiled = build_mesh(np.tile(self.nodes, (b, 1)), (self.tri + nn * copy).reshape(-1, 3),
                               BoundarySpec.from_edge_table(table))
            if self.region is not None:
                tiled.region = np.tile(self.region, b)
                tiled.region.setflags(write=False)
            tiled.n_copies = b * self.n_copies
            self._copies[b] = tiled
        return self._copies[b]


# Block cuts fall on multiples of this many cells.  Single-threaded
# OpenBLAS can round a column of the network's matrix products differently
# near the end of the matrix than inside it, so with arbitrary cuts a cell's
# alpha would depend on where its block was cut.  Cuts at multiples of 8
# already gave alpha bitwise equal to one block's for 2 to 7 blocks; 64
# leaves a margin.
BLOCK_ALIGN = 64


def aligned_cuts(n, k):
    """The k + 1 bounds of n cells cut into k contiguous parts of near-equal
    size: each inner cut is the equal split n b / k rounded down to a
    multiple of BLOCK_ALIGN, so every part holds fewer than
    n / k + BLOCK_ALIGN cells.  The step's cell blocks and the network's
    head chunks (``mlcorr``) are cut here."""
    return [BLOCK_ALIGN * (n * b // (k * BLOCK_ALIGN)) for b in range(k)] + [n]


def _limiter_omega(cache, sqrt_area, k):
    """(k sqrt_area)^3, read-only, from ``cache`` or made and kept there.
    Two blocks of a step may both make it on the first step; the values are
    the same either way."""
    if k not in cache:
        omega = (k * sqrt_area) ** 3
        omega.setflags(write=False)
        cache[k] = omega
    return cache[k]


class CellBlock:
    """A contiguous range of a mesh's cells, for the step's per-cell stages.

    It holds views of the per-cell arrays those stages read, under the
    mesh's own names and cut to the range on the cell axis, so a block
    passes where the stages take a mesh.  ``cells`` is the range as a slice.
    The index tables (``nbr``, ``slot_face``) name the mesh's cells, ghosts
    and faces, so a block's gathers read the step's whole arrays.  A step
    that runs as one block runs on ``cell_blocks(1)``, whose views are the
    whole arrays.
    """

    CELL_ARRAYS = ("area", "inv_area", "sqrt_area", "lsq_wd", "inv11", "inv12",
                   "inv22", "angles", "interior_mask", "cell_foff", "cell_sn",
                   "nbr", "slot_face", "slot_len")

    def __init__(self, mesh, cells):
        self.cells = cells
        self.n_cells = cells.stop - cells.start
        for name in self.CELL_ARRAYS:
            setattr(self, name, getattr(mesh, name)[..., cells])
        self.all_interior = bool(self.interior_mask.all())
        # the mesh's cache and whole sqrt_area, not the mesh, so the mesh
        # and its blocks form no cycle
        self._omega, self._mesh_sqrt_area = mesh._omega, mesh.sqrt_area

    def limiter_omega(self, k):
        """This block's cells' slice of ``Mesh.limiter_omega(k)``."""
        return _limiter_omega(self._omega, self._mesh_sqrt_area, k)[self.cells]


class FaceBlock:
    """A contiguous range of a mesh's faces, for the step's per-face stage.

    It holds the face arrays that stage reads, cut to the range, and the
    mesh's cell count, which numbers the stencil slots: a block passes
    where the face gather and the flux take a mesh.  ``faces`` is the
    range as a slice; ``face_blocks(1)`` is one block of every face.
    """

    def __init__(self, mesh, faces):
        self.faces = faces
        self.n_cells = mesh.n_cells
        self.face_slots = mesh.face_slots[:, faces]
        self.f_normal = mesh.f_normal[faces]


@dataclass
class ParentMap:
    parent: np.ndarray       # (Nf,) coarse parent of each fine cell
    children: np.ndarray     # (Nc, 4) fine children of each coarse cell
    child_area: np.ndarray   # (Nc, 4)
    parent_area: np.ndarray  # (Nc,)


STENCIL_TOL = 1e-9


def _stencil_start(gap, dist):
    """Canonical first neighbor of each stencil, as a row index (N,).

    ``gap`` and ``dist`` (3, N) hold, for each cell's neighbors in
    counterclockwise order, the angle from neighbor k to neighbor k+1 and the
    centroid distance to neighbor k.  Every cyclic start is scored by the
    tuple (minus the angle that closes the stencil, the first angle, the
    distances to the first, second and third neighbor) and the smallest tuple
    wins, so the stencil starts right after its largest angle.  Each entry of
    the tuple is compared within a tolerance: STENCIL_TOL radians for angles,
    STENCIL_TOL times the longest offset for distances.  All the entries are
    invariant under rotation and translation.  Only a stencil on which all
    three angles and all three distances agree (threefold symmetric, like
    the equilateral one) has no geometric start; it keeps the given first
    neighbor, the first counterclockwise from +x, which depends on the
    orientation.  The comparison stops once no stencil has two candidate
    starts left: a later entry cannot change a stencil's only candidate.
    """
    dtol = STENCIL_TOL * np.maximum(np.maximum(dist[0], dist[1]), dist[2])
    keys = [(-np.roll(gap, 1, axis=0), STENCIL_TOL), (gap, STENCIL_TOL)]
    keys += [(np.roll(dist, -k, axis=0), dtol) for k in range(3)]
    cand = np.ones(gap.shape, dtype=bool)
    for key, tol in keys:
        best = np.where(cand, key, np.inf)
        best = np.minimum(np.minimum(best[0], best[1]), best[2])
        cand &= key <= best + tol
        if (cand.sum(axis=0) < 2).all():
            break
    return np.where(cand[0], 0, np.where(cand[1], 1, 2))


def first_occurrence_ids(key):
    """Number the distinct values of the flattened ``key`` by first occurrence:
    returns each entry's number and, per number, the index where it first occurs."""
    key = np.ravel(key)
    order = np.argsort(key)
    sk = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    # the sort is not stable: a value first occurs at its group's least index
    group_first = np.minimum.reduceat(order, starts)
    is_first = np.zeros(key.size, dtype=bool)
    is_first[group_first] = True
    number = np.cumsum(is_first) - 1
    ids = np.empty(key.size, dtype=np.int64)
    ids[order] = number[group_first][np.cumsum(new) - 1]
    return ids, np.flatnonzero(is_first)


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
    later = np.ones(key.size, dtype=bool)
    later[first] = False
    later = np.flatnonzero(later)
    second = np.full(first.size, -1, dtype=np.int64)
    second[edge[later]] = later
    return edge, first, second


def _pair_periodic(group, on_a, mid, length, tol):
    """Pair the two sides of one periodic group: side-a faces (``on_a``) in
    their given order, each with the side-b face nearest to its midpoint
    translated by the offset between the sides' mean midpoints.  ``mid``
    (Fg, 2) and ``length`` (Fg,) are the group's face midpoints and lengths;
    returns the side-a faces and their partners, as indices into them."""
    fa, fb = np.flatnonzero(on_a), np.flatnonzero(~on_a)
    if len(fa) != len(fb):
        raise MeshError(f"periodic group {group}: sides do not split evenly")
    mids_b = mid[fb]
    t_ab = mids_b.mean(axis=0) - mid[fa].mean(axis=0)
    target = mid[fa] + t_ab
    d = np.hypot(mids_b[:, 0] - target[:, :1], mids_b[:, 1] - target[:, 1:])
    j, dist = d.argmin(axis=1), d.min(axis=1)
    # the first failure in side-a order: no partner within tol, a partner an
    # earlier face took, or a partner of another length
    taken = np.ones(len(fa), dtype=bool)
    taken[np.unique(j, return_index=True)[1]] = False
    no_partner = (dist > tol) | taken
    fail = no_partner | (np.abs(length[fa] - length[fb[j]]) > 1e-10)
    if fail.any():
        k = int(fail.argmax())
        if no_partner[k]:
            raise MeshError(f"periodic group {group}: no partner for face at {mid[fa[k]]}")
        raise MeshError(f"periodic group {group}: paired faces differ in length")
    return fa, fb[j]


def build_mesh(nodes, triangles, boundary_spec=None):
    """Build a Mesh from raw nodes and triangle node triples.

    Triangles are reoriented counterclockwise; all derived geometry is
    populated here.  Faces come in edge order (``_edges``): plain interior
    faces, then merged periodic pairs by group, then boundary faces by tag.
    Each cell's neighbors are listed counterclockwise, starting right after
    the largest stencil angle (``_stencil_start``).  Non-finite node
    coordinates, triangles with a repeated node, degenerate (zero-area) or
    duplicate triangles and non-manifold edges are rejected.
    ``boundary_spec`` assigns BC tags; None means supersonic outflow
    (extrapolation) everywhere.  The work runs cells-last (module
    docstring).
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    tri = np.array(triangles, dtype=np.int64)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise MeshError("nodes must be (Nn, 2) coordinate pairs")
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise MeshError("triangles must be (M, 3) node index triples")
    x, y = nodes[:, 0].copy(), nodes[:, 1].copy()
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        raise MeshError(f"non-finite node coordinate: node {bad[0]} at {nodes[bad[0]]}")
    if tri.min(initial=0) < 0 or tri.max(initial=-1) >= len(nodes):
        raise MeshError("triangle references a node out of range")
    if boundary_spec is None:
        boundary_spec = BoundarySpec.uniform(SUPERSONIC_OUT)
    n_cells = tri.shape[0]
    t0, t1, t2 = tri.T.copy()

    # a repeated node also gives zero area; name it before the area check
    lo = np.minimum(np.minimum(t0, t1), t2)
    hi = np.maximum(np.maximum(t0, t1), t2)
    mid = t0 + t1 + t2 - lo - hi
    bad = np.flatnonzero((lo == mid) | (mid == hi))
    if bad.size:
        raise MeshError(f"triangle with repeated node: cell {bad[0]}")

    scale = max(np.ptp(x), np.ptp(y), 1e-300)
    x0, x1, x2, y0, y1, y2 = x[t0], x[t1], x[t2], y[t0], y[t1], y[t2]
    sa = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    flip = sa < 0
    tri[:, 1], tri[:, 2] = np.where(flip, t2, t1), np.where(flip, t1, t2)
    x1, x2 = np.where(flip, x2, x1), np.where(flip, x1, x2)
    y1, y2 = np.where(flip, y2, y1), np.where(flip, y1, y2)
    area = np.abs(sa)
    bad = np.where(area <= 1e-14 * scale * scale)[0]
    if bad.size:
        raise MeshError(f"degenerate triangle (zero area): cell {bad[0]}")
    # duplicates sort next to each other; a stable sort puts the first copy first
    order = np.lexsort((hi, mid, lo))
    s_lo, s_mid, s_hi = lo[order], mid[order], hi[order]
    dup = order[1:][(s_lo[1:] == s_lo[:-1]) & (s_mid[1:] == s_mid[:-1])
                    & (s_hi[1:] == s_hi[:-1])]
    if dup.size:
        cell = dup.min()
        copy = np.flatnonzero((lo == lo[cell]) & (mid == mid[cell]) & (hi == hi[cell]))[0]
        raise MeshError(f"duplicate triangle: cells {copy} and {cell}")
    cx, cy = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0

    # edge geometry along each edge's first half-edge; the cell of that
    # half-edge keeps the interior on its left: outward is (dy, -dx)
    _, first, second = _edges(tri, len(nodes))
    e_a = tri.ravel()[first]
    e_b = tri.ravel()[first + np.where(first % 3 == 2, -2, 1)]
    dx, dy = x[e_b] - x[e_a], y[e_b] - y[e_a]
    e_len = np.hypot(dx, dy)
    e_nx, e_ny = dy / e_len, -dx / e_len
    e_mx, e_my = (x[e_a] + x[e_b]) / 2.0, (y[e_a] + y[e_b]) / 2.0
    e_cell = first // 3
    inner = np.flatnonzero(second >= 0)
    bnd = np.flatnonzero(second < 0)

    b_mid = np.column_stack([e_mx[bnd], e_my[bnd]])
    b_normal = np.column_stack([e_nx[bnd], e_ny[bnd]])
    tags = np.array([boundary_spec.assign(a, b, m, n) for a, b, m, n in
                     zip(e_a[bnd].tolist(), e_b[bnd].tolist(), b_mid, b_normal)],
                    dtype=np.int64).reshape(-1, 2)
    boundary_edges = np.column_stack([e_a[bnd], e_b[bnd], tags])

    # pair periodic faces by translated midpoints and merge each pair into
    # one interior-like face with a virtual translation for the right cell:
    # side-a geometry, the partner's cell shifted by the pair's offset
    per = tags[:, 0] == PERIODIC
    side_a, side_b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for g in np.unique(tags[per, 1]).tolist():
        gf = np.flatnonzero(per & (tags[:, 1] == g))
        if len(gf) % 2:
            raise MeshError(f"periodic group {g} has an odd number of faces")
        n0 = b_normal[gf[0]]
        on_a = b_normal[gf, 0] * n0[0] + b_normal[gf, 1] * n0[1] > 0.0
        fa, fb = _pair_periodic(g, on_a, b_mid[gf], e_len[bnd[gf]], 1e-9 * scale)
        side_a.append(bnd[gf[fa]])
        side_b.append(bnd[gf[fb]])
    side_a, side_b = np.concatenate(side_a), np.concatenate(side_b)
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
    f_nx, f_ny, f_len = e_nx[f_edge], e_ny[f_edge], e_len[f_edge]
    f_mx, f_my = e_mx[f_edge], e_my[f_edge]
    f_sx, f_sy = np.zeros(F), np.zeros(F)
    f_sx[len(inner):n_iface] = e_mx[side_a] - e_mx[side_b]
    f_sy[len(inner):n_iface] = e_my[side_a] - e_my[side_b]
    g_cell, g_nx, g_ny = f_left[n_iface:], f_nx[n_iface:], f_ny[n_iface:]
    depth = (f_mx[n_iface:] - cx[g_cell]) * g_nx + (f_my[n_iface:] - cy[g_cell]) * g_ny
    g_cx = cx[g_cell] + 2.0 * depth * g_nx
    g_cy = cy[g_cell] + 2.0 * depth * g_ny
    codes, starts, counts = np.unique(b_tag, return_index=True, return_counts=True)
    tag_slices = {int(c): slice(int(s), int(s + n)) for c, s, n in zip(codes, starts, counts)}

    # per-cell tables, one row per stencil slot: the face of each half-edge,
    # and whether the cell is that face's left cell; slot k * N + i is
    # half-edge 3 * i + k until the stencil is ordered
    def slot(h):
        return h % 3 * n_cells + h // 3

    face = np.empty(3 * n_cells, dtype=np.int64)
    left = np.zeros(3 * n_cells, dtype=bool)
    face[slot(first[f_edge])] = np.arange(F)
    left[slot(first[f_edge])] = True
    face[slot(np.concatenate([second[inner], first[side_b]]))] = np.arange(n_iface)
    face, left = face.reshape(3, n_cells), left.reshape(3, n_cells)
    nbr = np.where(left, f_right[face], f_left[face])
    sx, sy = f_sx[face], f_sy[face]
    dx = np.concatenate([cx, g_cx])[nbr] + np.where(left, sx, -sx) - cx
    dy = np.concatenate([cy, g_cy])[nbr] + np.where(left, sy, -sy) - cy

    # order each stencil counterclockwise from +x, ties by face and then
    # left side first; rank each slot by pairwise comparison of the three
    ang = np.arctan2(dy, dx) % (2.0 * np.pi)
    key = 2 * face + ~left

    def before(i, j):
        return (ang[i] < ang[j]) | ((ang[i] == ang[j]) & (key[i] < key[j]))

    b01, b02, b12 = (before(i, j).astype(np.int64) for i, j in ((0, 1), (0, 2), (1, 2)))
    rank = (2 - b01 - b02, 1 + b01 - b12, b02 + b12)
    cols = np.arange(n_cells)
    ccw = np.empty((3, n_cells), dtype=np.int64)   # flat index of the k-th slot
    for k in range(3):
        ccw[rank[k], cols] = k * n_cells + cols
    ang = ang.ravel()[ccw]
    gap = (np.roll(ang, -1, axis=0) - ang) % (2.0 * np.pi)   # neighbor k -> k+1
    # then roll each stencil to its canonical start, and apply the whole
    # permutation once
    roll = (_stencil_start(gap, np.hypot(dx, dy).ravel()[ccw]) + np.arange(3)[:, None]) % 3
    roll = roll * n_cells + cols
    angles = gap.ravel()[roll]
    perm = ccw.ravel()[roll]
    face, left, nbr, dx, dy = (a.ravel()[perm] for a in (face, left, nbr, dx, dy))

    # the geometry of each slot's face, seen from the slot's cell
    mx, nx, ny, slen = f_mx[face], f_nx[face], f_ny[face], f_len[face]
    my = f_my[face]
    cell_foff = np.stack([np.where(left, mx, mx - f_sx[face]) - cx,
                          np.where(left, my, my - f_sy[face]) - cy])
    sign = np.where(left, 1.0, -1.0)
    cell_sn = np.stack([sign * nx * slen, sign * ny * slen])
    slot_len = np.where(left, slen, -slen)
    flat_left = left.ravel()
    face_slots = np.empty((2, F), dtype=np.int64)
    face_slots[0, face.ravel()[flat_left]] = np.flatnonzero(flat_left)
    face_slots[1, face.ravel()[~flat_left]] = np.flatnonzero(~flat_left)
    face_slots[1, n_iface:] = 3 * n_cells + np.arange(F - n_iface)

    lsq_w = 1.0 / (dx ** 2 + dy ** 2)
    lsq_wd = np.stack([lsq_w * dx, lsq_w * dy])
    a11 = lsq_w * dx ** 2
    a12 = lsq_wd[0] * dy
    a22 = lsq_w * dy ** 2
    a11, a12, a22 = (a[0] + a[1] + a[2] for a in (a11, a12, a22))
    det = a11 * a22 - a12 ** 2
    trace = a11 + a22
    degen = np.where(det <= 1e-14 * trace ** 2)[0]
    if degen.size:
        raise MeshError(f"degenerate LSQ stencil (singular normal matrix): cell {degen[0]}")
    inv11 = a22 / det
    inv12 = -a12 / det
    inv22 = a11 / det
    interior_mask = (nbr[0] < n_cells) & (nbr[1] < n_cells) & (nbr[2] < n_cells)

    # closed-polygon identity, Sum n |S| = 0 per cell
    closure = cell_sn[:, 0] + cell_sn[:, 1] + cell_sn[:, 2]
    perim = slen[0] + slen[1] + slen[2]
    worst = np.maximum(np.abs(closure[0]), np.abs(closure[1])) / perim
    if worst.max() > 1e-12:
        raise MeshError(f"face closure violated at cell {int(worst.argmax())}")
    asum = angles[0] + angles[1] + angles[2]
    if np.abs(asum - 2.0 * np.pi).max() > 1e-10:
        raise MeshError("stencil angles do not wind once around a centroid")

    return Mesh(
        nodes=nodes, tri=tri, area=area, inv_area=1.0 / area, sqrt_area=np.sqrt(area),
        centroid=np.column_stack([cx, cy]),
        f_left=f_left, f_right=f_right, f_normal=np.column_stack([f_nx, f_ny]),
        f_mid=np.column_stack([f_mx, f_my]), n_iface=n_iface,
        face_slots=face_slots, slot_face=face, slot_len=slot_len,
        tag_slices=tag_slices, boundary_edges=boundary_edges, nbr=nbr,
        lsq_wd=lsq_wd, inv11=inv11, inv12=inv12, inv22=inv22,
        angles=angles, interior_mask=interior_mask,
        cell_foff=cell_foff, cell_sn=cell_sn,
    )


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


# Lawson rounds before _lattice_delaunay gives up.  Measured at jitter < 0.5:
# at most 4 on square lattice cells, 9 at aspect ratio 4, 16 at 16 and at 64.
# A round after the first costs the edges near the last round's flips, not
# a re-pairing and re-test of every edge.
LAWSON_MAX_ROUNDS = 50


def _orient(p, a, b, c):
    """Twice the signed area of each triangle (a, b, c): > 0 counter-clockwise."""
    return ((p[b, 0] - p[a, 0]) * (p[c, 1] - p[a, 1])
            - (p[b, 1] - p[a, 1]) * (p[c, 0] - p[a, 0]))


def _incircle(p, a, b, c, d):
    """The incircle determinant of each counter-clockwise (a, b, c) and d:
    > 0 where d lies inside the circle through a, b and c."""
    ax, ay = p[a, 0] - p[d, 0], p[a, 1] - p[d, 1]
    bx, by = p[b, 0] - p[d, 0], p[b, 1] - p[d, 1]
    cx, cy = p[c, 0] - p[d, 0], p[c, 1] - p[d, 1]
    return ((ax * ax + ay * ay) * (bx * cy - cx * by)
            + (bx * bx + by * by) * (cx * ay - ax * cy)
            + (cx * cx + cy * cy) * (ax * by - bx * ay))


def _lattice_delaunay(pts, grid, tol):
    """Delaunay triangulation of a jittered lattice: node ``grid[j, i]`` at
    row j, column i, each node inside its own lattice cell, so that every
    quad is simple and counter-clockwise.

    Each quad is split along a diagonal that gives two counter-clockwise
    triangles, the locally Delaunay one where both do; the two triangles sit
    next to each other, quads row by row.  Vectorised Lawson rounds
    then flip every illegal interior edge, one whose incircle determinant
    exceeds ``tol``, that is the least illegal edge of both of its
    triangles: an independent set that holds the least illegal edge, so
    each round makes progress.  Edges are ordered by their lower half-edge
    id, the order ``_edges`` numbers them in.  A flip rewrites its two
    triangles in their own rows.  Without ``tol``, round-off in the
    determinants of co-circular quads flips them back and forth forever.
    More than LAWSON_MAX_ROUNDS rounds raise MeshError.

    The half-edges are paired once, by ``_edges`` on the initial split, and
    each flip re-pairs its quad: the new diagonal, and the four outer
    half-edges, which move to new ids, with their twins.  The first round
    tests every interior edge; a later one tests only the edges of the
    triangles the last round rewrote and the edges it found illegal.  Every
    other edge has kept both of its triangles since a round found it legal,
    so it is still legal.
    """
    a, b = grid[:-1, :-1].ravel(), grid[:-1, 1:].ravel()
    c, d = grid[1:, 1:].ravel(), grid[1:, :-1].ravel()
    # an illegal diagonal ac has a convex quad, where bd is valid too
    ac = (_orient(pts, a, b, c) > 0) & (_orient(pts, a, c, d) > 0)
    bd = ~ac | (_incircle(pts, a, b, c, d) > tol)
    tri = np.where(bd[:, None], np.column_stack([a, b, d, b, c, d]),
                   np.column_stack([a, b, c, a, c, d])).reshape(-1, 3)
    # twin[h]: the other half-edge of h's edge, -1 on the boundary
    _, first, second = _edges(tri, len(pts))
    inner = second >= 0
    twin = np.full(tri.size, -1, dtype=np.int64)
    twin[first[inner]], twin[second[inner]] = second[inner], first[inner]
    h1 = first[inner]       # the edges to test, by their lower half-edge
    for _ in range(LAWSON_MAX_ROUNDS):
        t1, k1 = np.divmod(h1, 3)
        t2, k2 = np.divmod(twin[h1], 3)
        # t1 is (p, q, r), t2 is (q, p, s): r and s face the edge p-q
        p, q, r = tri[t1, k1], tri[t1, (k1 + 1) % 3], tri[t1, (k1 + 2) % 3]
        s = tri[t2, (k2 + 2) % 3]
        bad = np.flatnonzero(_incircle(pts, p, q, r, s) > tol)
        if not bad.size:
            return tri
        least = np.full(len(tri), len(h1))
        np.minimum.at(least, t1[bad], bad)
        np.minimum.at(least, t2[bad], bad)
        go = bad[(least[t1[bad]] == bad) & (least[t2[bad]] == bad)]
        t1, k1, t2, k2 = t1[go], k1[go], t2[go], k2[go]
        tri[t1] = np.column_stack([p[go], s[go], r[go]])
        tri[t2] = np.column_stack([s[go], q[go], r[go]])
        # the outer half-edges q-r, r-p, p-s and s-q move to the new ids
        # of (p, s, r) and (s, q, r); each keeps its twin, which may move too
        old = np.concatenate([3 * t1 + (k1 + 1) % 3, 3 * t1 + (k1 + 2) % 3,
                              3 * t2 + (k2 + 1) % 3, 3 * t2 + (k2 + 2) % 3])
        new = np.concatenate([3 * t2 + 1, 3 * t1 + 2, 3 * t1, 3 * t2])
        out = twin[old]
        moved = np.arange(tri.size)
        moved[old] = new
        twin[new] = np.where(out >= 0, moved[out], -1)
        twin[moved[out[out >= 0]]] = new[out >= 0]
        twin[3 * t1 + 1], twin[3 * t2 + 2] = 3 * t2 + 2, 3 * t1 + 1
        # retest the rewritten triangles' edges and the illegal ones
        h = np.concatenate([new, 3 * t1 + 1, h1[bad]])
        h1 = np.unique(np.minimum(h, twin[h])[twin[h] >= 0])
    raise MeshError(f"Lawson flips did not converge in {LAWSON_MAX_ROUNDS} rounds")


def irregular_mesh(n, seed=0, lx=1.0, ly=1.0, jitter=0.35, boundary_spec=None):
    """Seeded irregular Delaunay triangulation of [0,lx] x [0,ly], with
    exactly 2 n^2 cells.

    The nodes are an (n+1) x (n+1) lattice.  Boundary nodes stay on it
    (identical on opposite sides, so periodic pairing still works); each
    interior node moves by up to ``jitter`` lattice spacings in x and in y,
    drawn uniformly.  ``jitter`` must lie in [0, 0.5): every node then stays
    inside its own lattice cell, and splitting each lattice quad along a
    diagonal is a valid triangulation.  Vectorised Lawson edge flips turn
    that split into the Delaunay triangulation (``_lattice_delaunay``).  A
    flip needs an incircle determinant above 1e-12 h^4, with h the larger
    lattice spacing, so co-circular quads (every quad at jitter 0) keep the
    lattice split, which is one of several Delaunay triangulations there.
    """
    if n < 1:
        raise ValueError(f"irregular mesh needs n >= 1, got {n}")
    if not 0.0 <= jitter < 0.5:
        raise ValueError(f"irregular mesh needs 0 <= jitter < 0.5, got {jitter}")
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
    # grid[j, i]: the index in pts of the lattice node at row j, column i
    grid = np.empty((n + 1, n + 1), dtype=np.int64)
    grid[0, :] = np.arange(n + 1)
    grid[n, :] = np.arange(n + 1, 2 * n + 2)
    grid[1:n, 0] = np.arange(2 * n + 2, 3 * n + 1)
    grid[1:n, n] = np.arange(3 * n + 1, 4 * n)
    grid[1:n, 1:n] = np.arange(4 * n, len(pts)).reshape(n - 1, n - 1).T
    h = max(lx, ly) / n
    return build_mesh(pts, _lattice_delaunay(pts, grid, 1e-12 * h ** 4), boundary_spec)


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


def _tag_code(name):
    return TAG_CODES[name.lower()]


def read_mesh_ascii(path):
    """The mesh in an ASCII mesh file, built by ``build_mesh``.

    A file that does not parse raises MeshFileError naming the file and the
    line: a missing or bad header, a row of the wrong form, an unknown
    boundary type, fewer rows than the header counts, or a boundary row that
    repeats an edge or names one that is not the side of exactly one
    triangle row.  A file that parses
    but whose mesh the build rejects raises the build's MeshError.
    """
    try:
        with open(path) as fh:
            rows = [(k, ln.split()) for k, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise MeshFileError(f"{path}: not a text file ({exc.reason})") from exc

    def bad(k, parts, what):
        return MeshFileError(f"{path}:{k}: expected {what}, got {' '.join(parts)!r}")

    def fields(k, parts, kinds, n_min, what):
        """The row's fields converted by ``kinds``, padded with zeros; the
        last len(kinds) - n_min of them may be missing."""
        try:
            if n_min <= len(parts) <= len(kinds):
                return [kind(v) for kind, v in zip(kinds, parts)] + [0] * (len(kinds) - len(parts))
        except (ValueError, KeyError):
            pass
        raise bad(k, parts, what)

    if not rows:
        raise MeshFileError(f"{path}: empty mesh file")
    k, head = rows[0]
    if len(head) != 4 or head[::2] != ["nodes", "cells"] or not "".join(head[1::2]).isdigit():
        raise bad(k, head, "the header 'nodes N cells M'")
    n_nodes, n_cells = int(head[1]), int(head[3])
    if len(rows) < 1 + n_nodes + n_cells:
        raise MeshFileError(f"{path}:{k}: the header counts {n_nodes} nodes and {n_cells} "
                            f"cells, but {len(rows) - 1} rows follow it")
    nodes = [fields(k, parts, (float, float), 2, "a node row 'x y'")
             for k, parts in rows[1:1 + n_nodes]]
    tris = [fields(k, parts, (int,) * 4, 3, "a triangle row 'i j k [region]'")
            for k, parts in rows[1 + n_nodes:1 + n_nodes + n_cells]]
    # triangle rows per edge: a boundary row may name only a side of one
    shared = Counter((min(a, b), max(a, b)) for p, q, r, _ in tris
                     for a, b in ((p, q), (q, r), (r, p)))
    table, line_of = {}, {}
    types = "|".join(name.upper() for name in TAG_CODES)
    for k, parts in rows[1 + n_nodes + n_cells:]:
        _, a, b, tag, group = fields(k, parts, (int, int, int, _tag_code, int), 4,
                                     f"a boundary row 'k a b {types} [group]'")
        edge = (min(a, b), max(a, b))
        if edge in table:
            raise MeshFileError(f"{path}:{k}: a second boundary row for edge {a} {b}, "
                                f"first given on line {line_of[edge]}")
        if shared[edge] != 1:
            raise MeshFileError(f"{path}:{k}: a boundary row for edge {a} {b}, a side of "
                                f"{shared[edge]} triangle rows, not 1")
        table[edge], line_of[edge] = (tag, group), k
    spec = BoundarySpec.from_edge_table(table) if table else None
    tris = np.array(tris, dtype=np.int64).reshape(-1, 4)
    m = build_mesh(np.array(nodes, dtype=np.float64).reshape(-1, 2), tris[:, :3], spec)
    m.region = tris[:, 3].copy()
    m.region.setflags(write=False)
    return m
