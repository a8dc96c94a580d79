"""Semi-discrete finite-volume residual and explicit Euler time stepping.

One step: synthesize ghost states, (optionally) evaluate the correction
network, reconstruct primitive gradients, form each stencil slot's face
increment once (the limiter and MUSCL share it), extrapolate the limited
state of every slot, gather the face states from the slots, apply the
Rusanov flux to those primitive states, sum each cell's three slot fluxes
and update.  The time step
is fixed per run, dt = co * min sqrt(|C|), so runs on a coarse mesh, its
refinement and the corrected solver all share time instants.

States cross the public boundary (``step_explicit_euler``, ``march``,
``rollout``, ``reference``, frames) as (N, 4) arrays.  Inside the step the
cell or face axis is last and contiguous: fields are (4, N), ghost states
(4, n_ghost) (only the two gathers read them), stencil arrays (4, 3, N) and
face states (4, 2, F), both sides of each face, so every numpy operation
runs over long contiguous rows.

An untraced step pays a fixed cost per call as well as its work per cell,
and on the meshes the runs use, a few hundred to a few thousand cells, the
calls weigh most.  On the 72-cell periodic mesh an ``ml_lsq`` step makes
265 Python-level calls and an ``lsq`` step 194 (function and C-function
calls, as ``sys.setprofile`` counts them; numpy 2.4, CPython 3.11; a test
bounds the count), and an ``ml_lsq`` step takes about 0.36 ms in a warm loop
on one CPU of a 2-vCPU Xeon host, where its arrays are nearly empty; at
1,458 cells it takes 2.3-2.6 ms.  So each stage takes whole arrays in as
few numpy calls as it can: one gather takes both sides of every face,
ghosts included (``recon.muscl_face_values``), and the Rusanov flux runs
its pointwise algebra once over both sides.

An untraced step on a large mesh runs in four phases (``residual``), the
first whole and the others in blocks:
  1. whole, the flip of the state to contiguous (4, N) rows, which the
     update reads, its checked conversion to primitives and the ghost
     states (400 on the 12,600-cell forward step, none on a periodic mesh):
     short numpy calls, which two threads run no faster than one;
  2. per block of cells, the neighbour gather and every stage up to the
     MUSCL slot states (neighbour deltas, network alpha, GG or LSQ
     gradient, face increments, limiter, slot states);
  3. per range of faces, the face gather and the Rusanov flux, with the
     range's largest wave speed;
  4. per block of cells, the gather of each slot's face flux, the sum R,
     the update w - (dt / |C|) R, its check and the flip back to (N, 4).
Each block writes its outputs into the step's whole arrays, which the later
phases' gathers read, so a step makes three hand-offs to the pool.  There
is one block per CPU the process may run on (``step_workers``): the calling
thread runs the first block and a persistent pool of worker threads the
others, on views of the mesh's per-cell and per-face arrays cut once per
mesh (``mesh.CellBlock``, ``mesh.FaceBlock``).  Each block's outputs are
the one-block outputs of its cells or faces (cell blocks are cut at
multiples of ``mesh.BLOCK_ALIGN`` cells, so the network's matrix products
round each cell as in one block), so frames and diagnostics do not depend
on the split.  An error is the one the one-block step raises: an
inadmissible state fails in the first phase, which checks every density
before any internal energy, and a rejected update, once every block has
returned, names the first bad cell in cell order.  A mesh of fewer than
``2 * MIN_BLOCK_CELLS`` cells, and a traced step, run the same stages once,
as one block of every cell and face, on whole arrays, on the calling
thread.  A step is traced when its state or its network's parameter vector
(``params.values``, a ``mlcorr.NetParams``) is a ``Var``: the parameters
reach the step as that one argument, traced or not.

``march`` is the one time-marching loop: rollouts, fine-grid references
(sub-stepped to the coarse time instants), gain runs, the error-versus-cost
study and the multi-step gradient check all advance through it.

Gradient modes: "gg", "lsq" (plain) and "ml_gg", "ml_lsq" (corrected).
With all network parameters zero the corrected modes reproduce the plain
modes bitwise.
"""

import contextvars
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import bc as bclib
from . import mesh as msh
from . import mlcorr, recon
from .euler import (RHO, GasModel, cons_to_prim, internal_energy, max_wave_speed,
                    normal_velocity, not_positive, physical_flux, prim_to_cons)

FRAME_MAGIC = b"FVFR"
FRAME_VERSION = 1

GRADIENT_MODES = ("gg", "lsq", "ml_gg", "ml_lsq")


class SolverError(RuntimeError):
    def __init__(self, message, cell=None, step=None):
        loc = "".join(
            f" ({k}={v})" for k, v in (("cell", cell), ("step", step)) if v is not None)
        super().__init__(message + loc)
        self.cell = cell
        self.step = step


@dataclass
class StepConfig:
    co: float = 0.03
    gradient: str = "lsq"
    limiter: bool = True
    limiter_k: float = 5.0
    gas: GasModel = field(default_factory=GasModel)
    save_every: int = 10

    def __post_init__(self):
        if not self.co > 0:
            raise ValueError("co must be positive")
        if self.gradient not in GRADIENT_MODES:
            raise ValueError(f"gradient must be one of {GRADIENT_MODES}")
        # K = 0 is legal: omega = 0 is well defined
        if not (np.isfinite(self.limiter_k) and self.limiter_k >= 0):
            raise ValueError("limiter_k must be finite and >= 0")
        if not self.save_every >= 1:
            raise ValueError("save_every must be at least 1")

    @property
    def uses_network(self):
        return self.gradient.startswith("ml_")

    def plain(self):
        """This step with the plain mode: the gradient less any ml_ prefix."""
        return replace(self, gradient=self.gradient.removeprefix("ml_"))

    def corrected(self):
        """This step with the corrected mode: ml_ and the plain mode."""
        return replace(self, gradient=f"ml_{self.plain().gradient}")


@dataclass
class RolloutRecord:
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def append(self, t, w, diag=None):
        if self.times and t <= self.times[-1]:
            raise ValueError("frame times must be strictly increasing")
        self.times.append(float(t))
        self.frames.append(np.array(ad.value_of(w), copy=True))
        if diag is not None:
            self.diagnostics.append(diag)


def compute_dt(mesh, cfg):
    """dt = co * min_j sqrt(|C_j|); state independent, constant per run."""
    return cfg.co * mesh.min_sqrt_area


def rusanov_flux(u_lr, n, gas=GasModel()):
    """Godunov-type flux: central average plus max-wave-speed dissipation.

    F = (f(u_l) + f(u_r)) / 2 - s (w_r - w_l) / 2 with s the larger of the
    two states' maximum wave speeds (Toro, Riemann Solvers, ch. 10).  The
    face states u_lr are primitive, (4, 2, F): the left and the right state
    of each face, face axis last; n holds the unit normals (2, F).  The
    pointwise algebra runs once over both sides: ``prim_to_cons`` converts
    them to their conservative states w and checks their admissibility,
    then ``physical_flux`` and ``max_wave_speed`` follow, sharing each side's
    v.n, with p and the sound speed coming from the primitives.  Returns
    (flux, s) with flux (4, F) and s per face, a plain array.

    The values are computed by the same numpy code whether or not the states
    are traced.  A traced call records the flux as one tape node, whose
    adjoint is the transposed Jacobian dF/du of each side
    (``_rusanov_adjoint``): statement-level preaccumulation (Griewank and
    Walther, *Evaluating Derivatives*, 2008, ch. 10).  It follows the tape's
    conventions: the s term goes to the left state at ties, as
    ``ad.maximum`` sends it, and |v.n| has the derivative sign(v.n), zero
    at zero, as ``ad.absolute``.
    """
    v, n = ad.value_of(u_lr), np.asarray(n)
    # (F, 2, 4) and (F, 1, 2) views: each face's normal serves both sides
    u, nt = v.T, n[:, None].T
    w = prim_to_cons(u, gas)
    vn = normal_velocity(u, nt)
    f = physical_flux(u, w, nt, vn).T
    a = max_wave_speed(u, vn, gas).T
    s = np.maximum(a[0], a[1])
    wv = w.T
    dw = wv[:, 1] - wv[:, 0]
    flux = 0.5 * (f[:, 0] + f[:, 1]) - 0.5 * s * dw

    def adjoint(g):
        # the adjoint of s, -(g . dw) / 2, reaches the side whose speed was taken
        left = (a[0] >= a[1]) | np.isnan(a[0])
        g_s = -0.5 * np.einsum("kf,kf->f", g, dw)
        g_a = np.array([np.where(left, g_s, 0.0), np.where(~left, g_s, 0.0)])
        return _rusanov_adjoint(g, v, n, np.array([s, -s]), g_a, gas.gamma)

    return ad._record(flux, (u_lr, adjoint)), s


def _rusanov_adjoint(g, u, n, t, g_a, gamma):
    """(dF/du)^T g for both sides of the Rusanov flux F.

    u holds the sides' primitive states (4, 2, F), n the normals (2, F).  F
    holds f(u) / 2 + t w(u) / 2 of each side, with w(u) the conservative
    state, t = s on the left and -s on the right (t is (2, F)), and the
    side's wave speed a = |v.n| + c, whose adjoint is g_a (2, F), zero where
    the other side's speed is s.  With h = g / 2,
    A = h_0 + h_1 v_x + h_2 v_y, k = |v|^2 / 2 and the total enthalpy per
    volume H = E + p = gamma p / (gamma - 1) + rho k:
      rho: (v.n + t)(A + k h_3) - g_a c / (2 rho)
      v_x: rho (v.n + t)(h_1 + h_3 v_x) + n_x (rho A + h_3 H + g_a sign(v.n))
      v_y: the same with y for x
      p:   h_1 n_x + h_2 n_y + h_3 (gamma v.n + t) / (gamma - 1) + g_a c / (2 p)
    """
    h = 0.5 * g
    rho, vx, vy, p = u
    nx, ny = n
    vn = vx * nx + vy * ny
    c = np.sqrt(gamma * p / rho)
    vt = vn + t
    a = h[0] + h[1] * vx + h[2] * vy
    k = 0.5 * (vx * vx + vy * vy)
    m = rho * a + h[3] * (gamma / (gamma - 1.0) * p + rho * k) + g_a * np.sign(vn)
    out = np.empty(u.shape)
    out[0] = vt * (a + k * h[3]) - g_a * (0.5 * c / rho)
    out[1] = rho * vt * (h[1] + h[3] * vx) + nx * m
    out[2] = rho * vt * (h[2] + h[3] * vy) + ny * m
    out[3] = (h[1] * nx + h[2] * ny + h[3] * (gamma * vn + t) / (gamma - 1.0)
              + g_a * (0.5 * c / p))
    return out


def residual(mesh, w, cfg, bc_table=None, params=None, dt=None, step_index=None):
    """Per-cell flux sum R_i; the semi-discrete form is |C_i| dw_i/dt + R_i = 0.

    w and R are (4, N), cell axis last; w may be a transposed view, as the
    step passes its (N, 4) state.  Returns (R, diag) where diag carries the
    clamp / first-order fallback counters and the largest wave speed seen at
    any face.  With ``dt``, the last phase also forms each cell's update
    w - (dt / |C|) R and checks it (``step_explicit_euler``), and returns
    it in place of R.  The phases after the first run in blocks (module
    docstring).
    """
    bc_table = bc_table or {}
    gas = cfg.gas
    # a tape records in order, so a traced step runs as one block
    traced = w.__class__ is ad.Var or (params is not None
                                       and params.values.__class__ is ad.Var)
    k = 1 if traced else step_workers(mesh.n_cells)
    cells = [(c, c.cells) for c in mesh.cell_blocks(k)]
    faces = [(f, f.faces) for f in mesh.face_blocks(k)]

    w, u = _checked_prim(w, gas)
    ghosts, n_clamp = bclib.extend_with_ghosts(mesh, u, bc_table, gas)
    if cfg.uses_network and params is None:
        raise SolverError("gradient mode requires network parameters")
    slots, n_fallback = _blockwise(
        lambda c, uc: _slot_states(c, uc, recon.neighbor_values(c, u, ghosts), cfg, params),
        cells, [((4, 3, mesh.n_cells), "C")], (sum,), u)
    flux, s = _blockwise(lambda f: _face_flux(f, slots, ghosts, gas),
                         faces, [((4, mesh.n_faces), "C")], (np.maximum.reduce,))
    # the step's state goes back to (N, 4) as its blocks write it
    out, = _blockwise(lambda c, wc: _finish(c, wc, flux, dt, step_index),
                      cells, [((4, mesh.n_cells), "C" if dt is None else "F")], (), w)

    diag = {"bc_clamps": n_clamp, "fallback_cells": n_fallback,
            "max_wave_speed": float(s)}
    return out, diag


def _checked_prim(w, gas):
    """The start of a step's first phase, on every cell: the state w (4, N),
    flipped to contiguous rows if it is a plain view, and that state's
    primitives.  Raises an ``AdmissibilityError`` where w is not
    admissible, every density checked before any internal energy."""
    if w.__class__ is not ad.Var:
        w = np.ascontiguousarray(w)
    return w, ad.transpose(cons_to_prim(ad.transpose(w), gas))


def _slot_states(cells, u, u_nb, cfg, params):
    """The per-cell stages of one block: neighbour deltas, network alpha,
    gradient, face increments, limiter and MUSCL slot states.

    ``cells`` is a ``mesh.CellBlock``; u (4, n) and u_nb (4, 3, n) are its
    cells' states and neighbour states, ghosts included.
    Returns (slot states (4, 3, n), fallback cells).
    """
    gg = cfg.gradient.endswith("gg")
    du = None
    if cfg.uses_network or not gg:
        du = recon.neighbor_deltas(cells, u, u_nb)
    alpha = None
    if cfg.uses_network:
        alpha = mlcorr.masked_alpha(cells, params, du)
    if gg:
        grad = recon.gradient_gg(cells, u, u_nb, alpha=alpha)
    else:
        grad = recon.gradient_lsq(cells, du, alpha=alpha)
    # each array is dropped once read, so the limiter's peak is not added to it
    del du, alpha
    delta = recon.face_increments(cells, grad)
    del grad
    if cfg.limiter:
        phi = recon.venkat_limiter(cells, u, u_nb, delta, cfg.limiter_k)
    else:
        phi = np.ones((4, cells.n_cells))
    return recon.slot_states(cells, u, delta, phi)


# Fewest cells per block: a step on fewer than twice this many cells runs as
# one block on the calling thread.  On a 2-vCPU Xeon host, with every phase
# of the step in blocks, two blocks beat one from about 6,000-8,500 cells
# (ml_lsq) and 8,500-10,000 (lsq) of a periodic irregular mesh (two runs of
# 12 interleaved rounds per size, whose ratios differ by up to 20%); below
# that the threads' hand-offs of the interpreter lock cost more than the
# second core gives.  10,000 lies at the top of both ranges.
MIN_BLOCK_CELLS = 5000


def _face_flux(faces, slots, ghosts, gas):
    """The per-face phase of a range of faces (a ``mesh.FaceBlock``): its
    face states from the slot states and the ghosts, their Rusanov flux
    (4, f), and the largest wave speed."""
    u_lr = recon.muscl_face_values(faces, slots, ghosts)
    flux, s = rusanov_flux(u_lr, faces.f_normal.T, gas)
    return flux, np.maximum.reduce(s, axis=None)


def _finish(cells, w, flux, dt, step_index):
    """The last phase of a block of cells: each cell sums its three slots'
    face fluxes times the signed face length, R (4, n).  With dt it returns
    the update w - (dt / |C|) R instead, and raises a ``SolverError`` naming
    the first cell whose update leaves the admissible set."""
    r = ad.einsum("jn,vjn->vn", cells.slot_len, ad.take_rows(flux, cells.slot_face))
    if dt is None:
        return (r,)
    w_next = w - (dt / cells.area) * r
    wv = ad.value_of(w_next).T
    # |m|^2 / rho may divide by a non-positive rho; its cell is rejected anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = not_positive(wv[:, RHO]) | not_positive(internal_energy(wv))
    if np.logical_or.reduce(bad, axis=None):
        raise SolverError("step rejected: non-admissible update",
                          cell=cells.cells.start + int(np.argmax(bad)), step=step_index)
    return (w_next,)


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def step_workers(n_cells):
    """Blocks a step on n_cells cells runs in: one per CPU this process may
    run on, with at least MIN_BLOCK_CELLS cells in each, and at least one."""
    most = n_cells // MIN_BLOCK_CELLS
    return 1 if most <= 1 else min(_cpus(), most)


def _blockwise(stage, blocks, arrays, combine, *fields):
    """stage(view, *fields) over blocks of the fields' last axis.

    ``blocks`` lists (view, range) pairs, the range a slice of the last
    axis.  The stage returns arrays, one per (shape, order) in ``arrays``,
    then one further output per function in ``combine``.  One block runs on
    the calling thread with the fields whole and returns the stage's
    outputs.  With more, the step's arrays are allocated here, block b runs
    stage(view_b, *fields cut to range_b) and writes its arrays into their
    range, and each further output, a count or a largest value, is combined
    over the blocks by its function.  Returns the arrays and those.  Every
    stage given here reads only its own cells or faces of the fields it is
    given cut, so the outputs equal the one-block outputs bitwise.
    """
    if len(blocks) == 1:
        return stage(blocks[0][0], *fields)
    outs = [np.empty(shape, order=order) for shape, order in arrays]

    def task(b):
        view, cut = blocks[b]
        res = stage(view, *(x[..., cut] for x in fields))
        for out, x in zip(outs, res):
            out[..., cut] = x
        return res[len(outs):]

    parts = _run_tasks(task, len(blocks))
    # a list: tuple() of a generator resizes a 10-slot tuple, which then
    # grows the 2-tuple free list by one every call, a page every 30 steps
    return [*outs, *(f(p) for f, p in zip(combine, zip(*parts)))]


_pool = None


def _forget_pool():
    """A forked child has none of its parent's threads: it builds its own
    pool when it first needs one."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_tasks(task, k):
    """[task(0), ..., task(k - 1)]: task 0 on the calling thread, the others
    on a pool of one worker thread per further CPU, built on first use and
    kept for the life of the process.

    Each worker task runs in a copy of the caller's context, so numpy's
    error state is the caller's.  Nothing is raised before every task has
    returned; then the error of the first task that failed, in task order.
    """
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="fvgrad-step")
    futures = [_pool.submit(contextvars.copy_context().run, task, b) for b in range(1, k)]
    try:
        first = task(0)
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _flip(x):
    """Swap a state between the public (N, 4) and the step's (4, N) layout.

    A plain array comes back C-contiguous; a traced one is transposed on the
    tape."""
    if isinstance(x, ad.Var):
        return ad.transpose(x)
    return np.ascontiguousarray(np.asarray(x).T)


def step_explicit_euler(mesh, w, dt, cfg, bc_table=None, params=None, step_index=None):
    """w - (dt/|C|) R for an (N, 4) state; raises if any updated cell leaves
    the admissible set.  The step itself runs on (4, N) fields: ``residual``
    flips the state in its first phase and updates and checks it in its
    last."""
    w_next, diag = residual(mesh, ad.transpose(w), cfg, bc_table, params, dt, step_index)
    return _flip(w_next), diag


def march(mesh, w0, dt, n_steps, cfg, bc_table=None, params=None, substeps=1):
    """Advance n_steps coarse steps of size dt, yielding (k, w, diag) after each.

    Coarse step k = 1..n_steps runs ``substeps`` explicit Euler steps of
    dt/substeps, each tagged with step_index=k; diag is the last substep's.
    States pass through unchanged, so a traced ``Var`` stays traced, and
    params whose ``values`` is a ``Var`` trace every step.
    """
    h = dt / substeps
    w = w0
    for k in range(1, n_steps + 1):
        for _ in range(substeps):
            w, diag = step_explicit_euler(mesh, w, h, cfg, bc_table, params,
                                          step_index=k)
        yield k, w, diag


def reference(coarse, fine, pm, w0_fine, dt, n_steps, cfg, bc_table=None):
    """Refined-grid run projected onto the coarse mesh at each coarse instant.

    Yields (k, w) for k = 0..n_steps: the fine state after k coarse steps of
    dt, projected with ``project_fine_to_coarse`` (k = 0 is the projected
    initial state).  The fine run takes the fewest substeps per coarse step
    that keep its Courant number at or below the coarse one.
    """
    substeps = int(np.ceil(coarse.min_sqrt_area / fine.min_sqrt_area - 1e-12))
    yield 0, msh.project_fine_to_coarse(w0_fine, pm)
    for k, w, _ in march(fine, w0_fine, dt, n_steps, cfg, bc_table, substeps=substeps):
        yield k, msh.project_fine_to_coarse(w, pm)


def rollout(mesh, w0, n_steps, cfg, bc_table=None, params=None):
    """Advance n_steps with a fixed dt, saving every cfg.save_every-th frame.

    Deterministic for fixed inputs.  Diagnostics per saved frame: totals of
    the conserved quantities, and of the step that produced the frame its
    first-order fallback cells, its realized CFL number co * max wave speed
    and its clamped ghost states (frame 0: 0, NaN and 0).  n_steps = 0
    records frame 0 alone; a negative n_steps raises a ValueError.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    dt = compute_dt(mesh, cfg)
    rec = RolloutRecord()
    w = np.asarray(ad.value_of(w0), dtype=np.float64)
    rec.append(0.0, w, _frame_diag(mesh, 0, 0.0, w, None, cfg))
    for k, w, diag in march(mesh, w, dt, n_steps, cfg, bc_table, params):
        if k % cfg.save_every == 0 or k == n_steps:
            rec.append(k * dt, w, _frame_diag(mesh, k, k * dt, w, diag, cfg))
    return rec


def _frame_diag(mesh, step, t, w, diag, cfg):
    totals = (mesh.area[:, None] * w).sum(axis=0)
    return {
        "step": step, "time": t,
        "mass": totals[0], "mom_x": totals[1], "mom_y": totals[2],
        "energy": totals[3],
        "fallbacks": 0 if diag is None else diag["fallback_cells"],
        "cfl": np.nan if diag is None else cfg.co * diag["max_wave_speed"],
        "bc_clamps": 0 if diag is None else diag["bc_clamps"],
    }


DIAGNOSTIC_COLUMNS = ("step", "time", "mass", "mom_x", "mom_y", "energy", "fallbacks",
                      "cfl", "bc_clamps")


def write_csv(path, columns, rows, header_comment=None):
    """Rows of values under a header line; floats as repr(float), the rest as str."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# binary frame dumps: per frame a little-endian header
# (magic, version u32, n_cells u32, n_comp u32, time f64) then row-major f64
# ---------------------------------------------------------------------------

def write_frames(path, times, frames):
    with open(path, "wb") as fh:
        for t, w in zip(times, frames):
            w = np.ascontiguousarray(w, dtype="<f8")
            fh.write(FRAME_MAGIC)
            fh.write(struct.pack("<IIId", FRAME_VERSION, w.shape[0], w.shape[1], t))
            fh.write(w.tobytes())


def read_frames(path):
    times = []
    frames = []
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0
    while pos < len(raw):
        if raw[pos:pos + 4] != FRAME_MAGIC:
            raise SolverError("bad frame magic in dump file")
        pos += 4
        if pos + struct.calcsize("<IIId") > len(raw):
            raise SolverError("truncated frame header in dump file")
        version, n_cells, n_comp, t = struct.unpack_from("<IIId", raw, pos)
        if version != FRAME_VERSION:
            raise SolverError(f"unsupported frame version {version}")
        pos += struct.calcsize("<IIId")
        count = n_cells * n_comp
        if pos + 8 * count > len(raw):
            raise SolverError("truncated frame in dump file")
        w = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
        times.append(t)
        frames.append(w.reshape(n_cells, n_comp).astype(np.float64))
    return times, frames
