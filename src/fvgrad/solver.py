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
cell or face axis is last and contiguous: fields are (4, N), or
(4, N + n_ghost) with their ghost states, stencil arrays (4, 3, N) and face
states (4, F), so every numpy operation runs over long contiguous rows.

The per-cell and per-face stages run in blocks.  After the neighbour
gather, every stage up to the MUSCL slot states (neighbour deltas, network
alpha, GG or LSQ gradient, face increments, limiter, slot states) reads only
its own cell, and the Rusanov flux only its own face.  ``residual`` runs
them as contiguous blocks of cells and then of faces, one block per CPU the
process may run on (``step_workers``): the calling thread runs the first
block and a persistent pool of worker threads the others, on views of the
mesh's per-cell arrays cut once per mesh (``mesh.CellBlock``).  cons->prim,
the ghosts, the gathers, the assembly and the update stay whole.  Each
block's outputs are the one-block outputs of its cells or faces, so frames
and diagnostics do not depend on the split, and an error keeps the type the
one-block step raises: the first failing block's, once every block has
returned.  A mesh of fewer than ``2 * MIN_BLOCK_CELLS`` cells, and a traced
step, run as one block on the calling thread.

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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import bc as bclib
from . import mesh as msh
from . import mlcorr, recon
from .euler import (RHO, GasModel, cons_to_prim, internal_energy, max_wave_speed,
                    not_positive, physical_flux, prim_to_cons)

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
    co: float = 0.01
    gradient: str = "lsq"
    limiter: bool = True
    limiter_k: float = 5.0
    gas: GasModel = field(default_factory=GasModel)
    save_every: int = 1

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


def rusanov_flux(u_l, u_r, n, gas=GasModel()):
    """Godunov-type flux: central average plus max-wave-speed dissipation.

    F = (f(u_l) + f(u_r)) / 2 - s (w_r - w_l) / 2 with s the larger of the
    two states' maximum wave speeds (Toro, Riemann Solvers, ch. 10).  The
    one-sided states are primitive, (4, F), and unit normals (2, F), face
    axis last; each side is converted to its conservative state w once, by
    ``prim_to_cons``, which also checks its admissibility.  v.n, p and the
    sound speed come from the primitives.  Returns (flux, s) with flux
    (4, F) and s per face.
    """
    # (F, 4) and (F, 2) views for the pointwise algebra
    ul, ur, nt = ad.transpose(u_l), ad.transpose(u_r), ad.transpose(n)
    wl, wr = prim_to_cons(ul, gas), prim_to_cons(ur, gas)
    f_l = ad.transpose(physical_flux(ul, wl, nt))
    f_r = ad.transpose(physical_flux(ur, wr, nt))
    s = ad.maximum(max_wave_speed(ul, nt, gas), max_wave_speed(ur, nt, gas))
    return 0.5 * (f_l + f_r) - 0.5 * s * (ad.transpose(wr) - ad.transpose(wl)), s


def residual(mesh, w, cfg, bc_table=None, params=None, params_vec=None):
    """Per-cell flux sum R_i; the semi-discrete form is |C_i| dw_i/dt + R_i = 0.

    w and R are (4, N), cell axis last.  Returns (R, diag) where diag carries
    the clamp / first-order fallback counters and the largest wave speed
    seen at any face.  The per-cell and per-face stages run in blocks
    (module docstring).
    """
    bc_table = bc_table or {}
    gas = cfg.gas
    u = ad.transpose(cons_to_prim(ad.transpose(w), gas))
    u_ext, n_clamp = bclib.extend_with_ghosts(mesh, u, bc_table, gas)
    u_in = u_ext[:, :mesh.n_cells] if mesh.n_ghost else u_ext
    u_nb = recon.neighbor_values(mesh, u_ext)
    if cfg.uses_network and params is None:
        raise SolverError("gradient mode requires network parameters")

    # a tape records in order, so a traced step runs as one block
    traced = isinstance(w, ad.Var) or isinstance(params_vec, ad.Var)
    k = 1 if traced else step_workers(mesh.n_cells)
    cells = [(mesh, None)] if k == 1 else [(c, c.cells) for c in mesh.cell_blocks(k)]
    slots, n_fallback = _blockwise(
        lambda c, ui, ue, nb: _slot_states(c, ui, ue, nb, cfg, params, params_vec),
        cells, u_in, u_ext, u_nb)

    u_l, u_r = recon.muscl_face_values(mesh, u_ext, slots)
    f = mesh.n_faces
    faces = [(None, slice(f * b // k, f * (b + 1) // k)) for b in range(k)]
    flux, s = _blockwise(lambda _, ul, ur, n: rusanov_flux(ul, ur, n, gas),
                         faces, u_l, u_r, mesh.f_normal.T)
    # each cell sums its three slots' face fluxes times the signed face length
    r = ad.einsum("jn,vjn->vn", mesh.slot_len, ad.take_rows(flux, mesh.slot_face))

    diag = {"bc_clamps": n_clamp, "fallback_cells": n_fallback,
            "max_wave_speed": float(np.max(ad.value_of(s)))}
    return r, diag


def _slot_states(cells, u_in, u_ext, u_nb, cfg, params, params_vec):
    """The per-cell stages of one block: neighbour deltas, network alpha,
    gradient, face increments, limiter and MUSCL slot states.

    ``cells`` is the mesh or a ``mesh.CellBlock``; u_in (4, n) and u_nb
    (4, 3, n) are its cells' states and neighbour states.  On the whole mesh
    u_ext is the field with its ghosts, which recon's functions cut to the
    cells themselves, as the one-block tape always recorded; on a block it
    is u_in.  Returns (slot states (4, 3, n), fallback cells).
    """
    gg = cfg.gradient.endswith("gg")
    du = None
    if cfg.uses_network or not gg:
        du = recon.neighbor_deltas(cells, u_in, u_nb)
    alpha = None
    if cfg.uses_network:
        alpha = mlcorr.masked_alpha(cells, params, du, vec=params_vec)
    if gg:
        grad = recon.gradient_gg(cells, u_ext, alpha=alpha, u_nb=u_nb)
    else:
        grad = recon.gradient_lsq(cells, u_ext, alpha=alpha, du=du)
    delta = recon.face_increments(cells, grad)
    if cfg.limiter:
        phi = recon.venkat_limiter(cells, u_ext, delta, cfg.limiter_k, u_nb=u_nb)
    else:
        phi = np.ones((4, cells.n_cells))
    return recon.slot_states(cells, u_ext, delta, phi)


# Fewest cells per block: a step on fewer than twice this many cells runs as
# one block on the calling thread.  On a 2-vCPU Xeon host with little CPU
# steal, two blocks beat one from about 6,000 cells (ml_lsq) and 9,000
# (lsq) of a periodic irregular mesh; below that the threads' hand-offs of
# the interpreter lock cost more than the second core gives.  10,000 keeps
# a margin for a busier host.
MIN_BLOCK_CELLS = 5000


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def step_workers(n_cells):
    """Blocks a step on n_cells cells runs in: one per CPU this process may
    run on, with at least MIN_BLOCK_CELLS cells in each, and at least one."""
    return max(1, min(_cpus(), n_cells // MIN_BLOCK_CELLS))


def _blockwise(stage, blocks, *fields):
    """stage(view, *fields) over blocks of the fields' last axis, joined.

    ``blocks`` lists (view, range) pairs, the range a slice of the last
    axis.  One block runs on the calling thread with the fields whole.  With
    more, block b runs stage(view_b, *fields cut to range_b), and the
    outputs are joined in block order: arrays along their last axis, counts
    summed.  Every stage given here reads only its own cells or faces, so
    the joined outputs equal the one-block outputs bitwise.
    """
    if len(blocks) == 1:
        return stage(blocks[0][0], *fields)

    def task(b):
        view, cut = blocks[b]
        return stage(view, *(x[..., cut] for x in fields))

    parts = _run_tasks(task, len(blocks))
    # a list: tuple() of a generator resizes a 10-slot tuple, which then
    # grows the 2-tuple free list by one every call, a page every 30 steps
    return [sum(p) if isinstance(p[0], int) else np.concatenate(p, axis=-1)
            for p in zip(*parts)]


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


def step_explicit_euler(mesh, w, dt, cfg, bc_table=None, params=None,
                        params_vec=None, step_index=None):
    """w - (dt/|C|) R for an (N, 4) state; raises if any updated cell leaves
    the admissible set.  The step itself runs on (4, N) fields."""
    w = _flip(w)
    r, diag = residual(mesh, w, cfg, bc_table, params, params_vec)
    w_next = w - (dt / mesh.area) * r

    wv = ad.value_of(w_next).T
    # |m|^2 / rho may divide by a non-positive rho; its cell is rejected anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = not_positive(wv[:, RHO]) | not_positive(internal_energy(wv))
    if bad.any():
        raise SolverError("step rejected: non-admissible update",
                          cell=int(np.argmax(bad)), step=step_index)
    return _flip(w_next), diag


def march(mesh, w0, dt, n_steps, cfg, bc_table=None, params=None,
          params_vec=None, substeps=1):
    """Advance n_steps coarse steps of size dt, yielding (k, w, diag) after each.

    Coarse step k = 1..n_steps runs ``substeps`` explicit Euler steps of
    dt/substeps, each tagged with step_index=k; diag is the last substep's.
    States pass through unchanged, so a traced ``Var`` stays traced.
    """
    h = dt / substeps
    w = w0
    for k in range(1, n_steps + 1):
        for _ in range(substeps):
            w, diag = step_explicit_euler(mesh, w, h, cfg, bc_table, params,
                                          params_vec, step_index=k)
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
    and its clamped ghost states (frame 0: 0, NaN and 0).
    """
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
        version, n_cells, n_comp, t = struct.unpack_from("<IIId", raw, pos)
        if version != FRAME_VERSION:
            raise SolverError(f"unsupported frame version {version}")
        pos += struct.calcsize("<IIId")
        count = n_cells * n_comp
        w = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
        times.append(t)
        frames.append(w.reshape(n_cells, n_comp).astype(np.float64))
    return times, frames
