"""Benchmark harness: Riemann suite gains, the forward-facing step,
mesh-convergence slopes and error-versus-time measurements.

The central metric is the gain of the corrected solver over the plain one
at equal resolution,

    gain = 100 * (L_coarse - L_ML) / L_coarse,

where both L values are 1-norm sums over cells and primitive variables of
the deviation from a refined-grid reference projected onto the coarse
mesh.  All three runs (reference, plain, corrected) share the time step of
the coarse mesh, the fine run sub-stepping as needed, so errors compare
states at identical time instants.
"""

import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import mesh as msh
from . import solver
from .bc import BCSpec
from .euler import GasModel, cons_to_prim, prim_to_cons
from .mesh import BoundarySpec

# quadrant states printed in the reproduced study (they deviate slightly
# from the external catalog); quadrant order Q1 upper-right, Q2 upper-left,
# Q3 lower-left, Q4 lower-right, components (rho, u, v, p)
_PAPER_CASES = {
    6: ((1.0, 0.75, -0.5, 1.0),
        (2.0, 0.75, 0.5, 1.0),
        (2.0, -0.75, 0.5, 1.0),
        (3.0, -0.75, -0.5, 1.0)),
    11: ((1.0, 0.1, 0.1, 1.0),
         (0.5313, 0.8276, 0.0, 0.4),
         (0.8, 0.1, 0.0, 1.4),
         (0.5313, 0.1, 0.7276, 0.4)),
}


@dataclass
class RiemannCase:
    case_id: int
    quadrants: np.ndarray     # (4, 4) primitive states, Q1..Q4

    def evaluate(self, points):
        """Quadrant initial condition at the given points of [0,1]^2."""
        x, y = points[:, 0], points[:, 1]
        q = np.empty(len(points), dtype=np.int64)
        q[(x >= 0.5) & (y >= 0.5)] = 0
        q[(x < 0.5) & (y >= 0.5)] = 1
        q[(x < 0.5) & (y < 0.5)] = 2
        q[(x >= 0.5) & (y < 0.5)] = 3
        return self.quadrants[q]


def _load_case_file():
    cases = {}
    text = resources.files("fvgrad").joinpath("data/riemann_cases.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cid, quad, rho, u, v, p = line.split()
        cases.setdefault(int(cid), {})[int(quad)] = (
            float(rho), float(u), float(v), float(p))
    out = {}
    for cid, quads in cases.items():
        if sorted(quads) != [1, 2, 3, 4]:
            raise ValueError(f"case {cid} is missing quadrants in the data file")
        out[cid] = np.array([quads[k] for k in (1, 2, 3, 4)])
    return out


_FILE_CASES = None


def riemann_case(case_id):
    """Quadrant states for one test case; 6 and 11 are hard-coded."""
    global _FILE_CASES
    if case_id in _PAPER_CASES:
        return RiemannCase(case_id, np.array(_PAPER_CASES[case_id]))
    if _FILE_CASES is None:
        _FILE_CASES = _load_case_file()
    if case_id not in _FILE_CASES:
        raise KeyError(f"unknown Riemann case id {case_id}")
    return RiemannCase(case_id, _FILE_CASES[case_id])


def case_bc(case, mesh, kind="subsonic_outflow"):
    """Boundary table for a Riemann run; back pressure from the initial data."""
    if kind == "periodic":
        return {}
    if kind != "subsonic_outflow":
        raise ValueError(f"unsupported Riemann boundary kind {kind!r}")
    mids = mesh.f_mid[mesh.n_iface:]
    p_b = case.evaluate(mids)[:, 3]
    return {msh.SUBSONIC_OUT: BCSpec(kind=msh.SUBSONIC_OUT, back_pressure=p_b)}


def riemann_mesh(n, periodic=True, seed=None):
    if seed is None:
        if periodic:
            return msh.periodic_structured_mesh(n)
        return msh.structured_mesh(
            n, boundary_spec=BoundarySpec.uniform(msh.SUBSONIC_OUT))
    spec = (BoundarySpec.periodic_box() if periodic
            else BoundarySpec.uniform(msh.SUBSONIC_OUT))
    return msh.irregular_mesh(n, seed=seed, boundary_spec=spec)


# ---------------------------------------------------------------------------
# gain runs
# ---------------------------------------------------------------------------

GAIN_COLUMNS = ("step", "time", "L_coarse", "L_ML", "gain_pct")


@dataclass
class GainReport:
    steps: np.ndarray
    times: np.ndarray
    l_coarse: np.ndarray
    l_ml: np.ndarray
    gain_pct: np.ndarray

    def mean_gain(self, tail=1.0):
        k = max(1, int(len(self.gain_pct) * tail))
        return float(np.mean(self.gain_pct[-k:]))


def _l1_error(u_a, u_b):
    return float(np.abs(u_a - u_b).sum())


def run_gain(case_or_ic, coarse, fine, pm, params, n_steps, co=0.01,
             bc_kind="subsonic_outflow", gas=GasModel(), record_every=10,
             gradient="lsq"):
    """Reference / plain / corrected triple run and the per-step gain.

    case_or_ic: a RiemannCase or a callable points -> primitive field.
    The corrected run uses mode ml_<gradient> with the given parameters.
    n_steps must be at least 1: the report always holds the last step.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    evaluate = case_or_ic.evaluate if hasattr(case_or_ic, "evaluate") else case_or_ic
    if hasattr(case_or_ic, "evaluate"):
        bc_coarse = case_bc(case_or_ic, coarse, bc_kind)
        bc_fine = case_bc(case_or_ic, fine, bc_kind)
    else:
        bc_coarse = bc_fine = {}

    w_co = prim_to_cons(evaluate(coarse.centroid), gas)
    w_fi = prim_to_cons(evaluate(fine.centroid), gas)

    cfg_plain = solver.StepConfig(co=co, gradient=gradient, gas=gas)
    cfg_ml = solver.StepConfig(co=co, gradient=f"ml_{gradient}", gas=gas)
    dt = solver.compute_dt(coarse, cfg_plain)
    runs = zip(
        solver.march(fine, w_fi, dt, n_steps, cfg_plain, bc_fine,
                     substeps=solver.substep_count(coarse, fine)),
        solver.march(coarse, w_co, dt, n_steps, cfg_plain, bc_coarse),
        solver.march(coarse, w_co, dt, n_steps, cfg_ml, bc_coarse, params=params))

    rows = []
    for (k, w_fi, _), (_, w_co, _), (_, w_ml, _) in runs:
        if k % record_every == 0 or k == n_steps:
            u_ref = cons_to_prim(msh.project_fine_to_coarse(w_fi, pm), gas)
            u_co = cons_to_prim(w_co, gas)
            u_ml = cons_to_prim(w_ml, gas)
            l_co = _l1_error(u_ref, u_co)
            l_ml = _l1_error(u_ref, u_ml)
            gain = 100.0 * (l_co - l_ml) / l_co if l_co > 0 else 0.0
            rows.append((k, k * dt, l_co, l_ml, gain))

    arr = np.array(rows)
    return GainReport(steps=arr[:, 0].astype(int), times=arr[:, 1],
                      l_coarse=arr[:, 2], l_ml=arr[:, 3], gain_pct=arr[:, 4])


# ---------------------------------------------------------------------------
# forward-facing step
# ---------------------------------------------------------------------------

FORWARD_STEP_STATE = np.array([1.4, 3.0, 0.0, 1.0])


def forward_step_mesh(h_target=0.02):
    """Channel [0,3]x[0,1] with a 0.2-high step from x = 0.6 on.

    Structured-split triangulation at spacing ~h_target (snapped so the
    step corner lies on the grid).  Left inflow is supersonic, right edge
    is supersonic outflow, every other wall slips.
    """
    m_div = max(1, round(0.2 / h_target))
    s = 0.2 / m_div
    nx, ny = 15 * m_div, 5 * m_div
    xs = np.linspace(0.0, 3.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)

    def inside_step(i, j):
        return xs[i] >= 0.6 - 1e-12 and ys[j + 1] <= 0.2 + 1e-12

    nid = {}
    nodes = []

    def node(i, j):
        if (i, j) not in nid:
            nid[(i, j)] = len(nodes)
            nodes.append((xs[i], ys[j]))
        return nid[(i, j)]

    tris = []
    for i in range(nx):
        for j in range(ny):
            if inside_step(i, j):
                continue
            n00, n10 = node(i, j), node(i + 1, j)
            n01, n11 = node(i, j + 1), node(i + 1, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))

    tol = 0.25 * s
    rules = [
        (msh.SUPERSONIC_IN, 0, lambda mid, n: mid[0] < tol),
        (msh.SUPERSONIC_OUT, 0, lambda mid, n: mid[0] > 3.0 - tol),
        (msh.SLIP_WALL, 0, lambda mid, n: True),
    ]
    mesh = msh.build_mesh(np.array(nodes), tris, BoundarySpec(rules=rules))
    bc_table = {
        msh.SUPERSONIC_IN: BCSpec(kind=msh.SUPERSONIC_IN, state=FORWARD_STEP_STATE),
        msh.SUPERSONIC_OUT: BCSpec(kind=msh.SUPERSONIC_OUT),
        msh.SLIP_WALL: BCSpec(kind=msh.SLIP_WALL),
    }
    return mesh, bc_table


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def fit_loglog_slope(h, err):
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    a, _b = np.polyfit(np.log(h), np.log(err), 1)
    return float(a)


CONVERGENCE_COLUMNS = ("mode", "h", "error")


def convergence_study(case_ids, levels, params=None, t_final=0.2, co=0.01,
                      modes=("lsq", "ml_lsq"), gas=GasModel(), mesh_seed=None):
    """Error versus mesh size over a ladder of periodic meshes.

    levels: structured resolutions (cells = 2 n^2).  The error per case and
    level is the mean absolute deviation of the primitives from the
    projected refined-grid reference at t_final; per mode the returned
    slope is the log-log fit against h = sqrt(mean |C|).

    Returns (rows, slopes): rows of (mode, h, error) aggregated over cases.
    """
    if len(levels) < 3:
        raise ValueError("need at least 3 mesh levels")
    rows = []
    slopes = {}
    errors = {mode: [] for mode in modes}
    hs = []
    for n in levels:
        coarse = riemann_mesh(n, periodic=True, seed=mesh_seed)
        fine, pm = msh.refine_uniform(coarse)
        hs.append(coarse.mean_cell_length)
        per_mode = {mode: [] for mode in modes}
        for cid in case_ids:
            case = riemann_case(cid)
            w_fi = prim_to_cons(case.evaluate(fine.centroid), gas)
            cfg = solver.StepConfig(co=co, gradient="lsq", gas=gas)
            dt = solver.compute_dt(coarse, cfg)
            n_steps = int(np.ceil(t_final / dt))
            for _, w_fi, _ in solver.march(fine, w_fi, dt, n_steps, cfg, {},
                                           substeps=solver.substep_count(coarse, fine)):
                pass
            u_ref = cons_to_prim(msh.project_fine_to_coarse(w_fi, pm), gas)
            for mode in modes:
                cfg_m = solver.StepConfig(co=co, gradient=mode, gas=gas)
                w = prim_to_cons(case.evaluate(coarse.centroid), gas)
                for _, w, _ in solver.march(
                        coarse, w, dt, n_steps, cfg_m, {},
                        params=params if cfg_m.uses_network else None):
                    pass
                per_mode[mode].append(np.abs(cons_to_prim(w, gas) - u_ref).mean())
        for mode in modes:
            err = float(np.mean(per_mode[mode]))
            errors[mode].append(err)
            rows.append((mode, hs[-1], err))
    for mode in modes:
        slopes[mode] = fit_loglog_slope(hs, errors[mode])
    return rows, slopes


# ---------------------------------------------------------------------------
# timing study
# ---------------------------------------------------------------------------

TIMING_COLUMNS = ("mode", "h", "cells", "wall_s", "error")


def timing_study(case_id, levels, params=None, t_final=0.1, co=0.01,
                 modes=("lsq", "ml_lsq"), gas=GasModel(), repeats=3):
    """Wall time and final error per (mode, level); medians of >= repeats.

    One warmup step per configuration is excluded from the timings.
    """
    case = riemann_case(case_id)
    rows = []
    for n in levels:
        coarse = riemann_mesh(n, periodic=True)
        fine, pm = msh.refine_uniform(coarse)
        cfg0 = solver.StepConfig(co=co, gradient="lsq", gas=gas)
        dt = solver.compute_dt(coarse, cfg0)
        n_steps = int(np.ceil(t_final / dt))
        w_fi = prim_to_cons(case.evaluate(fine.centroid), gas)
        for _, w_fi, _ in solver.march(fine, w_fi, dt, n_steps, cfg0, {},
                                       substeps=solver.substep_count(coarse, fine)):
            pass
        u_ref = cons_to_prim(msh.project_fine_to_coarse(w_fi, pm), gas)
        for mode in modes:
            cfg = solver.StepConfig(co=co, gradient=mode, gas=gas)
            p = params if cfg.uses_network else None
            w0 = prim_to_cons(case.evaluate(coarse.centroid), gas)
            next(solver.march(coarse, w0, dt, 1, cfg, {}, params=p))  # warmup
            times = []
            err = None
            for _rep in range(max(3, repeats)):
                w = w0
                t0 = time.perf_counter()
                for _, w, _ in solver.march(coarse, w0, dt, n_steps, cfg, {}, params=p):
                    pass
                times.append(time.perf_counter() - t0)
                err = float(np.abs(cons_to_prim(w, gas) - u_ref).mean())
            rows.append((mode, coarse.mean_cell_length, coarse.n_cells,
                         float(np.median(times)), err))
    return rows
