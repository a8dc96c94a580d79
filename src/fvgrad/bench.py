"""Benchmark harness: Riemann suite gains, the forward-facing step and
the error-versus-cost study (mesh-convergence slopes and wall times).

The central metric is the gain of the corrected solver over the plain one
at equal resolution,

    gain = 100 * (L_coarse - L_ML) / L_coarse,

where both L values are ``l1_error``: the mean over cells and primitive
variables of the deviation from a refined-grid reference projected onto
the coarse mesh.  All three runs (reference, plain, corrected) share the
time step of the coarse mesh, the fine run sub-stepping as needed, so
errors compare states at identical time instants.
"""

import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import mesh as msh
from . import solver
from .bc import BCSpec, table_from_ic
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
        raise ValueError(f"unknown Riemann case id {case_id}")
    return RiemannCase(case_id, _FILE_CASES[case_id])


def riemann_mesh(n, periodic=True):
    """Structured mesh of the unit square with 2 n^2 cells for the Riemann
    cases: periodic, or with subsonic outflow on every side."""
    if periodic:
        return msh.periodic_structured_mesh(n)
    return msh.structured_mesh(n, boundary_spec=BoundarySpec.uniform(msh.SUBSONIC_OUT))


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


def l1_error(u, u_ref):
    """Mean of |u - u_ref| over cells and primitive variables."""
    return float(np.abs(u - u_ref).mean())


def run_gain(case_or_ic, coarse, fine, pm, params, n_steps, co=0.01,
             gas=GasModel(), record_every=10, gradient="lsq"):
    """Reference / plain / corrected triple run and the per-step gain.

    case_or_ic: a RiemannCase or a callable points -> primitive field; it
    also gives each mesh's boundary table (``bc.table_from_ic``).  The
    corrected run uses mode ml_<gradient> with the given parameters.
    n_steps must be at least 1: the report always holds the last step.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    evaluate = case_or_ic.evaluate if hasattr(case_or_ic, "evaluate") else case_or_ic
    bc_coarse = table_from_ic(coarse, evaluate)
    bc_fine = table_from_ic(fine, evaluate)

    w_co = prim_to_cons(evaluate(coarse.centroid), gas)
    w_fi = prim_to_cons(evaluate(fine.centroid), gas)

    cfg_plain = solver.StepConfig(co=co, gradient=gradient, gas=gas)
    cfg_ml = solver.StepConfig(co=co, gradient=f"ml_{gradient}", gas=gas)
    dt = solver.compute_dt(coarse, cfg_plain)
    refs = solver.reference(coarse, fine, pm, w_fi, dt, n_steps, cfg_plain, bc_fine)
    next(refs)                          # k = 0: the initial state
    runs = zip(refs, solver.march(coarse, w_co, dt, n_steps, cfg_plain, bc_coarse),
               solver.march(coarse, w_co, dt, n_steps, cfg_ml, bc_coarse, params=params))

    rows = []
    for (k, w_ref), (_, w_co, _), (_, w_ml, _) in runs:
        if k % record_every == 0 or k == n_steps:
            u_ref = cons_to_prim(w_ref, gas)
            l_co = l1_error(cons_to_prim(w_co, gas), u_ref)
            l_ml = l1_error(cons_to_prim(w_ml, gas), u_ref)
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
    if not h_target > 0:
        raise ValueError(f"forward-step mesh needs h_target > 0, got {h_target}")
    m_div = max(1, round(0.2 / h_target))
    s = 0.2 / m_div
    nx, ny = 15 * m_div, 5 * m_div
    xs = np.linspace(0.0, 3.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)

    # grid squares (i, j) in i-major order, less those inside the step; their
    # corners n00, n10, n01, n11 are numbered in the order of first use
    i, j = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))
    keep = ~((xs[i] >= 0.6 - 1e-12) & (ys[j + 1] <= 0.2 + 1e-12))
    i, j = i[keep], j[keep]
    corner = (np.stack([i, i + 1, i, i + 1], axis=1) * (ny + 1)
              + np.stack([j, j, j + 1, j + 1], axis=1)).ravel()
    nid, first = msh.first_occurrence_ids(corner)
    nodes = np.column_stack([xs[corner[first] // (ny + 1)], ys[corner[first] % (ny + 1)]])
    tris = nid.reshape(-1, 4)[:, [0, 1, 3, 0, 3, 2]].reshape(-1, 3)

    tol = 0.25 * s
    rules = [
        (msh.SUPERSONIC_IN, 0, lambda mid, n: mid[0] < tol),
        (msh.SUPERSONIC_OUT, 0, lambda mid, n: mid[0] > 3.0 - tol),
        (msh.SLIP_WALL, 0, lambda mid, n: True),
    ]
    mesh = msh.build_mesh(nodes, tris, BoundarySpec(rules=rules))
    bc_table = {
        msh.SUPERSONIC_IN: BCSpec(kind=msh.SUPERSONIC_IN, state=FORWARD_STEP_STATE),
        msh.SUPERSONIC_OUT: BCSpec(kind=msh.SUPERSONIC_OUT),
        msh.SLIP_WALL: BCSpec(kind=msh.SLIP_WALL),
    }
    return mesh, bc_table


# ---------------------------------------------------------------------------
# error-versus-cost study
# ---------------------------------------------------------------------------

def fit_loglog_slope(h, err):
    a, _b = np.polyfit(np.log(h), np.log(err), 1)
    return float(a)


STUDY_COLUMNS = ("mode", "case", "h", "cells", "wall_s", "error")


def error_cost_study(case_ids, levels, params=None, t_final=0.2, co=0.01,
                     modes=("lsq", "ml_lsq"), gas=GasModel(), repeats=3):
    """Error and wall time per (level, case, mode) over a ladder of periodic meshes.

    levels: structured resolutions (cells = 2 n^2).  error is ``l1_error``
    against the projected refined-grid reference at t_final; wall_s is the
    median of ``repeats`` coarse marches to t_final, after a one-step
    warm-up.  Per mode, the slope is the log-log fit of the case-mean error
    against h = sqrt(mean |C|).

    Returns (rows, slopes): rows of STUDY_COLUMNS, slopes a dict mode -> slope.
    """
    if len(levels) < 3:
        raise ValueError("need at least 3 mesh levels")
    if not case_ids:
        raise ValueError("need at least one case")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if t_final <= 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    cases = [riemann_case(cid) for cid in case_ids]
    cfg = solver.StepConfig(co=co, gradient="lsq", gas=gas)
    rows = []
    hs = []
    case_mean = {mode: [] for mode in modes}
    for n in levels:
        coarse = riemann_mesh(n)
        fine, pm = msh.refine_uniform(coarse)
        dt = solver.compute_dt(coarse, cfg)
        n_steps = int(np.ceil(t_final / dt))
        errors = {mode: [] for mode in modes}
        for case in cases:
            w_fi = prim_to_cons(case.evaluate(fine.centroid), gas)
            for _, w_ref in solver.reference(coarse, fine, pm, w_fi, dt, n_steps, cfg):
                pass
            u_ref = cons_to_prim(w_ref, gas)
            w0 = prim_to_cons(case.evaluate(coarse.centroid), gas)
            for mode in modes:
                cfg_m = solver.StepConfig(co=co, gradient=mode, gas=gas)
                p = params if cfg_m.uses_network else None
                next(solver.march(coarse, w0, dt, 1, cfg_m, {}, params=p))  # warm-up
                times = []
                for _rep in range(repeats):
                    t0 = time.perf_counter()
                    for _, w, _ in solver.march(coarse, w0, dt, n_steps, cfg_m, {}, params=p):
                        pass
                    times.append(time.perf_counter() - t0)
                errors[mode].append(l1_error(cons_to_prim(w, gas), u_ref))
                rows.append((mode, case.case_id, coarse.mean_cell_length, coarse.n_cells,
                             float(np.median(times)), errors[mode][-1]))
        hs.append(coarse.mean_cell_length)
        for mode in modes:
            case_mean[mode].append(float(np.mean(errors[mode])))
    slopes = {mode: fit_loglog_slope(hs, case_mean[mode]) for mode in modes}
    return rows, slopes
