"""Benchmark harness: the gain of the corrected solver, the error-versus-cost
study (mesh-convergence slopes and wall times), the Riemann quadrant cases
and the forward-facing step.  The scorers take the coarse meshes and the
initial conditions their caller builds.

The central metric is the gain of the corrected solver over the plain one
at equal resolution,

    gain = 100 * (L_coarse - L_ML) / L_coarse,

where both L values are ``l1_error``: the mean over cells and primitive
variables of the deviation from a refined-grid reference projected onto
the coarse mesh.  One routine, ``score``, marches the reference and every
run on the time step of the coarse mesh, the fine run sub-stepping as
needed, so errors compare states at identical time instants.  The gain and
the study call it.  A rejected step stops only its run, whose errors then
read NaN, and is reported with its step and cell.
"""

import functools
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import mesh as msh
from . import solver, train
from .bc import BCSpec, table_from_ic
from .euler import cons_to_prim, prim_to_cons
from .mesh import BoundarySpec

@dataclass
class RiemannCase:
    quadrants: np.ndarray     # (4, 4) primitive states, Q1..Q4

    def evaluate(self, points):
        """Quadrant initial condition at the given points of [0,1]^2."""
        # train's quadrant order is Q3, Q4, Q2, Q1
        return train._quadrant_field(points, self.quadrants[[2, 3, 1, 0]])


@functools.cache
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


def riemann_case(case_id):
    """Quadrant states for one test case of ``data/riemann_cases.txt``."""
    cases = _load_case_file()
    if case_id not in cases:
        raise ValueError(f"unknown Riemann case id {case_id}")
    return RiemannCase(cases[case_id].copy())


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
# scoring: gain runs and the error-versus-cost study
# ---------------------------------------------------------------------------

GAIN_COLUMNS = ("step", "time", "L_coarse", "L_ML", "gain_pct")
STUDY_COLUMNS = ("mode", "case", "h", "cells", "wall_s", "error")
REFERENCE = "reference"


def l1_error(u, u_ref):
    """Mean of |u - u_ref| over cells and primitive variables."""
    return float(np.abs(u - u_ref).mean())


def plain_and_corrected(cfg, params):
    """The runs a gain and the study compare: cfg's plain mode without
    parameters and its corrected mode with params."""
    plain, ml = cfg.plain(), cfg.corrected()
    return {plain.gradient: (plain, None), ml.gradient: (ml, params)}


def score(evaluate, coarse, cfg, runs, n_steps, record_every):
    """L1 errors of named coarse runs against the refined-grid reference.

    evaluate maps points to the primitive initial condition and gives each
    mesh's boundary table (``bc.table_from_ic``).  The reference is
    ``solver.reference`` of cfg, as the dataset's; runs maps a name to a
    (StepConfig, params) pair.  All take the coarse time step of cfg and
    advance together.

    Returns (rows, rejected).  rows holds (k, errors) at every record_every-th
    step and at step n_steps, errors a dict name -> ``l1_error``.  A run whose
    step raises ``SolverError`` stops there and its errors read NaN from that
    step on; every run's do once the reference stops.  rejected lists each
    stopped run as {"run", "step", "cell"}, the reference as REFERENCE with a
    cell of the fine mesh.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    gas = cfg.gas
    dt = solver.compute_dt(coarse, cfg)
    refs = solver.reference(coarse, evaluate, n_steps, cfg)
    next(refs)                          # k = 0: the initial state
    marches = {REFERENCE: (w for _, w in refs)}
    w0 = prim_to_cons(evaluate(coarse.centroid), gas)
    bc_coarse = table_from_ic(coarse, evaluate)
    for name, (run_cfg, params) in runs.items():
        marches[name] = (w for _, w, _ in solver.march(coarse, w0, dt, n_steps, run_cfg,
                                                       bc_coarse, params=params))
    state, rejected, rows = {}, {}, []
    for k in range(1, n_steps + 1):
        for name in [name for name in marches if name not in rejected]:
            try:
                state[name] = next(marches[name])
            except solver.SolverError as exc:
                rejected[name] = exc
        if k % record_every == 0 or k == n_steps:
            errors = dict.fromkeys(runs, np.nan)
            if REFERENCE not in rejected:
                u_ref = cons_to_prim(state[REFERENCE], gas)
                errors.update((name, l1_error(cons_to_prim(state[name], gas), u_ref))
                              for name in runs if name not in rejected)
            rows.append((k, errors))
    return rows, [{"run": name, "step": exc.step, "cell": exc.cell}
                  for name, exc in rejected.items()]


def gain(evaluate, coarse, cfg, params, n_steps, record_every):
    """Rows of GAIN_COLUMNS for ``plain_and_corrected`` and the rejected runs
    (``score``).  gain_pct is 100 (L_coarse - L_ML) / L_coarse, NaN where
    either error is and 0 where L_coarse is."""
    dt = solver.compute_dt(coarse, cfg)
    rows, rejected = score(evaluate, coarse, cfg, plain_and_corrected(cfg, params),
                           n_steps, record_every)
    out = []
    for k, errors in rows:
        l_co, l_ml = errors.values()
        pct = (np.nan if np.isnan(l_co - l_ml)
               else 100.0 * (l_co - l_ml) / l_co if l_co > 0 else 0.0)
        out.append((k, k * dt, l_co, l_ml, pct))
    return out, rejected


def fit_loglog_slope(h, err):
    a, _b = np.polyfit(np.log(h), np.log(err), 1)
    return float(a)


def error_cost_study(cases, meshes, cfg, params, t_final, repeats):
    """Error and wall time per (mesh, case, mode) over a ladder of meshes.

    cases maps a name to an initial-condition evaluator; meshes are the
    coarse levels, each refined once by its reference; the modes are
    ``plain_and_corrected``.  error is the ``score`` at t_final; wall_s is the
    median of ``repeats`` coarse marches to t_final after a one-step warm-up,
    NaN for a rejected run.  Per mode, the slope is the log-log fit of the
    case-mean error against h = sqrt(mean |C|), NaN where an error is.

    Returns (rows, slopes, rejected): rows of STUDY_COLUMNS, slopes a dict
    mode -> slope, rejected the ``score`` entries with their case and the
    mesh's cell count.
    """
    if len(meshes) < 3:
        raise ValueError("need at least 3 mesh levels")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if t_final <= 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    runs = plain_and_corrected(cfg, params)
    rows, rejected = [], []
    for coarse in meshes:
        dt = solver.compute_dt(coarse, cfg)
        n_steps = int(np.ceil(t_final / dt))
        for case, evaluate in cases.items():
            [(_, final)], stopped = score(evaluate, coarse, cfg, runs, n_steps, n_steps)
            rejected += [{"case": case, "cells": coarse.n_cells, **entry} for entry in stopped]
            w0 = prim_to_cons(evaluate(coarse.centroid), cfg.gas)
            bc_table = table_from_ic(coarse, evaluate)
            for mode, (run_cfg, p) in runs.items():
                times = []
                if mode not in [entry["run"] for entry in stopped]:
                    next(solver.march(coarse, w0, dt, 1, run_cfg, bc_table, params=p))  # warm-up
                    for _rep in range(repeats):
                        t0 = time.perf_counter()
                        for _ in solver.march(coarse, w0, dt, n_steps, run_cfg, bc_table,
                                              params=p):
                            pass
                        times.append(time.perf_counter() - t0)
                rows.append((mode, case, coarse.mean_cell_length, coarse.n_cells,
                             float(np.median(times)) if times else np.nan, final[mode]))
    hs = [coarse.mean_cell_length for coarse in meshes]
    slopes = {mode: fit_loglog_slope(hs, [np.mean([row[5] for row in rows
                                                   if row[0] == mode and row[2] == h])
                                          for h in hs])
              for mode in runs}
    return rows, slopes, rejected
