import ctypes
import itertools
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvgrad import autodiff as ad
from fvgrad import bc as bclib
from fvgrad import bench, mlcorr, recon, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import (AdmissibilityError, GasModel, cons_to_prim, max_wave_speed,
                          normal_velocity, physical_flux, prim_to_cons)
from conftest import (digest, finite_diff_grad, mesh_geometry, random_admissible_prim,
                      seeded_network_params, smooth_prim_field)

N_STEPS = 10
CO = 0.05


@pytest.fixture(scope="module")
def mesh():
    return msh.periodic_irregular_mesh(8, seed=3)


@pytest.fixture(scope="module")
def w0(mesh):
    return prim_to_cons(smooth_prim_field(mesh.centroid), GasModel())


def _final(mesh, w0, cfg, params=None):
    w = w0
    for _, w, _ in solver.march(mesh, w0, solver.compute_dt(mesh, cfg), N_STEPS, cfg, {},
                                params):
        pass
    return w


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_conservation_on_periodic_mesh(mesh, w0, seeded_params, mode):
    cfg = solver.StepConfig(co=CO, gradient=mode)
    w = _final(mesh, w0, cfg, seeded_params if cfg.uses_network else None)
    if cfg.uses_network:
        plain = _final(mesh, w0, solver.StepConfig(co=CO, gradient=mode[3:]))
        assert np.abs(w - plain).max() > 1e-8  # the correction is live
    before = (mesh.area[:, None] * w0).sum(axis=0)
    after = (mesh.area[:, None] * w).sum(axis=0)
    scale = (mesh.area[:, None] * np.abs(w0)).sum(axis=0)
    assert (np.abs(after - before) / scale).max() < 1e-12


@pytest.mark.parametrize("mode", ["gg", "lsq"])
def test_zero_params_reproduce_plain_rollout_bitwise(mesh, w0, mode):
    cfg = solver.StepConfig(co=CO, gradient=mode, save_every=3)
    cfg_ml = solver.StepConfig(co=CO, gradient=f"ml_{mode}", save_every=3)
    plain = solver.rollout(mesh, w0, N_STEPS, cfg, {})
    ml = solver.rollout(mesh, w0, N_STEPS, cfg_ml, {}, params=mlcorr.zero_params())
    assert [r["step"] for r in plain.diagnostics] == [0, 3, 6, 9, 10]
    assert plain.times == ml.times
    assert len(plain.frames) == len(ml.frames) == 5
    for a, b in zip(plain.frames, ml.frames):
        assert (a == b).all()
    assert plain.diagnostics == ml.diagnostics


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_an_unlimited_step_is_a_step_whose_limiter_is_one_everywhere(mesh, gas, seeded_params,
                                                                      mode):
    """On a quadrant state, where the default limiter is active, limiter=False
    changes the step.  With K = 1e4, omega = (K h)^3 makes every face factor
    at least 1, so phi clips to exactly 1.0: the same step, bitwise."""
    w0 = prim_to_cons(bench.riemann_case(6).evaluate(mesh.centroid), gas)
    params = seeded_params if mode.startswith("ml_") else None

    def step(**limiter):
        cfg = solver.StepConfig(co=CO, gradient=mode, **limiter)
        return solver.step_explicit_euler(mesh, w0, solver.compute_dt(mesh, cfg), cfg, {},
                                          params)[0]

    unlimited = step(limiter=False)
    assert np.abs(unlimited - step()).max() > 1e-3
    assert (unlimited == step(limiter_k=1e4)).all()


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_plain_and_corrected_modes_keep_every_other_field(mode):
    cfg = solver.StepConfig(co=0.02, gradient=mode, limiter=False, limiter_k=0.5,
                            gas=GasModel(1.3), save_every=3)
    plain = mode.removeprefix("ml_")
    assert cfg.plain() == replace(cfg, gradient=plain)
    assert cfg.corrected() == replace(cfg, gradient=f"ml_{plain}")


def test_march_with_substeps_matches_hand_loop(mesh, w0):
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    dt = solver.compute_dt(mesh, cfg)
    m = 3
    got = list(solver.march(mesh, w0, dt, 4, cfg, {}, substeps=m))
    assert [k for k, _, _ in got] == [1, 2, 3, 4]
    w = w0
    for k in range(1, 5):
        for _ in range(m):
            w, diag = solver.step_explicit_euler(mesh, w, dt / m, cfg, {})
        assert (got[k - 1][1] == w).all()
        assert got[k - 1][2] == diag


def test_march_tags_every_substep_with_its_coarse_step(mesh, w0, monkeypatch):
    calls = []
    real = solver.step_explicit_euler

    def spy(mesh_, w, dt, cfg, *args, step_index=None):
        calls.append((step_index, dt))
        return real(mesh_, w, dt, cfg, *args, step_index=step_index)

    monkeypatch.setattr(solver, "step_explicit_euler", spy)
    cfg = solver.StepConfig(co=CO, gradient="gg")
    dt = solver.compute_dt(mesh, cfg)
    for _ in solver.march(mesh, w0, dt, 2, cfg, {}, substeps=2):
        pass
    assert calls == [(1, dt / 2), (1, dt / 2), (2, dt / 2), (2, dt / 2)]


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_march_passes_traced_states_through(mesh, w0, seeded_params, mode):
    """A traced initial state (and, in ml_* modes, traced parameters) gives
    the untraced states bitwise and a non-zero gradient for each."""
    cfg = solver.StepConfig(co=CO, gradient=mode)
    params = seeded_params if cfg.uses_network else None
    dt = solver.compute_dt(mesh, cfg)
    tape = ad.Tape()
    w_var = tape.var(w0)
    p = tape.var(seeded_params.values) if cfg.uses_network else None
    traced = list(solver.march(mesh, w_var, dt, 3, cfg, {},
                               params and params.with_values(p)))
    plain = list(solver.march(mesh, w0, dt, 3, cfg, {}, params))
    for (_, wt, _), (_, wp, _) in zip(traced, plain):
        assert isinstance(wt, ad.Var)
        assert (wt.value == wp).all()
    tape.backward([(ad.sum(traced[-1][1] * traced[-1][1]), np.array(1.0))])
    assert np.abs(w_var.grad).max() > 0
    if cfg.uses_network:
        assert p.grad is not None and np.abs(p.grad).max() > 0


def _with_nan_areas(m, cells):
    """m with |C| NaN at the given cells: the update w - (dt / |C|) R of
    those cells, and of no other, is NaN."""
    area = m.area.copy()
    area[cells] = np.nan
    return replace(m, area=area)


def test_step_rejects_a_nan_update_naming_the_cell(mesh, w0):
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    with pytest.raises(solver.SolverError) as err:
        solver.step_explicit_euler(_with_nan_areas(mesh, [5]), w0,
                                   solver.compute_dt(mesh, cfg), cfg, {})
    assert err.value.cell == 5


def test_max_wave_speed_diag_matches_face_oracle(mesh, w0):
    """diag["max_wave_speed"] is max over faces of max(|v.n| + c) of the two
    reconstructed face states, i.e. the wave speed the flux dissipates with."""
    gas = GasModel()
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    _, diag = solver.residual(mesh, w0.T, cfg, {})
    u = cons_to_prim(w0, gas).T
    u_nb = recon.neighbor_values(mesh, u, None)
    grad = recon.gradient_lsq(mesh, recon.neighbor_deltas(mesh, u, u_nb))
    delta = recon.face_increments(mesh, grad)
    phi = recon.venkat_limiter(mesh.cell_blocks(1)[0], u, u_nb, delta, cfg.limiter_k)
    slots, _ = recon.slot_states(mesh, u, delta, phi)
    u_l, u_r = recon.muscl_face_values(mesh, slots, None).transpose(1, 0, 2)
    s = np.maximum(*(max_wave_speed(u.T, normal_velocity(u.T, mesh.f_normal), gas)
                     for u in (u_l, u_r)))
    assert diag["max_wave_speed"] == float(s.max())


@pytest.mark.parametrize("mode", ["lsq", "gg"])
def test_residual_equals_its_stages_called_one_by_one(mesh, w0, mode):
    """Calling each stage of the residual on its own gives it bitwise."""
    gas = GasModel()
    rng = np.random.default_rng(4)
    w = prim_to_cons(cons_to_prim(w0, gas) * rng.uniform(0.8, 1.2, w0.shape), gas)
    cfg = solver.StepConfig(co=CO, gradient=mode, limiter_k=0.5)   # limiter active
    r, _ = solver.residual(mesh, w.T, cfg, {})
    r = r.T
    u = cons_to_prim(w, gas).T
    u_nb = recon.neighbor_values(mesh, u, None)
    grad = (recon.gradient_lsq(mesh, recon.neighbor_deltas(mesh, u, u_nb)) if mode == "lsq"
            else recon.gradient_gg(mesh, u, u_nb))
    delta = recon.face_increments(mesh, grad)
    phi = recon.venkat_limiter(mesh.cell_blocks(1)[0], u, u_nb, delta, cfg.limiter_k)
    assert (phi < 1.0).mean() > 0.2
    slots, _ = recon.slot_states(mesh, u, delta, phi)
    flux, _ = solver.rusanov_flux(recon.muscl_face_values(mesh, slots, None),
                                  mesh.f_normal.T, gas)
    # each cell adds its faces' fluxes in stencil order, + on its face's
    # left side and - on the right, each times the face length
    slot_face = {int(k): f for f, k in enumerate(mesh.face_slots[0])}
    right = {int(k): f for f, k in enumerate(mesh.face_slots[1, :mesh.n_iface])}
    f_len = mesh_geometry(mesh).f_len
    expect = np.zeros_like(r)
    for j in range(3):
        for i in range(mesh.n_cells):
            k = j * mesh.n_cells + i
            if k in slot_face:
                expect[i] += f_len[slot_face[k]] * flux.T[slot_face[k]]
            else:
                expect[i] += -f_len[right[k]] * flux.T[right[k]]
    assert (r == expect).all()


def test_frame_diagnostics_carry_the_cfl_and_bc_clamps_of_their_step(gas):
    m, bc_table = bench.forward_step_mesh(0.2)
    w0 = prim_to_cons(bench.riemann_case(6).evaluate(m.centroid), gas)
    cfg = solver.StepConfig(co=CO, gradient="lsq", save_every=2)
    rec = solver.rollout(m, w0, 5, cfg, bc_table)
    diags = [d for _, _, d in solver.march(m, w0, solver.compute_dt(m, cfg), 5, cfg, bc_table)]
    assert [row["step"] for row in rec.diagnostics] == [0, 2, 4, 5]
    first = rec.diagnostics[0]
    assert np.isnan(first["cfl"]) and first["bc_clamps"] == 0
    for row in rec.diagnostics[1:]:
        diag = diags[row["step"] - 1]
        assert row["cfl"] == cfg.co * diag["max_wave_speed"]
        assert row["bc_clamps"] == diag["bc_clamps"]
    assert tuple(first) == solver.DIAGNOSTIC_COLUMNS


@pytest.mark.parametrize("gradient", ["lsq", "gg"])
def test_gain_is_zero_at_zero_params(mesh, gradient):
    fine, pm = msh.refine_uniform(mesh)
    cfg = solver.StepConfig(co=CO, gradient=gradient)
    rows, rejected = bench.gain(smooth_prim_field, mesh, fine, pm, cfg, mlcorr.zero_params(),
                                N_STEPS, record_every=3)
    steps, _, l_coarse, l_ml, gain_pct = map(np.array, zip(*rows))
    assert list(steps) == [3, 6, 9, 10] and rejected == []
    assert (l_coarse > 0).all()
    assert (l_ml == l_coarse).all()
    assert (gain_pct == 0.0).all()


def test_l1_error_is_the_mean_over_cells_and_primitives():
    u = np.arange(12.0).reshape(3, 4)
    assert bench.l1_error(u, np.zeros((3, 4))) == bench.l1_error(np.zeros((3, 4)), u) == 5.5


@pytest.mark.parametrize("case_id,quadrants", [
    (6, ((1.0, 0.75, -0.5, 1.0), (2.0, 0.75, 0.5, 1.0),
         (2.0, -0.75, 0.5, 1.0), (3.0, -0.75, -0.5, 1.0))),
    (11, ((1.0, 0.1, 0.1, 1.0), (0.5313, 0.8276, 0.0, 0.4),
          (0.8, 0.1, 0.0, 1.4), (0.5313, 0.1, 0.7276, 0.4))),
], ids=["6", "11"])
def test_the_studied_cases_hold_the_reproduced_study_states(case_id, quadrants):
    """Cases 6 and 11 are the quadrant states printed in the reproduced
    study (Q1..Q4, rho u v p), read from the case file like every other."""
    got = bench.riemann_case(case_id).quadrants
    assert got.dtype == np.float64 and (got == np.array(quadrants)).all()


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "subsonic_outflow"])
def test_reference_is_the_projected_fine_march(periodic, gas):
    case = bench.riemann_case(6)
    coarse = (msh.periodic_structured_mesh(6) if periodic else
              msh.structured_mesh(6, boundary_spec=msh.BoundarySpec.uniform(msh.SUBSONIC_OUT)))
    fine, pm = msh.refine_uniform(coarse)
    bc_fine = bclib.table_from_ic(fine, case.evaluate)
    assert bool(bc_fine) != periodic
    w0 = prim_to_cons(case.evaluate(fine.centroid), gas)
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    dt = solver.compute_dt(coarse, cfg)
    got = list(solver.reference(coarse, fine, pm, w0, dt, 4, cfg, bc_fine))
    # uniform refinement halves every length: two fine substeps per coarse step
    expect = [(0, msh.project_fine_to_coarse(w0, pm))] + [
        (k, msh.project_fine_to_coarse(w, pm))
        for k, w, _ in solver.march(fine, w0, dt, 4, cfg, bc_fine, substeps=2)]
    assert [k for k, _ in got] == [0, 1, 2, 3, 4]
    for (_, a), (_, b) in zip(got, expect):
        assert (a == b).all()


STUDY_CASES, STUDY_LEVELS = (6, 3), (4, 5, 6)


@pytest.fixture(scope="module")
def study():
    """Rows and slopes of one study per plain mode, merged."""
    rows, slopes = [], {}
    for gradient in ("lsq", "gg"):
        r, s, rejected = bench.error_cost_study(
            {cid: bench.riemann_case(cid).evaluate for cid in STUDY_CASES},
            [msh.periodic_structured_mesh(n) for n in STUDY_LEVELS],
            solver.StepConfig(gradient=gradient), mlcorr.zero_params(),
            t_final=0.01, repeats=2)
        assert rejected == []
        rows += r
        slopes.update(s)
    return rows, slopes


def test_study_rows_cover_every_level_case_and_mode(study):
    rows, _ = study
    assert all(len(row) == len(bench.STUDY_COLUMNS) for row in rows)
    assert [(row[0], row[1], row[3]) for row in rows] == [
        (mode, cid, 2 * n * n) for plain in ("lsq", "gg") for n in STUDY_LEVELS
        for cid in STUDY_CASES for mode in (plain, f"ml_{plain}")]
    assert all(row[4] > 0 and row[5] > 0 for row in rows)


def test_study_at_zero_params_gives_the_plain_errors_bitwise(study):
    rows, slopes = study
    errors = {mode: [row[5] for row in rows if row[0] == mode] for mode in slopes}
    assert errors["ml_lsq"] == errors["lsq"]
    assert errors["ml_gg"] == errors["gg"]
    assert errors["gg"] != errors["lsq"]
    assert slopes["ml_lsq"] == slopes["lsq"]


def test_study_slopes_fit_the_case_mean_errors(study):
    rows, slopes = study
    for mode, slope in slopes.items():
        own = [row for row in rows if row[0] == mode]
        hs = [row[2] for row in own[::len(STUDY_CASES)]]
        means = [np.mean([row[5] for row in own if row[2] == h]) for h in hs]
        assert slope == bench.fit_loglog_slope(hs, means)


def test_gain_rejects_fewer_than_one_step(mesh):
    fine, pm = msh.refine_uniform(mesh)
    with pytest.raises(ValueError, match="n_steps"):
        bench.gain(smooth_prim_field, mesh, fine, pm, solver.StepConfig(co=CO),
                   mlcorr.zero_params(), 0, record_every=10)


def _cons_flux(w, n, gas):
    """f(w) . n of conservative states (M, 4), written out from w alone."""
    rho, mx, my, e = w.T
    vx, vy = mx / rho, my / rho
    p = (gas.gamma - 1.0) * (e - 0.5 * (mx * vx + my * vy))
    vn = vx * n[:, 0] + vy * n[:, 1]
    return np.column_stack([rho * vn, mx * vn + p * n[:, 0], my * vn + p * n[:, 1],
                            (e + p) * vn])


def _cons_wave_speed(w, n, gas):
    """|v.n| + c of conservative states (M, 4), written out from w alone."""
    rho, mx, my, e = w.T
    p = (gas.gamma - 1.0) * (e - 0.5 * (mx * mx + my * my) / rho)
    return np.abs((mx * n[:, 0] + my * n[:, 1]) / rho) + np.sqrt(gas.gamma * p / rho)


def _cons_rusanov(w_l, w_r, n, gas):
    """Toro, Riemann Solvers, ch. 10: F = (f_l + f_r)/2 - s (w_r - w_l)/2 on
    conservative states (M, 4): the flux the step applied before it took
    primitive face states.  Returns (flux (M, 4), s)."""
    s = np.maximum(_cons_wave_speed(w_l, n, gas), _cons_wave_speed(w_r, n, gas))
    return (0.5 * (_cons_flux(w_l, n, gas) + _cons_flux(w_r, n, gas))
            - 0.5 * s[:, None] * (w_r - w_l)), s


def test_rusanov_flux_matches_the_textbook_formula(rng, gas):
    u_l = random_admissible_prim(rng, 50)
    u_r = random_admissible_prim(rng, 50)
    w_l, w_r = prim_to_cons(u_l, gas), prim_to_cons(u_r, gas)
    theta = rng.uniform(0.0, 2 * np.pi, 50)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    expect, s_cons = _cons_rusanov(w_l, w_r, n, gas)
    flux, s_out = solver.rusanov_flux(np.stack([u_l.T, u_r.T], axis=1), n.T, gas)
    assert (s_out == np.maximum(*(max_wave_speed(u, normal_velocity(u, n), gas)
                                  for u in (u_l, u_r)))).all()
    np.testing.assert_allclose(s_out, s_cons, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(flux.T, expect, rtol=1e-14, atol=1e-14)
    # consistency: equal states give the physical flux
    same, _ = solver.rusanov_flux(np.stack([u_l.T, u_l.T], axis=1), n.T, gas)
    np.testing.assert_allclose(same.T, _cons_flux(w_l, n, gas), rtol=1e-14, atol=1e-14)


_positive = st.floats(1e-2, 1e2)
_velocity = st.floats(-50.0, 50.0)
_face = st.tuples(_positive, _velocity, _velocity, _positive, st.floats(0.0, 2 * np.pi))


@settings(max_examples=200, deadline=None)
@given(faces=st.lists(_face, min_size=1, max_size=8))
def test_rusanov_flux_of_equal_states_is_the_physical_flux_bitwise(faces):
    """Consistency, F(w, w) . n = f(w) . n, for admissible states and unit normals."""
    gas = GasModel()
    arr = np.array(faces)
    u = arr[:, :4]
    n = np.column_stack([np.cos(arr[:, 4]), np.sin(arr[:, 4])])
    flux, _ = solver.rusanov_flux(np.stack([u.T, u.T], axis=1), np.ascontiguousarray(n.T), gas)
    assert (flux.T == physical_flux(u, prim_to_cons(u, gas), n, normal_velocity(u, n))).all()


def _op_by_op_rusanov(u_l, u_r, n, gas):
    """The Rusanov flux with every operation recorded on the tape, as the
    solver recorded it before the flux became one node: the oracle of that
    node's adjoints."""
    ul, ur, nt = ad.transpose(u_l), ad.transpose(u_r), ad.transpose(n)
    wl, wr = prim_to_cons(ul, gas), prim_to_cons(ur, gas)
    vl, vr = normal_velocity(ul, nt), normal_velocity(ur, nt)
    f_l = ad.transpose(physical_flux(ul, wl, nt, vl))
    f_r = ad.transpose(physical_flux(ur, wr, nt, vr))
    s = ad.maximum(max_wave_speed(ul, vl, gas), max_wave_speed(ur, vr, gas))
    return 0.5 * (f_l + f_r) - 0.5 * s * (ad.transpose(wr) - ad.transpose(wl))


def _flux_node(u_l, u_r, n, gas):
    return solver.rusanov_flux(ad.stack([u_l, u_r], axis=1), n, gas)[0]


# one face: left state, right state, normal angle and how the right state is
# tied to the left: "free"; "tie", the left state with rho and p scaled by 2^j,
# so both wave speeds are equal bitwise; "still", both at rest, so v.n = 0
_flux_face = st.tuples(_face, _face, st.sampled_from(["free", "tie", "still"]),
                       st.integers(-3, 3))
# ghost faces: the right state is the ghost of the left one, on the tape
_GHOSTS = [None, msh.SLIP_WALL, msh.SUPERSONIC_OUT, msh.SUBSONIC_OUT]


@settings(max_examples=150, deadline=None)
@given(faces=st.lists(_flux_face, min_size=1, max_size=6), ghost=st.sampled_from(_GHOSTS),
       back=st.floats(0.5, 2.0), seed=st.integers(0, 2**31))
# Mach 2,000 into a subsonic outflow ghost, whose Jacobian carries 1/c^2
@example(faces=[((47.0, 41.4375, 0.0, 0.015625, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0), "free", 0)],
         ghost=msh.SUBSONIC_OUT, back=1.902, seed=0)
def test_the_flux_node_matches_the_op_by_op_flux_and_central_differences(
        faces, ghost, back, seed):
    """The traced flux is one node whose adjoints are hand-derived Jacobians.
    Its value equals the op-by-op flux's bitwise.  Its adjoints of both face
    states equal the op-by-op flux's to 1e-13 of each face's largest entry.
    The gradient of a ghost face's interior state sums the left state's
    adjoint and the ghost Jacobian's transpose times the right state's: it
    equals the op-by-op one within those two bounds carried through that
    sum, |J|^T included (a subsonic outflow ghost's J carries 1/c^2).  Away
    from the kinks of max and |v.n|, each face's gradient equals central
    differences to 1e-6."""
    gas = GasModel()
    rows_l, rows_r = [], []
    for (left, right, kind, j) in faces:
        u_l = np.array(left[:4])
        u_r = np.array(right[:4])
        if kind == "tie":
            u_r = u_l * [2.0 ** j, 1.0, 1.0, 2.0 ** j]
        elif kind == "still":
            u_l[1:3] = u_r[1:3] = 0.0
        rows_l.append(u_l)
        rows_r.append(u_r)
    u_l, u_r = np.array(rows_l).T.copy(), np.array(rows_r).T.copy()
    theta = np.array([left[4] for left, *_ in faces])
    n = np.array([np.cos(theta), np.sin(theta)])
    g = np.random.default_rng(seed).normal(size=u_l.shape)

    def ghost_of(ul, face=slice(None)):
        """Ghost states of the interior states ul of the given faces."""
        spec = bclib.BCSpec(kind=ghost, back_pressure=back * u_l[3, face])
        return ad.transpose(bclib.ghost_state(spec, ad.transpose(ul), n[:, face].T, gas)[0])

    if ghost is not None:
        u_r = ghost_of(u_l)

    def gradients(flux, through_ghost):
        tape = ad.Tape()
        leaves = [tape.var(u_l)] if through_ghost else [tape.var(u_l), tape.var(u_r)]
        out = ad.sum(g * flux(leaves[0], ghost_of(leaves[0]) if through_ghost
                              else leaves[1], n, gas))
        tape.backward([(out, np.array(1.0))])
        return out.value, [x.grad for x in leaves]

    def ghost_jacobian_row(k):
        """d ghost[k] / d u_l (4, F): row k of each face's ghost Jacobian."""
        tape = ad.Tape()
        x = tape.var(u_l)
        tape.backward([(ad.sum(np.eye(4)[:, k:k + 1] * ghost_of(x)), np.array(1.0))])
        return x.grad

    (value, node), (expect, oracle) = (gradients(f, False)
                                       for f in (_flux_node, _op_by_op_rusanov))
    assert value == expect
    for got, want in zip(node, oracle):
        assert (np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0)).all()
    scale = np.maximum(*(np.abs(x).max(axis=0) for x in oracle))
    if ghost is not None:
        # the ghost path sums the direct adjoint and the ghost Jacobian's
        # transpose times the right state's adjoint: each within its bound
        # above, so the sum within those bounds carried through the sum
        tol_a, tol_b = (1e-13 * np.abs(x).max(axis=0) for x in oracle)
        bound = tol_a + tol_b * sum(np.abs(ghost_jacobian_row(k)) for k in range(4))
        (value, node), (expect, oracle) = (gradients(f, True)
                                           for f in (_flux_node, _op_by_op_rusanov))
        assert value == expect
        scale = np.maximum(scale, np.abs(oracle[0]).max(axis=0))
        assert (np.abs(node[0] - oracle[0]) <= bound).all()

    # central differences, face by face, on the faces away from the kinks
    vn = np.array([normal_velocity(u.T, n.T) for u in (u_l, u_r)])
    a_l, a_r = (max_wave_speed(u.T, v, gas) for u, v in zip((u_l, u_r), vn))
    s = np.maximum(a_l, a_r)
    smooth = (np.abs(vn) > 1e-4 * s).all(axis=0)
    if ghost != msh.SLIP_WALL:   # there a_r(u_l) = a_l(u_l): s is smooth at the tie
        smooth &= np.abs(a_l - a_r) > 1e-4 * s
    for f in np.flatnonzero(smooth):
        face = [f]

        def face_loss(ul, ur):
            ur = ur if ghost is None else ghost_of(ul, face)
            return float(np.sum(g[:, face] * _flux_node(ul, ur, n[:, face], gas)))

        fds = [finite_diff_grad(lambda x: face_loss(x, u_r[:, face]), u_l[:, face]),
               finite_diff_grad(lambda x: face_loss(u_l[:, face], x), u_r[:, face])]
        for got, fd in zip(node, fds):
            assert np.abs(got[:, face] - fd).max() <= 1e-6 * max(np.abs(fd).max(), scale[f])


@pytest.mark.parametrize("family", train.FAMILIES)
@pytest.mark.parametrize("draw", range(3))
def test_every_initial_condition_family_marches(family, draw, gas):
    mesh = msh.periodic_structured_mesh(12)
    ic = train.draw_ic_params(family, np.random.default_rng(draw))
    w0 = prim_to_cons(train.evaluate_ic(family, ic, mesh.centroid), gas)
    cfg = solver.StepConfig(co=0.03, gradient="lsq")
    for _, w, _ in solver.march(mesh, w0, solver.compute_dt(mesh, cfg), 20, cfg, {}):
        pass
    u = cons_to_prim(w, gas)
    assert np.isfinite(u).all() and (u[:, 0] > 0).all() and (u[:, 3] > 0).all()


def test_write_csv_formats_numpy_and_python_numbers(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(np.int64(3), np.float64(0.1), 1 / 3, "lsq"), (7, -0.0, np.float64(2.5e-17), 4)]
    solver.write_csv(path, ("step", "a", "b", "mode"), rows, header_comment="config abc")
    assert path.read_text() == ("# config abc\nstep,a,b,mode\n"
                                "3,0.1,0.3333333333333333,lsq\n7,-0.0,2.5e-17,4\n")
    solver.write_csv(path, ("x",), [])
    assert path.read_text() == "x\n"


@pytest.mark.parametrize("cut", [2, 10, 29, -1], ids=["magic", "header", "data", "last_byte"])
def test_a_truncated_frame_file_raises_a_solver_error(tmp_path, rng, cut):
    """cut: bytes of the second frame left (or, negative, bytes dropped from
    the end); the first frame is 4 + 20 + 96 bytes long."""
    frames = rng.normal(size=(2, 3, 4))
    path = tmp_path / "frames.bin"
    solver.write_frames(path, [0.0, 0.5], frames)
    times, back = solver.read_frames(path)
    assert times == [0.0, 0.5] and np.array_equal(np.stack(back), frames)
    raw = path.read_bytes()
    path.write_bytes(raw[:120 + cut] if cut >= 0 else raw[:cut])
    with pytest.raises(solver.SolverError):
        solver.read_frames(path)


def _digest_meshes():
    return {"periodic_irregular_8": (msh.periodic_irregular_mesh(8, seed=3), {}),
            "forward_step_0.2": bench.forward_step_mesh(0.2)}


def test_irregular_cells_are_qhulls_renumbered(gas, seeded_params):
    """The in-package triangulation gives Qhull's triangles in another order
    and with another first vertex: matched by node triple, the cells' areas
    and centroids agree to 1e-15 and every mode's state after 1 and 5 steps
    to 1e-14 of each cell's largest |w|.  Not bitwise, because a triangle's
    first vertex sets the order of its centroid's sum."""
    delaunay = pytest.importorskip("scipy.spatial").Delaunay
    m = msh.periodic_irregular_mesh(8, seed=3)
    q = msh.build_mesh(m.nodes, delaunay(m.nodes).simplices, msh.BoundarySpec.periodic_box())
    cell_of = {tuple(sorted(t)): i for i, t in enumerate(q.tri.tolist())}
    match = np.array([cell_of[tuple(sorted(t))] for t in m.tri.tolist()])
    assert np.array_equal(np.sort(match), np.arange(q.n_cells))
    assert np.abs(m.area - q.area[match]).max() <= 1e-15 * m.area.max()
    assert np.abs(m.centroid - q.centroid[match]).max() <= 1e-15 * np.abs(m.centroid).max()
    for mode in solver.GRADIENT_MODES:
        cfg = solver.StepConfig(co=CO, gradient=mode)
        params = seeded_params if cfg.uses_network else None
        states = []
        for mesh in (m, q):
            w0 = prim_to_cons(bench.riemann_case(6).evaluate(mesh.centroid), gas)
            dt = solver.compute_dt(mesh, cfg)
            w1, _ = solver.step_explicit_euler(mesh, w0, dt, cfg, {}, params)
            for _, w5, _ in solver.march(mesh, w0, dt, 5, cfg, {}, params):
                pass
            states.append((w1, w5))
        for w, w_q in zip(*states):
            dev = np.abs(w - w_q[match]).max(axis=1) / np.abs(w).max(axis=1)
            assert dev.max() <= 1e-14, (mode, dev.max())


# sha256 prefixes of the plain modes' outputs, recorded when the flux moved to
# primitive face states and the residual to per-slot sums (the deviation from
# the earlier face-order form is bounded in
# test_step_matches_the_conservative_flux_and_face_scatter_oracle): one step,
# and the state after a 5-step march.  The periodic_irregular_8 entries here
# and in STEP_DIGESTS were re-recorded when irregular meshes moved from Qhull
# to Lawson flips, which renumbers their cells; per matched cell the states
# moved by at most 4e-16 (7.2e-15 for thin lsq after 5 steps) of the cell's
# largest |w| (test_irregular_cells_are_qhulls_renumbered)
PLAIN_STEP_DIGESTS = {
    ("periodic_irregular_8", "lsq"): ("c199075cee93fa76", "b5823bd857e48a5d"),
    ("periodic_irregular_8", "gg"): ("bcb48c59526d3584", "2abf691becdde5a8"),
    ("forward_step_0.2", "lsq"): ("1d60d159be86b694", "1dc8fdd93b04838c"),
    ("forward_step_0.2", "gg"): ("d1c6d03f84f84614", "2b6456dcebd6d709"),
}


def test_plain_step_digests(gas, monkeypatch):
    """The digests hold with every step in one, two or three blocks."""
    for name, (m, bc_table) in _digest_meshes().items():
        w0 = prim_to_cons(bench.riemann_case(6).evaluate(m.centroid), gas)
        for mode, k in itertools.product(("lsq", "gg"), (1, 2, 3)):
            _split_steps_into(monkeypatch, k)
            cfg = solver.StepConfig(co=CO, gradient=mode)
            dt = solver.compute_dt(m, cfg)
            w1, _ = solver.step_explicit_euler(m, w0, dt, cfg, bc_table)
            for _, w5, _ in solver.march(m, w0, dt, 5, cfg, bc_table):
                pass
            assert w1.shape == w5.shape == (m.n_cells, 4)
            assert (digest(w1), digest(w5)) == PLAIN_STEP_DIGESTS[(name, mode)], (name, mode, k)


def _thin_state(m):
    """Riemann case 6 with its density scaled by 1e-2 below x + y = 0.6: the
    jump makes MUSCL overshoot to negative face densities."""
    u = bench.riemann_case(6).evaluate(m.centroid).copy()
    x, y = m.centroid.T
    u[:, 0] *= np.where(x + y < 0.6, 1e-2, 1.0)
    return u


# sha256 prefixes of one step and the state after a 5-step march, recorded
# with PLAIN_STEP_DIGESTS: the corrected modes (seeded parameters) on
# Riemann case 6, and every mode on the thin state
STEP_DIGESTS = {
    ("periodic_irregular_8", "riemann_6", "ml_lsq"): ("bf3c48010ec9b972", "7c81917f81951a8c"),
    ("periodic_irregular_8", "riemann_6", "ml_gg"): ("d33a641937593865", "32e7c15b0bfab19d"),
    ("forward_step_0.2", "riemann_6", "ml_lsq"): ("a1d6bbba6cd8cc03", "996d081df8a406a5"),
    ("forward_step_0.2", "riemann_6", "ml_gg"): ("cc2001019b63b03c", "d2f1ae95db3bcc58"),
    ("periodic_irregular_8", "thin", "gg"): ("b7895a740e095025", "26f40aca09c2c628"),
    ("periodic_irregular_8", "thin", "lsq"): ("735c56eb9c8dd9af", "c1871525c2ed833e"),
    ("periodic_irregular_8", "thin", "ml_gg"): ("d7c37204a2411e29", "24f97308cafd1408"),
    ("periodic_irregular_8", "thin", "ml_lsq"): ("d818385e25f159af", "bcdfd2428680c277"),
    ("forward_step_0.2", "thin", "gg"): ("44bdc89a73241728", "ab20c2760043e9de"),
    ("forward_step_0.2", "thin", "lsq"): ("373a85582f6b6e9c", "c3799528fad36d0b"),
    ("forward_step_0.2", "thin", "ml_gg"): ("6c3ef477aade0849", "07f4bca546adebb7"),
    ("forward_step_0.2", "thin", "ml_lsq"): ("b1b9d7583d3d4021", "7dff273bdd9cc265"),
}


@pytest.mark.parametrize("state,modes", [("riemann_6", ("ml_lsq", "ml_gg")),
                                         ("thin", solver.GRADIENT_MODES)])
def test_step_digests(gas, seeded_params, state, modes, monkeypatch):
    """The digests hold with every step in one, two or three blocks."""
    for name, (m, bc_table) in _digest_meshes().items():
        u0 = bench.riemann_case(6).evaluate(m.centroid) if state == "riemann_6" else _thin_state(m)
        w0 = prim_to_cons(u0, gas)
        for mode, k in itertools.product(modes, (1, 2, 3)):
            _split_steps_into(monkeypatch, k)
            cfg = solver.StepConfig(co=CO, gradient=mode)
            params = seeded_params if cfg.uses_network else None
            dt = solver.compute_dt(m, cfg)
            w1, diag = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, params)
            for _, w5, _ in solver.march(m, w0, dt, 5, cfg, bc_table, params):
                pass
            if state == "thin":
                assert diag["fallback_cells"] > 0, (name, mode, k)
            key = (name, state, mode)
            assert (digest(w1), digest(w5)) == STEP_DIGESTS[key], (key, k)


def _face_scatter_residual(mesh, w, cfg, bc_table, params):
    """The residual as the step formed it before the flux took primitive face
    states: the same stages, then ``_cons_rusanov`` on the conservative face
    states, and each face's flux times its length added to its left cell and
    subtracted from its right cell in face order.  w and R are (4, N)."""
    gas = cfg.gas
    u = cons_to_prim(w.T, gas).T
    ghosts, _ = bclib.extend_with_ghosts(mesh, u, bc_table, gas)
    u_nb = recon.neighbor_values(mesh, u, ghosts)
    du = recon.neighbor_deltas(mesh, u, u_nb)
    alpha = mlcorr.masked_alpha(mesh, params, du) if cfg.uses_network else None
    if cfg.gradient.endswith("gg"):
        grad = recon.gradient_gg(mesh, u, u_nb, alpha=alpha)
    else:
        grad = recon.gradient_lsq(mesh, du, alpha=alpha)
    delta = recon.face_increments(mesh, grad)
    phi = recon.venkat_limiter(mesh.cell_blocks(1)[0], u, u_nb, delta, cfg.limiter_k)
    slots, _ = recon.slot_states(mesh, u, delta, phi)
    u_l, u_r = recon.muscl_face_values(mesh, slots, ghosts).transpose(1, 0, 2)
    flux, _ = _cons_rusanov(prim_to_cons(u_l.T, gas), prim_to_cons(u_r.T, gas),
                            mesh.f_normal, gas)
    contrib = flux.T * mesh_geometry(mesh).f_len
    r = np.zeros((4, mesh.n_cells))
    np.add.at(r.T, mesh.f_left, contrib.T)
    np.add.at(r.T, mesh.f_right[:mesh.n_iface], -contrib[:, :mesh.n_iface].T)
    return r


@pytest.mark.parametrize("state", ["riemann_6", "thin"])
def test_step_matches_the_conservative_flux_and_face_scatter_oracle(gas, seeded_params, state):
    """One step of every mode, the corrected ones with zero and with seeded
    parameters, agrees with the face-order oracle to 4 ulp of max |w|: the
    flux's arithmetic and the order of each cell's three-term sum moved."""
    worst = 0.0
    for name, (m, bc_table) in _digest_meshes().items():
        u0 = bench.riemann_case(6).evaluate(m.centroid) if state == "riemann_6" else _thin_state(m)
        w0 = prim_to_cons(u0, gas)
        runs = [(mode, None) for mode in ("lsq", "gg")] + [
            (mode, params) for mode in ("ml_lsq", "ml_gg")
            for params in (mlcorr.zero_params(), seeded_params)]
        for mode, params in runs:
            cfg = solver.StepConfig(co=CO, gradient=mode)
            dt = solver.compute_dt(m, cfg)
            w1, _ = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, params)
            r = _face_scatter_residual(m, w0.T, cfg, bc_table, params)
            expect = (w0.T - (dt / m.area) * r).T
            dev = np.abs(w1 - expect).max() / np.spacing(np.abs(expect).max())
            assert dev <= 4.0, (name, mode, dev)
            worst = max(worst, dev)
    assert worst > 0.0     # the oracle is not the step itself


_IN_OUT_WALLS = msh.BoundarySpec(rules=[
    (msh.SUBSONIC_IN, 0, lambda mid, n: n[0] < -0.5),
    (msh.SUBSONIC_OUT, 0, lambda mid, n: n[0] > 0.5),
    (msh.SLIP_WALL, 0, lambda mid, n: True),
])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 7), mesh_seed=st.integers(0, 2 ** 16),
       state_seed=st.integers(0, 2 ** 16), periodic=st.booleans())
def test_residual_sums_to_the_boundary_flux(seeded_params, n, mesh_seed, state_seed, periodic):
    """Discrete conservation: every interior face adds its flux to one cell and
    takes it from the other, so sum_i R_i is 0 on a periodic mesh and the
    boundary faces' flux sum on a bounded one, to 1e-12 of sum |flux * len|.
    Random irregular meshes, random admissible states, all four modes."""
    spec = msh.BoundarySpec.periodic_box() if periodic else _IN_OUT_WALLS
    m = msh.irregular_mesh(n, seed=mesh_seed, boundary_spec=spec)
    rng = np.random.default_rng(state_seed)
    w = prim_to_cons(random_admissible_prim(rng, m.n_cells), GasModel())
    bc_table = bclib.table_from_ic(m, lambda pts: random_admissible_prim(rng, len(pts)))
    assert bool(bc_table) != periodic
    real = solver.rusanov_flux
    for mode in solver.GRADIENT_MODES:
        cfg = solver.StepConfig(gradient=mode)
        fluxes = []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            fluxes.append(out[0])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "rusanov_flux", spy)
            r, _ = solver.residual(m, np.ascontiguousarray(w.T), cfg, bc_table,
                                   seeded_params if cfg.uses_network else None)
        flux_len = fluxes[0] * mesh_geometry(m).f_len
        boundary = flux_len[:, m.n_iface:].sum(axis=1)
        scale = np.abs(flux_len).sum(axis=1)
        assert (np.abs(r.sum(axis=1) - boundary) <= 1e-12 * scale).all(), mode


def _has_mallopt():
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


# Python-level calls (``call`` and ``c_call`` profile events) of one warm
# untraced step on periodic_structured_mesh(6), where the arrays are nearly
# empty and a step's cost is its calls.  Each budget is the count at which
# the step's primitives were cut to fewer, larger numpy calls, plus 10%;
# before that cut the step made 548 (lsq), 555 (gg), 754 (ml_lsq) and 767
# (ml_gg) calls (numpy 2.4, CPython 3.11).
STEP_CALL_BUDGET = {"lsq": 242, "gg": 245, "ml_lsq": 340, "ml_gg": 349}


def _step_calls(mode, params):
    mesh = msh.periodic_structured_mesh(6)
    w = prim_to_cons(smooth_prim_field(mesh.centroid), GasModel())
    cfg = solver.StepConfig(gradient=mode)
    dt = solver.compute_dt(mesh, cfg)
    params = params if cfg.uses_network else None
    for _ in range(3):
        solver.step_explicit_euler(mesh, w, dt, cfg, {}, params)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        solver.step_explicit_euler(mesh, w, dt, cfg, {}, params)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_an_untraced_step_makes_few_python_level_calls(mode, seeded_params):
    calls = _step_calls(mode, seeded_params)
    assert calls <= STEP_CALL_BUDGET[mode], calls


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt to pin the heap with")
@pytest.mark.parametrize("mode", ["lsq", "ml_lsq"])
def test_steps_take_no_page_faults_after_warm_up(mode):
    """One mode alone, as ``fvgrad simulate`` runs it: with glibc's mmap and
    trim thresholds pinned on import, the step's temporaries reuse the
    heap's freed blocks instead of mapping fresh pages.

    The steps run in a fresh interpreter.  A fork write-protects every page
    of the forking process, so after a test has trained (training forks)
    the process's steps fault again for a while, whatever ran before."""
    out = _in_a_fresh_interpreter(
        "import sys, test_solver; print(*test_solver._faults_after_warm_up(sys.argv[1]))",
        mode)
    assert out.split() == ["0", "0"]


def _in_a_fresh_interpreter(code, *args, **env):
    """Standard output of ``python -c code *args`` with the tests and the
    package importable and ``env`` added to the environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent), str(Path(solver.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _faults_after_warm_up(mode):
    """Minor faults of 5 steps after warm-up, on a one-block mesh and on a
    two-block mesh.  The second block runs on a pool thread with its own
    malloc arena.  The two threads' allocations interleave differently in
    every run, so their heaps reach their high-water marks at a varying
    step, and OpenBLAS touches a second buffer the first time the threads
    multiply at the same moment.  So the two-block mesh warms up with
    ``_touch_heaps_and_blas_buffers`` and 30 steps."""
    gas = GasModel()
    cfg = solver.StepConfig(gradient=mode)
    params = seeded_network_params() if cfg.uses_network else None

    def faults_after(m, warm_up):
        w = prim_to_cons(smooth_prim_field(m.centroid), gas)
        dt = solver.compute_dt(m, cfg)
        for _ in range(warm_up):
            solver.step_explicit_euler(m, w, dt, cfg, {}, params)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            solver.step_explicit_euler(m, w, dt, cfg, {}, params)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    m = msh.periodic_irregular_mesh(50)
    assert 4500 < m.n_cells < 5500
    assert solver.step_workers(m.n_cells) == 1
    one_block = faults_after(m, 3)
    m = msh.periodic_irregular_mesh(int(np.ceil(np.sqrt(solver.MIN_BLOCK_CELLS))))
    assert solver.step_workers(m.n_cells) == min(2, solver._cpus())
    _touch_heaps_and_blas_buffers()
    return one_block, faults_after(m, 30)


def _touch_heaps_and_blas_buffers():
    """On the caller and on a pool thread at once: touch 16 MiB past each
    thread's heap top, freed again (it stays mapped under the pinned trim
    threshold), and fill one OpenBLAS buffer each with a product larger
    than any of the step's."""
    def task(_):
        a = np.ones((64, 64))
        b = np.ones((64, 32768))                        # 16 MiB
        for _ in range(5):
            a @ b
    solver._run_tasks(task, 2)

# ---------------------------------------------------------------------------
# the per-cell and per-face stages in blocks
# ---------------------------------------------------------------------------

def _split_steps_into(monkeypatch, k):
    """Every untraced step runs in k blocks, whatever the mesh and the CPU
    count; the pool keeps its size, so more blocks than workers queue."""
    monkeypatch.setattr(solver, "step_workers", lambda n_cells: k)


@pytest.fixture
def short_switch_interval():
    """Switch threads as often as the interpreter can, to shake out races."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.fixture(scope="module")
def block_cases():
    """(name, mesh, bc table, primitive state, limiter constant K).  On the
    thin state a wide limiter (K = 50) lets MUSCL overshoot, so cells fall
    back to first order."""
    n = int(np.ceil(np.sqrt(solver.MIN_BLOCK_CELLS)))
    periodic = msh.periodic_irregular_mesh(n)
    assert periodic.n_cells >= 2 * solver.MIN_BLOCK_CELLS      # multi-block as it stands
    step, step_bc = bench.forward_step_mesh(0.02)
    return [
        ("periodic", periodic, {}, bench.riemann_case(6).evaluate(periodic.centroid), 5.0),
        ("forward_step", step, step_bc, bench.riemann_case(6).evaluate(step.centroid), 5.0),
        ("thin", periodic, {}, _thin_state(periodic), 50.0),
    ]


def test_a_step_in_one_two_or_three_blocks_is_bitwise_the_same(
        gas, seeded_params, block_cases, monkeypatch, short_switch_interval):
    """Every stage run in blocks reads only its own cells or faces, so the
    split changes neither the frame nor any diagnostic."""
    runs = [(mode, None) for mode in ("lsq", "gg")]
    runs += [(mode, p) for mode in ("ml_lsq", "ml_gg")
             for p in (mlcorr.zero_params(), seeded_params)]
    for name, m, bc_table, u0, limiter_k in block_cases:
        w0 = prim_to_cons(u0, gas)
        for mode, params in runs:
            cfg = solver.StepConfig(gradient=mode, limiter_k=limiter_k)
            dt = solver.compute_dt(m, cfg)
            out = []
            for k in (1, 2, 3):
                _split_steps_into(monkeypatch, k)
                w1, diag = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, params)
                out.append((w1.tobytes(), diag))
            assert out[1] == out[0] and out[2] == out[0], (name, mode)
            assert (out[0][1]["fallback_cells"] > 0) == (name == "thin"), (name, mode)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_alpha_does_not_depend_on_where_the_blocks_are_cut(blas_threads):
    """The network's alpha in k = 2..7 blocks is bitwise its alpha in one
    block, on the 10k- and 20k-cell periodic irregular meshes and the
    12.6k-cell forward step.  OpenBLAS can round a cell's column of a matrix
    product differently near the end of the matrix, so blocks are cut at
    multiples of ``mesh.BLOCK_ALIGN`` cells.  Run in a fresh interpreter,
    since OpenBLAS fixes its thread count when numpy loads it."""
    out = _in_a_fresh_interpreter(
        "import test_solver; print(test_solver._alpha_split_differences())",
        OPENBLAS_NUM_THREADS=blas_threads)
    assert out.strip() == "[]"


def _alpha_split_differences():
    """(mesh, k, entries of alpha in k blocks that differ from one block)
    for every split that differs."""
    params = seeded_network_params()
    out = []
    for name, (m, bc_table) in [("periodic_71", (msh.periodic_irregular_mesh(71), {})),
                                ("periodic_100", (msh.periodic_irregular_mesh(100), {})),
                                ("forward_step", bench.forward_step_mesh(0.02))]:
        u = np.ascontiguousarray(bench.riemann_case(6).evaluate(m.centroid).T)
        ghosts, _ = bclib.extend_with_ghosts(m, u, bc_table, GasModel())
        du = recon.neighbor_deltas(m, u, recon.neighbor_values(m, u, ghosts))
        whole = mlcorr.masked_alpha(m, params, du)
        for k in range(2, 8):
            split = np.concatenate([mlcorr.masked_alpha(b, params, du[..., b.cells])
                                    for b in m.cell_blocks(k)], axis=-1)
            if (split != whole).any():
                out.append((name, k, int((split != whole).sum())))
    return out


def test_a_traced_step_runs_as_one_block(mesh, w0, seeded_params, monkeypatch):
    """A tape records in order, so a traced step never reaches the pool."""
    _split_steps_into(monkeypatch, 3)
    cfg = solver.StepConfig(co=CO, gradient="ml_lsq")
    dt = solver.compute_dt(mesh, cfg)
    ran = []
    real = solver._run_tasks
    monkeypatch.setattr(solver, "_run_tasks", lambda task, k: ran.append(k) or real(task, k))

    def loss(p_vec):
        w1, _ = solver.step_explicit_euler(mesh, w0, dt, cfg, {},
                                           seeded_params.with_values(p_vec))
        return ad.sum(w1 * w1)

    ad.record_and_backprop(loss, seeded_params.values)
    assert ran == []
    solver.step_explicit_euler(mesh, w0, dt, cfg, {}, seeded_params)
    assert ran == [3, 3, 3]      # the slot states, the faces, the update


def test_a_rejected_update_in_a_later_block_names_the_one_block_cell_and_step(gas, monkeypatch):
    """The first rejected cell in cell order is named, with its step, in one,
    two or three blocks: cell 400 lies in the second block at k = 2 and 3,
    and cell 700 in the last, whose error the earlier block's beats."""
    m = msh.periodic_irregular_mesh(20)
    bad = _with_nan_areas(m, [400, 700])
    w0 = prim_to_cons(smooth_prim_field(m.centroid), gas)
    cfg = solver.StepConfig(gradient="lsq")
    dt = solver.compute_dt(m, cfg)
    for k in (1, 2, 3):
        _split_steps_into(monkeypatch, k)
        if k > 1:
            second = bad.cell_blocks(k)[1].cells
            assert second.start <= 400 < second.stop
        with pytest.raises(solver.SolverError) as err:
            solver.step_explicit_euler(bad, w0, dt, cfg, {}, step_index=7)
        assert (err.value.cell, err.value.step) == (400, 7), k


def test_an_inadmissible_state_in_a_later_block_raises_the_one_block_error(gas, monkeypatch):
    """A state whose density fails in the second block, and one whose
    internal energy fails in the first block and density in a later one:
    one block checks every density first, and so do two and three."""
    m = msh.periodic_irregular_mesh(20)
    w0 = prim_to_cons(smooth_prim_field(m.centroid), gas)
    rho_late = w0.copy()
    rho_late[400, 0] = 0.0
    energy_early = w0.copy()
    energy_early[100, 3] = 0.0
    energy_early[600, 0] = -1.0
    cfg = solver.StepConfig(gradient="lsq")
    dt = solver.compute_dt(m, cfg)
    for w in (rho_late, energy_early):
        outcomes = []
        for k in (1, 2, 3):
            _split_steps_into(monkeypatch, k)
            with pytest.raises(AdmissibilityError) as err:
                solver.step_explicit_euler(m, w, dt, cfg, {})
            outcomes.append((type(err.value), str(err.value)))
        assert outcomes == [(AdmissibilityError, "non-admissible state: rho not > 0")] * 3


def test_a_block_error_is_raised_once_every_block_has_returned():
    returned = []

    def task(b):
        time.sleep(0.05 * (3 - b))            # the last block returns first
        returned.append(b)
        if b:
            raise (KeyError, ValueError, TypeError)[b](f"block {b}")
        return b

    with pytest.raises(ValueError, match="block 1"):
        solver._run_tasks(task, 3)
    assert sorted(returned) == [0, 1, 2]


def test_the_caller_block_error_wins():
    returned = []

    def task(b):
        if b == 0:
            raise KeyError("block 0")
        time.sleep(0.05)
        returned.append(b)
        raise ValueError(f"block {b}")

    with pytest.raises(KeyError, match="block 0"):
        solver._run_tasks(task, 3)
    assert sorted(returned) == [1, 2]


@pytest.mark.parametrize("k", [2, 3])
def test_non_finite_parameters_raise_the_one_block_error_and_the_next_step_runs(
        gas, seeded_params, block_cases, monkeypatch, k):
    _, m, bc_table, u0, _ = block_cases[0]
    w0 = prim_to_cons(u0, gas)
    cfg = solver.StepConfig(gradient="ml_lsq")
    dt = solver.compute_dt(m, cfg)
    vals = seeded_params.values.copy()
    vals[0] = np.nan                                    # norm_scale
    bad = seeded_params.with_values(vals)
    outcomes = []
    for blocks in (1, k):
        _split_steps_into(monkeypatch, blocks)
        with pytest.raises(mlcorr.NetworkError) as err:
            solver.step_explicit_euler(m, w0, dt, cfg, bc_table, bad)
        outcomes.append((type(err.value), str(err.value)))
        w1, diag = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, seeded_params)
        outcomes.append((w1.tobytes(), diag))
    assert outcomes[2:] == outcomes[:2]


def test_a_forked_child_steps_in_blocks(gas, seeded_params, block_cases, monkeypatch):
    """The pool's threads do not survive a fork; the child builds its own."""
    _, m, bc_table, u0, _ = block_cases[0]
    w0 = prim_to_cons(u0, gas)
    cfg = solver.StepConfig(gradient="ml_lsq")
    dt = solver.compute_dt(m, cfg)
    _split_steps_into(monkeypatch, 2)
    w1, _ = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, seeded_params)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:                                        # the child
        code = 1
        try:
            w_child, _ = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, seeded_params)
            os.write(write, digest(w_child).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    with os.fdopen(read) as fh:
        got = fh.read()
    assert status[0] == pid, "the child's step did not finish within 60 s"
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert got == digest(w1)


def _inflow_outflow_mesh():
    """A box with per-face subsonic inflow states and back pressures, and
    slip walls."""
    m = msh.structured_mesh(5, boundary_spec=msh.BoundarySpec(rules=[
        (msh.SUBSONIC_IN, 0, lambda mid, n: mid[0] < 1e-9),
        (msh.SUBSONIC_OUT, 0, lambda mid, n: mid[0] > 1.0 - 1e-9),
        (msh.SLIP_WALL, 0, lambda mid, n: True)]))
    return m, bclib.table_from_ic(m, lambda p: smooth_prim_field(p) * (1.0 + 0.1 * p[:, :1]))


COPIES_MESHES = {
    "periodic_structured_6": lambda: (msh.periodic_structured_mesh(6), {}),
    "forward_step_0.2": lambda: bench.forward_step_mesh(0.2),
    "inflow_outflow_5": _inflow_outflow_mesh,
}


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
@pytest.mark.parametrize("name", sorted(COPIES_MESHES))
def test_a_step_on_copies_is_the_step_on_each_copy(name, mode, gas, seeded_params):
    """A step on 3 copies of 3 stacked states is the 3 steps, bitwise where
    the network's matrix products see whole blocks of 8 cells on each copy
    (OpenBLAS rounds a column tail apart, ``mesh.BLOCK_ALIGN``), else to
    1e-15; the diagnostics are the copies' sums and maximum."""
    m, bc_table = COPIES_MESHES[name]()
    cfg = solver.StepConfig(co=0.03, gradient=mode)
    params = seeded_params if cfg.uses_network else None
    dt = solver.compute_dt(m, cfg)
    rng = np.random.default_rng(2)
    w0 = [prim_to_cons(smooth_prim_field(m.centroid) * rng.uniform(0.9, 1.1, (m.n_cells, 4)),
                       gas) for _ in range(3)]
    steps = [solver.step_explicit_euler(m, w, dt, cfg, bc_table, params) for w in w0]
    w1, diag = solver.step_explicit_euler(m.copies(3), np.concatenate(w0), dt, cfg,
                                          bclib.tile_table(bc_table, 3), params)
    each = np.concatenate([w for w, _ in steps])
    if cfg.uses_network and m.n_cells % 8:
        assert np.abs(w1 - each).max() <= 1e-15 * np.abs(each).max()
    else:
        assert w1.tobytes() == each.tobytes()
    for key in ("bc_clamps", "fallback_cells"):
        assert diag[key] == sum(d[key] for _, d in steps)
    assert diag["max_wave_speed"] == max(d["max_wave_speed"] for _, d in steps)


@pytest.mark.parametrize("mode", solver.GRADIENT_MODES)
def test_conservation_on_each_periodic_copy(mesh, gas, seeded_params, mode):
    cfg = solver.StepConfig(co=CO, gradient=mode)
    copies = mesh.copies(3)
    w0 = np.concatenate([prim_to_cons(smooth_prim_field(mesh.centroid, amp), gas)
                         for amp in (0.1, 0.2, 0.3)])
    w = _final(copies, w0, cfg, seeded_params if cfg.uses_network else None)
    n = mesh.n_cells
    for c in range(3):
        cells = slice(c * n, (c + 1) * n)
        before = (mesh.area[:, None] * w0[cells]).sum(axis=0)
        after = (mesh.area[:, None] * w[cells]).sum(axis=0)
        scale = (mesh.area[:, None] * np.abs(w0[cells])).sum(axis=0)
        assert (np.abs(after - before) / scale).max() < 1e-12, c
