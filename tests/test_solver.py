import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvgrad import autodiff as ad
from fvgrad import bc as bclib
from fvgrad import bench, mlcorr, recon, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import (GasModel, cons_to_prim, max_wave_speed, physical_flux,
                          prim_to_cons)
from conftest import digest, random_admissible_prim, smooth_prim_field

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
    traced = list(solver.march(mesh, w_var, dt, 3, cfg, {}, params, params_vec=p))
    plain = list(solver.march(mesh, w0, dt, 3, cfg, {}, params))
    for (_, wt, _), (_, wp, _) in zip(traced, plain):
        assert isinstance(wt, ad.Var)
        assert (wt.value == wp).all()
    tape.backward([(ad.sum(traced[-1][1] * traced[-1][1]), np.array(1.0))])
    assert np.abs(w_var.grad).max() > 0
    if cfg.uses_network:
        assert p.grad is not None and np.abs(p.grad).max() > 0


def test_step_rejects_a_nan_update_naming_the_cell(mesh, w0, monkeypatch):
    real = solver.residual

    def nan_at_cell_5(*args, **kwargs):
        r, diag = real(*args, **kwargs)
        r = r.copy()
        r[2, 5] = np.nan
        return r, diag

    monkeypatch.setattr(solver, "residual", nan_at_cell_5)
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    with pytest.raises(solver.SolverError) as err:
        solver.step_explicit_euler(mesh, w0, solver.compute_dt(mesh, cfg), cfg, {})
    assert err.value.cell == 5


def test_max_wave_speed_diag_matches_face_oracle(mesh, w0):
    """diag["max_wave_speed"] is max over faces of max(|v.n| + c) of the two
    reconstructed face states, i.e. the wave speed the flux dissipates with."""
    gas = GasModel()
    cfg = solver.StepConfig(co=CO, gradient="lsq")
    _, diag = solver.residual(mesh, w0.T, cfg, {})
    u = cons_to_prim(w0, gas).T
    grad = recon.gradient_lsq(mesh, u)
    delta = recon.face_increments(mesh, grad)
    phi = recon.venkat_limiter(mesh, u, delta, cfg.limiter_k)
    u_l, u_r, _ = recon.muscl_face_values(mesh, u, delta, phi)
    s = np.maximum(max_wave_speed(prim_to_cons(u_l.T, gas), mesh.f_normal, gas),
                   max_wave_speed(prim_to_cons(u_r.T, gas), mesh.f_normal, gas))
    assert diag["max_wave_speed"] == float(s.max())


@pytest.mark.parametrize("mode", ["lsq", "gg"])
def test_residual_equals_its_stages_called_one_by_one(mesh, w0, mode):
    """The residual shares one neighbour gather between its stages; calling
    each stage on its own (the limiter gathers again) gives it bitwise."""
    gas = GasModel()
    rng = np.random.default_rng(4)
    w = prim_to_cons(cons_to_prim(w0, gas) * rng.uniform(0.8, 1.2, w0.shape), gas)
    cfg = solver.StepConfig(co=CO, gradient=mode, limiter_k=0.5)   # limiter active
    r, _ = solver.residual(mesh, w.T, cfg, {})
    r = r.T
    u = cons_to_prim(w, gas).T
    grad = recon.gradient_lsq(mesh, u) if mode == "lsq" else recon.gradient_gg(mesh, u)
    delta = recon.face_increments(mesh, grad)
    phi = recon.venkat_limiter(mesh, u, delta, cfg.limiter_k)
    assert (phi < 1.0).mean() > 0.2
    u_l, u_r, _ = recon.muscl_face_values(mesh, u, delta, phi)
    flux, _ = solver.rusanov_flux(prim_to_cons(u_l.T, gas).T, prim_to_cons(u_r.T, gas).T,
                                  mesh.f_normal.T, gas)
    contrib = flux.T * mesh.f_len[:, None]
    expect = np.zeros_like(r)
    for f, cell in enumerate(mesh.f_left):
        expect[cell] += contrib[f]
    for f, cell in enumerate(mesh.f_right[:mesh.n_iface]):
        expect[cell] -= contrib[f]
    assert (r == expect).all()


@pytest.mark.parametrize("gradient", ["lsq", "gg"])
def test_gain_is_zero_at_zero_params(mesh, gradient):
    fine, pm = msh.refine_uniform(mesh)
    rep = bench.run_gain(smooth_prim_field, mesh, fine, pm, mlcorr.zero_params(),
                         N_STEPS, co=CO, record_every=3, gradient=gradient)
    assert list(rep.steps) == [3, 6, 9, 10]
    assert (rep.l_coarse > 0).all()
    assert (rep.l_ml == rep.l_coarse).all()
    assert (rep.gain_pct == 0.0).all()


def test_l1_error_is_the_mean_over_cells_and_primitives():
    u = np.arange(12.0).reshape(3, 4)
    assert bench.l1_error(u, np.zeros((3, 4))) == bench.l1_error(np.zeros((3, 4)), u) == 5.5


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "subsonic_outflow"])
def test_reference_is_the_projected_fine_march(periodic, gas):
    case = bench.riemann_case(6)
    coarse = bench.riemann_mesh(6, periodic=periodic)
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
    return bench.error_cost_study(STUDY_CASES, STUDY_LEVELS, params=mlcorr.zero_params(),
                                  t_final=0.01, modes=("lsq", "ml_lsq", "gg"), repeats=2)


def test_study_rows_cover_every_level_case_and_mode(study):
    rows, _ = study
    assert all(len(row) == len(bench.STUDY_COLUMNS) for row in rows)
    assert [(row[0], row[1], row[3]) for row in rows] == [
        (mode, cid, 2 * n * n) for n in STUDY_LEVELS for cid in STUDY_CASES
        for mode in ("lsq", "ml_lsq", "gg")]
    assert all(row[4] > 0 and row[5] > 0 for row in rows)


def test_study_at_zero_params_gives_the_plain_errors_bitwise(study):
    rows, slopes = study
    errors = {mode: [row[5] for row in rows if row[0] == mode] for mode in slopes}
    assert errors["ml_lsq"] == errors["lsq"]
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
        bench.run_gain(smooth_prim_field, mesh, fine, pm, mlcorr.zero_params(), 0, co=CO)


def test_rusanov_flux_matches_the_textbook_formula(rng, gas):
    # Toro, Riemann Solvers, ch. 10: F = (F_l + F_r)/2 - s (w_r - w_l)/2
    w_l = prim_to_cons(random_admissible_prim(rng, 50), gas)
    w_r = prim_to_cons(random_admissible_prim(rng, 50), gas)
    theta = rng.uniform(0.0, 2 * np.pi, 50)
    n = np.column_stack([np.cos(theta), np.sin(theta)])
    s = np.maximum(max_wave_speed(w_l, n, gas), max_wave_speed(w_r, n, gas))
    expect = (0.5 * (physical_flux(w_l, n, gas) + physical_flux(w_r, n, gas))
              - 0.5 * s[:, None] * (w_r - w_l))
    flux, s_out = solver.rusanov_flux(w_l.T, w_r.T, n.T, gas)
    assert (s_out == s).all()
    np.testing.assert_allclose(flux.T, expect, rtol=1e-14, atol=1e-14)
    # consistency: equal states give the physical flux
    same, _ = solver.rusanov_flux(w_l.T, w_l.T, n.T, gas)
    np.testing.assert_allclose(same.T, physical_flux(w_l, n, gas), rtol=1e-14, atol=1e-14)


_positive = st.floats(1e-2, 1e2)
_velocity = st.floats(-50.0, 50.0)
_face = st.tuples(_positive, _velocity, _velocity, _positive, st.floats(0.0, 2 * np.pi))


@settings(max_examples=200, deadline=None)
@given(faces=st.lists(_face, min_size=1, max_size=8))
def test_rusanov_flux_of_equal_states_is_the_physical_flux_bitwise(faces):
    """Consistency, F(w, w) . n = f(w) . n, for admissible states and unit normals."""
    gas = GasModel()
    arr = np.array(faces)
    w = prim_to_cons(arr[:, :4], gas)
    n = np.column_stack([np.cos(arr[:, 4]), np.sin(arr[:, 4])])
    flux, _ = solver.rusanov_flux(np.ascontiguousarray(w.T), np.ascontiguousarray(w.T),
                                  np.ascontiguousarray(n.T), gas)
    assert (flux.T == physical_flux(w, n, gas)).all()


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


def _digest_meshes():
    return {"periodic_irregular_8": (msh.periodic_irregular_mesh(8, seed=3), {}),
            "forward_step_0.2": bench.forward_step_mesh(0.2)}


# sha256 prefixes of the plain modes' outputs, recorded before the step moved
# its cell axis last: one step, and the state after a 5-step march
PLAIN_STEP_DIGESTS = {
    ("periodic_irregular_8", "lsq"): ("00bbf90575d35bc5", "66e7c60bc034642c"),
    ("periodic_irregular_8", "gg"): ("c56f8da7c6a5bb29", "18eaccd9f9a8af7c"),
    ("forward_step_0.2", "lsq"): ("bb06ad9924335ca1", "54bc26756a8fe63b"),
    ("forward_step_0.2", "gg"): ("2b2ef380e37dc7e6", "a51bb634a6c65052"),
}


def test_plain_step_digests(gas):
    for name, (m, bc_table) in _digest_meshes().items():
        w0 = prim_to_cons(bench.riemann_case(6).evaluate(m.centroid), gas)
        for mode in ("lsq", "gg"):
            cfg = solver.StepConfig(co=CO, gradient=mode)
            dt = solver.compute_dt(m, cfg)
            w1, _ = solver.step_explicit_euler(m, w0, dt, cfg, bc_table)
            for _, w5, _ in solver.march(m, w0, dt, 5, cfg, bc_table):
                pass
            assert w1.shape == w5.shape == (m.n_cells, 4)
            assert (digest(w1), digest(w5)) == PLAIN_STEP_DIGESTS[(name, mode)], (name, mode)


def _thin_state(m):
    """Riemann case 6 with its density scaled by 1e-2 below x + y = 0.6: the
    jump makes MUSCL overshoot to negative face densities."""
    u = bench.riemann_case(6).evaluate(m.centroid).copy()
    x, y = m.centroid.T
    u[:, 0] *= np.where(x + y < 0.6, 1e-2, 1.0)
    return u


# sha256 prefixes of one step and the state after a 5-step march, recorded
# before MUSCL reused the limiter's face increments: the corrected modes
# (seeded parameters) on Riemann case 6, and every mode on the thin state
STEP_DIGESTS = {
    ("periodic_irregular_8", "riemann_6", "ml_lsq"): ("fecfdcf87dfc941d", "9e29719ad3f898b3"),
    ("periodic_irregular_8", "riemann_6", "ml_gg"): ("23f1c3d30f102dad", "e09b4672cf8e4983"),
    ("forward_step_0.2", "riemann_6", "ml_lsq"): ("d3f756d55be2b6ea", "0d47d46997fbfd7f"),
    ("forward_step_0.2", "riemann_6", "ml_gg"): ("2130508d5d2f92df", "64c3bc7be664f3dd"),
    ("periodic_irregular_8", "thin", "gg"): ("5122df2d038dc9b0", "3204863d7729057b"),
    ("periodic_irregular_8", "thin", "lsq"): ("6337a0630f512445", "038f02706a5f7a29"),
    ("periodic_irregular_8", "thin", "ml_gg"): ("ebc657607b7fd212", "27370bf163ec7132"),
    ("periodic_irregular_8", "thin", "ml_lsq"): ("a3452e93f6118f6c", "3f2c2c5c4df8ae16"),
    ("forward_step_0.2", "thin", "gg"): ("af1db3acefbc9320", "062926c8305705fd"),
    ("forward_step_0.2", "thin", "lsq"): ("c2871e831562c792", "8609cae3f6317a74"),
    ("forward_step_0.2", "thin", "ml_gg"): ("a55d59295ac7e537", "da833ff7fe94b8b1"),
    ("forward_step_0.2", "thin", "ml_lsq"): ("2a284c919f55a136", "1e87a481a1faec8e"),
}


@pytest.mark.parametrize("state,modes", [("riemann_6", ("ml_lsq", "ml_gg")),
                                         ("thin", solver.GRADIENT_MODES)])
def test_step_digests(gas, seeded_params, state, modes):
    for name, (m, bc_table) in _digest_meshes().items():
        u0 = bench.riemann_case(6).evaluate(m.centroid) if state == "riemann_6" else _thin_state(m)
        w0 = prim_to_cons(u0, gas)
        for mode in modes:
            cfg = solver.StepConfig(co=CO, gradient=mode)
            params = seeded_params if cfg.uses_network else None
            dt = solver.compute_dt(m, cfg)
            w1, diag = solver.step_explicit_euler(m, w0, dt, cfg, bc_table, params)
            for _, w5, _ in solver.march(m, w0, dt, 5, cfg, bc_table, params):
                pass
            if state == "thin":
                assert diag["fallback_cells"] > 0, (name, mode)
            key = (name, state, mode)
            assert (digest(w1), digest(w5)) == STEP_DIGESTS[key], key
