import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvgrad import euler
from fvgrad import mesh as msh
from fvgrad.euler import AdmissibilityError, GasModel
from conftest import random_admissible_prim


def test_rest_state_energy(gas):
    w = euler.prim_to_cons(np.array([1.0, 0.0, 0.0, 1.0]), gas)
    assert w[3] == pytest.approx(2.5, rel=1e-15)


def test_forward_step_state_energy(gas):
    # E = 1/0.4 + 0.5 * 1.4 * 9 = 8.8
    w = euler.prim_to_cons(np.array([1.4, 3.0, 0.0, 1.0]), gas)
    assert w[3] == pytest.approx(8.8, rel=1e-14)


def test_roundtrip_property(rng, gas):
    u = random_admissible_prim(rng, 10_000, lo=0.05, hi=5.0, vmax=4.0)
    w = euler.prim_to_cons(u, gas)
    back = euler.cons_to_prim(w, gas)
    err = np.abs(back - u) / np.maximum(np.abs(u), 1.0)
    assert err.max() < 1e-14


def test_conversion_rejects_non_admissible(gas):
    with pytest.raises(AdmissibilityError):
        euler.prim_to_cons(np.array([-1.0, 0.0, 0.0, 1.0]), gas)
    with pytest.raises(AdmissibilityError):
        euler.cons_to_prim(np.array([1.0, 1.0, 0.0, 0.5]), gas)


def test_stationary_flux_is_pressure_only(gas):
    u = np.array([2.0, 0.0, 0.0, 3.0])
    n = np.array([0.6, 0.8])
    f = euler.physical_flux(u, euler.prim_to_cons(u, gas), n, euler.normal_velocity(u, n))
    np.testing.assert_allclose(f, [0.0, 3.0 * 0.6, 3.0 * 0.8, 0.0], atol=1e-14)


def test_flux_hand_value(gas):
    u = np.array([1.4, 3.0, 0.0, 1.0])
    n = np.array([1.0, 0.0])
    f = euler.physical_flux(u, euler.prim_to_cons(u, gas), n, euler.normal_velocity(u, n))
    np.testing.assert_allclose(f, [4.2, 13.6, 0.0, 29.4], rtol=1e-14)


def test_flux_rotation_equivariance(rng, gas):
    for _ in range(20):
        u = random_admissible_prim(rng, 1)[0]
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        n = rng.normal(size=2)
        n /= np.hypot(*n)
        u_rot = u.copy()
        u_rot[1:3] = rot @ u[1:3]
        f = euler.physical_flux(u, euler.prim_to_cons(u, gas), n, euler.normal_velocity(u, n))
        f_rot = euler.physical_flux(u_rot, euler.prim_to_cons(u_rot, gas), rot @ n,
                                    euler.normal_velocity(u_rot, rot @ n))
        np.testing.assert_allclose(f_rot[[0, 3]], f[[0, 3]], rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_allclose(f_rot[1:3], rot @ f[1:3], rtol=1e-12,
                                   atol=1e-12)


def test_wave_speed_values(gas):
    u, u2 = np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.4, 3.0, 0.0, 1.0])
    n = np.array([1.0, 0.0])
    s = euler.max_wave_speed(u, euler.normal_velocity(u, n), gas)
    assert float(s) == pytest.approx(np.sqrt(1.4), rel=1e-14)
    s2 = euler.max_wave_speed(u2, euler.normal_velocity(u2, n), gas)
    assert float(s2) == pytest.approx(4.0, rel=1e-14)


def test_wave_speed_at_least_sound_speed(rng, gas):
    u = random_admissible_prim(rng, 200)
    n = np.array([0.0, 1.0])
    s = euler.max_wave_speed(u, euler.normal_velocity(u, n), gas)
    c = np.sqrt(gas.gamma * u[:, 3] / u[:, 0])
    assert (s >= c).all() and (c > 0).all()


def test_entropy_zero_on_reference_isentrope(gas):
    u = np.array([1.3, 0.4, -0.2, 1.3 ** 1.4])
    eta, qx, qy = euler.entropy_pair(u, gas)
    assert abs(float(eta)) < 1e-13
    assert abs(float(qx)) < 1e-13 and abs(float(qy)) < 1e-13


def test_entropy_flux_zero_at_rest(gas):
    _eta, qx, qy = euler.entropy_pair(np.array([2.0, 0.0, 0.0, 0.5]), gas)
    assert float(qx) == 0.0 and float(qy) == 0.0


def test_entropy_constant_along_isentropes(rng, gas):
    s_ref = 0.7
    for _ in range(50):
        rho = rng.uniform(0.2, 3.0)
        p = np.exp(s_ref * (gas.gamma - 1.0)) * rho ** gas.gamma
        eta, _, _ = euler.entropy_pair(np.array([rho, 0.3, -0.1, p]), gas)
        assert float(eta) / rho == pytest.approx(-s_ref, rel=1e-12)


finite = st.floats(-1e3, 1e3, allow_nan=False)
maybe_nan = finite | st.just(0.0) | st.just(float("nan"))


@settings(max_examples=300, deadline=None)
@given(rho=maybe_nan, u=finite, v=finite, p=maybe_nan)
def test_prim_checks_reject_exactly_rho_or_p_not_positive(rho, u, v, p):
    expect_bad = not (rho > 0.0 and p > 0.0)      # NaN compares False
    state = np.array([rho, u, v, p])
    assert bool(euler.not_positive(state[[0, 3]]).any()) == expect_bad
    if expect_bad:
        with pytest.raises(AdmissibilityError):
            euler.prim_to_cons(state, GasModel())
    else:
        euler.prim_to_cons(state, GasModel())


@settings(max_examples=300, deadline=None)
@given(rho=maybe_nan, mx=finite, my=finite, energy=maybe_nan)
@example(rho=1.0, mx=0.0, my=0.0, energy=2.5)
@example(rho=-1.0, mx=0.0, my=0.0, energy=2.5)
@example(rho=2.0, mx=2.0, my=0.0, energy=1.0)     # internal energy exactly 0
def test_cons_checks_reject_exactly_rho_or_internal_energy_not_positive(
        rho, mx, my, energy):
    expect_bad = not (rho > 0.0 and energy - (mx * mx + my * my) / (2.0 * rho) > 0.0)
    w = np.array([rho, mx, my, energy])
    with np.errstate(all="ignore"):     # |m|^2 / rho overflows for tiny rho
        mask = euler.not_positive(rho) | euler.not_positive(euler.internal_energy(w))
        assert bool(mask) == expect_bad
        if expect_bad:
            with pytest.raises(AdmissibilityError):
                euler.cons_to_prim(w, GasModel())
        else:
            euler.cons_to_prim(w, GasModel())


@pytest.mark.parametrize("component", [0, 3], ids=["rho", "energy"])
def test_nan_states_are_not_admissible(gas, component):
    """Every check reads not_positive, ~(x > 0): x <= 0 is False for NaN and
    would let it pass."""
    w = euler.prim_to_cons(np.array([[1.0, 0.2, -0.1, 2.5]] * 3), gas)
    w[1, component] = np.nan
    assert euler.not_positive(w[1, 0]) or euler.not_positive(euler.internal_energy(w[1]))
    with pytest.raises(AdmissibilityError):
        euler.cons_to_prim(w, gas)
    u = np.array([[1.0, 0.2, -0.1, 2.5]] * 3)
    u[1, component] = np.nan
    with pytest.raises(AdmissibilityError):
        euler.prim_to_cons(u, gas)


def test_gas_model_validation():
    with pytest.raises(ValueError):
        GasModel(gamma=1.0)
    with pytest.raises(ValueError):
        GasModel(gamma=np.nan)


def test_entropy_pair_compatibility_smooth_advection(gas):
    """Discrete d_t eta + div q -> 0 at first order for an advected wave,
    with the Green-Gauss divergence of the entropy loss."""
    from fvgrad import recon

    def residual_norm(n):
        m = msh.periodic_structured_mesh(n)
        x = m.centroid[:, 0]
        vel, p0 = 0.7, 1.0
        dt = 0.2 / n

        def state(t):
            rho = 1.0 + 0.3 * np.sin(2 * np.pi * (x - vel * t))
            return np.column_stack([rho, np.full_like(x, vel), np.zeros_like(x),
                                    np.full_like(x, p0)])

        def divergence(qx, qy):
            q = np.stack([qx, qy])
            gx, gy = recon.gradient_gg(m, q, recon.neighbor_values(m, q, None))
            return gx[0] + gy[1]

        eta0, qx0, qy0 = euler.entropy_pair(state(0.0), gas)
        eta1, qx1, qy1 = euler.entropy_pair(state(dt), gas)
        div0 = divergence(qx0, qy0)
        div1 = divergence(qx1, qy1)
        r = (eta1 - eta0) / dt + 0.5 * (div0 + div1)
        return float(np.sqrt(np.mean(r ** 2)))

    levels = [8, 16, 32]
    errs = [residual_norm(n) for n in levels]
    h = [1.0 / n for n in levels]
    slope = np.polyfit(np.log(h), np.log(errs), 1)[0]
    assert slope >= 0.8
