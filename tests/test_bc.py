import numpy as np
import pytest

from fvgrad import bc as bclib
from fvgrad import mesh as msh
from fvgrad.bc import BCSpec
from fvgrad.euler import AdmissibilityError, GasModel
from conftest import random_admissible_prim


def test_slip_wall_reflection():
    spec = BCSpec(kind=msh.SLIP_WALL)
    interior = np.array([1.0, 1.0, 1.0, 2.0])
    ghost, nc = bclib.ghost_state(spec, interior, np.array([0.0, 1.0]))
    np.testing.assert_allclose(ghost, [1.0, 1.0, -1.0, 2.0], atol=0)
    assert nc == 0


def test_slip_wall_no_penetration_exact(rng):
    spec = BCSpec(kind=msh.SLIP_WALL)
    for _ in range(30):
        interior = random_admissible_prim(rng, 1)[0]
        n = rng.normal(size=2)
        n /= np.hypot(*n)
        ghost, _ = bclib.ghost_state(spec, interior, n)
        flux = np.dot(interior[1:3] + ghost[1:3], n)
        assert abs(flux) < 1e-15


def test_slip_wall_is_involution(rng):
    spec = BCSpec(kind=msh.SLIP_WALL)
    interior = random_admissible_prim(rng, 8)
    n = np.array([0.8, -0.6])
    once, _ = bclib.ghost_state(spec, interior, n)
    twice, _ = bclib.ghost_state(spec, once, n)
    np.testing.assert_allclose(twice, interior, atol=1e-14, rtol=0)


def test_supersonic_outflow_extrapolates(rng):
    spec = BCSpec(kind=msh.SUPERSONIC_OUT)
    interior = random_admissible_prim(rng, 5)
    ghost, _ = bclib.ghost_state(spec, interior, np.array([1.0, 0.0]))
    assert (ghost == interior).all()


def test_supersonic_inflow_uses_freestream(rng):
    state = np.array([1.4, 3.0, 0.0, 1.0])
    spec = BCSpec(kind=msh.SUPERSONIC_IN, state=state)
    interior = random_admissible_prim(rng, 5)
    ghost, _ = bclib.ghost_state(spec, interior, np.array([-1.0, 0.0]))
    assert (ghost == state).all()


def test_subsonic_outflow_consistency():
    interior = np.array([[1.2, 0.3, -0.1, 0.9]])
    spec = BCSpec(kind=msh.SUBSONIC_OUT, back_pressure=0.9)
    ghost, _ = bclib.ghost_state(spec, interior, np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(ghost, interior, atol=0, rtol=0)


def test_subsonic_inflow_consistency():
    state = np.array([1.1, 0.2, 0.05, 1.3])
    spec = BCSpec(kind=msh.SUBSONIC_IN, state=state)
    ghost, _ = bclib.ghost_state(spec, state, np.array([-1.0, 0.0]))
    np.testing.assert_allclose(ghost, state, atol=1e-12)


def test_subsonic_outflow_formulas(gas):
    interior = np.array([1.0, 0.5, 0.0, 1.0])
    p_b = 0.8
    spec = BCSpec(kind=msh.SUBSONIC_OUT, back_pressure=p_b)
    n = np.array([1.0, 0.0])
    ghost, _ = bclib.ghost_state(spec, interior, n, gas)
    c0 = np.sqrt(gas.gamma * 1.0 / 1.0)
    assert ghost[3] == pytest.approx(p_b)
    assert ghost[0] == pytest.approx(1.0 + (p_b - 1.0) / c0 ** 2)
    assert ghost[1] == pytest.approx(0.5 - (1.0 - p_b) / (1.0 * c0))


def test_clamp_counter_fires():
    # strong prescribed outflow velocity drives the characteristic pressure
    # negative; the ghost is clamped and counted
    state = np.array([1.0, 50.0, 0.0, 1.0])
    interior = np.array([[1.0, 0.0, 0.0, 1.0]])
    spec = BCSpec(kind=msh.SUBSONIC_IN, state=state)
    ghost, nc = bclib.ghost_state(spec, interior, np.array([[1.0, 0.0]]))
    assert nc >= 1
    assert ghost[0, 0] >= bclib.CLAMP_FLOOR and ghost[0, 3] >= bclib.CLAMP_FLOOR


def test_spec_validation():
    with pytest.raises(ValueError):
        BCSpec(kind=msh.SUPERSONIC_IN)
    with pytest.raises(ValueError):
        BCSpec(kind=msh.SUBSONIC_OUT, back_pressure=-1.0)
    with pytest.raises(ValueError):
        BCSpec(kind=msh.SUPERSONIC_IN, state=np.array([1.0, 0, 0, -2.0]))


@pytest.mark.parametrize("kwargs", [
    {"kind": msh.SUPERSONIC_IN, "state": [np.nan, 3.0, 0.0, 1.0]},
    {"kind": msh.SUBSONIC_IN, "state": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, np.nan]]},
    {"kind": msh.SUPERSONIC_IN, "state": [0.0, 3.0, 0.0, 1.0]},
    {"kind": msh.SUBSONIC_OUT, "back_pressure": np.nan},
    {"kind": msh.SUBSONIC_OUT, "back_pressure": [1.0, np.nan]},
    {"kind": msh.SUBSONIC_OUT, "back_pressure": 0.0},
], ids=["nan_rho", "nan_p_per_face", "zero_rho", "nan_back_pressure",
        "nan_back_pressure_per_face", "zero_back_pressure"])
def test_spec_rejects_non_admissible_values(kwargs):
    with pytest.raises(AdmissibilityError):
        BCSpec(**kwargs)


def test_table_from_ic_evaluates_each_tag_at_its_own_faces():
    m = msh.structured_mesh(4, boundary_spec=msh.BoundarySpec(rules=[
        (msh.SUBSONIC_IN, 0, lambda mid, n: mid[0] < 1e-9),
        (msh.SUBSONIC_OUT, 0, lambda mid, n: mid[0] > 1.0 - 1e-9),
        (msh.SLIP_WALL, 0, lambda mid, n: True)]))

    def ic(points):
        return np.column_stack([1.0 + points[:, 1], np.zeros((len(points), 2)),
                                2.0 + points[:, 1]])

    table = bclib.table_from_ic(m, ic)
    assert sorted(table) == sorted(m.tag_slices)
    mids = m.f_mid[m.n_iface:]
    inflow = mids[m.tag_slices[msh.SUBSONIC_IN]]
    outflow = mids[m.tag_slices[msh.SUBSONIC_OUT]]
    assert (table[msh.SUBSONIC_IN].state == ic(inflow)).all()
    assert (table[msh.SUBSONIC_OUT].back_pressure == ic(outflow)[:, 3]).all()
    assert table[msh.SLIP_WALL].state is None
    assert bclib.table_from_ic(msh.periodic_structured_mesh(3), ic) == {}


def test_a_table_from_ic_tiles_to_the_table_of_the_copies():
    """Each tag's per-face states and back pressures, tiled, are the table
    the copies give; a state of one row stays one row."""
    m = msh.structured_mesh(4, boundary_spec=msh.BoundarySpec(rules=[
        (msh.SUBSONIC_IN, 0, lambda mid, n: mid[0] < 1e-9),
        (msh.SUBSONIC_OUT, 0, lambda mid, n: mid[0] > 1.0 - 1e-9),
        (msh.SUPERSONIC_IN, 0, lambda mid, n: mid[1] < 1e-9),
        (msh.SLIP_WALL, 0, lambda mid, n: True)]))

    def ic(points):
        return np.column_stack([1.0 + points[:, 1], points, 2.0 + points[:, 0]])

    table = bclib.table_from_ic(m, ic)
    table[msh.SUPERSONIC_IN] = BCSpec(kind=msh.SUPERSONIC_IN, state=[1.4, 3.0, 0.0, 1.0])
    tiled = bclib.tile_table(table, 3)
    of_copies = bclib.table_from_ic(m.copies(3), ic)
    assert bclib.tile_table(table, 1) is table
    assert sorted(tiled) == sorted(of_copies) == sorted(table)
    g_in = m.tag_slices[msh.SUBSONIC_IN].stop - m.tag_slices[msh.SUBSONIC_IN].start
    assert tiled[msh.SUBSONIC_IN].state.shape == (3 * g_in, 4)
    assert (tiled[msh.SUBSONIC_IN].state == of_copies[msh.SUBSONIC_IN].state).all()
    assert (tiled[msh.SUBSONIC_OUT].back_pressure
            == of_copies[msh.SUBSONIC_OUT].back_pressure).all()
    assert (tiled[msh.SUPERSONIC_IN].state == table[msh.SUPERSONIC_IN].state).all()
    assert tiled[msh.SLIP_WALL] == table[msh.SLIP_WALL]


def test_ghost_rows_ordering_and_missing_tag(rng):
    m = msh.structured_mesh(3, boundary_spec=msh.BoundarySpec.uniform("slip_wall"))
    u = random_admissible_prim(rng, m.n_cells).T
    rows, nc = bclib.extend_with_ghosts(m, u, {msh.SLIP_WALL: BCSpec(kind=msh.SLIP_WALL)})
    assert rows.shape == (4, m.n_ghost)
    with pytest.raises(KeyError):
        bclib.extend_with_ghosts(m, u, {})


def test_periodic_mesh_needs_no_ghosts(rng):
    m = msh.periodic_structured_mesh(3)
    u = random_admissible_prim(rng, m.n_cells).T
    ghosts, nc = bclib.extend_with_ghosts(m, u, {})
    assert ghosts is None and nc == 0
