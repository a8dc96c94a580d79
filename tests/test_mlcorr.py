import struct
import tracemalloc

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import mesh as msh
from fvgrad import bc as bclib
from fvgrad import bench, mlcorr, recon, solver, train
from fvgrad.euler import GasModel, prim_to_cons
from fvgrad.mlcorr import NORM_EPS, NetConfig, NetworkError
from conftest import (gradient_gg_of, gradient_lsq_of, loss_case, loss_gradients, matmul, mean,
                      mesh_geometry, random_admissible_prim, rotated_mesh, save_params_sized,
                      save_params_with_offset, smooth_prim_field, tanh, untraced_peak)


@pytest.fixture(scope="module")
def params():
    p = mlcorr.init_params(seed=0)
    vec = p.values.copy()
    rng = np.random.default_rng(5)
    vec[vec == 0.0] = rng.normal(0, 0.2, int((vec == 0.0).sum()))
    return p.with_values(vec)


def _alpha(m, u, params, bc_table=None):
    """alpha (4, 3, N) for a (4, N) primitive field, gathered with its ghost
    states as ``solver.residual`` gathers it."""
    ghosts, _ = bclib.extend_with_ghosts(m, u, bc_table or {})
    du = recon.neighbor_deltas(m, u, recon.neighbor_values(m, u, ghosts))
    return mlcorr.masked_alpha(m, params, du)


def test_parameter_count_in_expected_range():
    p = mlcorr.zero_params()
    assert 1000 <= p.count <= 1700
    assert p.count == p.values.size
    offsets = [off for _, _, off in p.table]
    sizes = [int(np.prod(s)) for _, s, _ in p.table]
    assert offsets == list(np.cumsum([0] + sizes[:-1]))


def test_zero_params_give_zero_alpha(rng):
    p = mlcorr.zero_params()
    du = rng.normal(size=(4, 3, 1))
    theta = np.array([[2.0], [2.1], [2 * np.pi - 4.1]])
    alpha = mlcorr.network_forward(p, du, theta)
    assert (alpha == 0.0).all()


U = np.finfo(np.float64).eps / 2     # unit roundoff
TANH_ULPS = 4                        # assumed accuracy of np.tanh, in units in the last place


def _gamma(k):
    """Bound on the relative error of a float64 sum of k terms, in any order."""
    return k * U / (1 - k * U)


def _linear(x, e_x, w, b=None):
    """x @ w.T (+ b) and a bound on its error, given a bound e_x on x's."""
    y, mag = x @ w.T, np.abs(x) @ np.abs(w).T
    if b is not None:
        y, mag = y + b, mag + np.abs(b)
    return y, e_x @ np.abs(w).T + _gamma(w.shape[1] + 1) * mag


def _tanh(y, e_y):
    t = np.tanh(y)
    return t, e_y + TANH_ULPS * 2 * U * np.abs(t)     # |tanh'| <= 1, ulp(t) <= 2u|t|


def _alpha_with_branch_head(params, du, theta):
    """network_forward in numpy with the head as first written: (N, n_in*P)
    branch features, reshaped, then summed over P against the trunk.  Takes
    and returns cell-first (N, 3, 4) arrays and (N, 3) angles.

    Also returns a bound on each entry's float64 error, by a first-order
    running error analysis (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3): a sum of k terms is off by at most
    gamma_k times the sum of their magnitudes, whatever its order, each
    other operation by a rounding of its result, tanh by TANH_ULPS ulps, and
    each operand's error carries through the operation's derivative.  The
    head's bound covers both the branch-head order and network_forward's
    contraction of (trunk x h) over (p, w), so each evaluation is within it
    of the exact network."""
    cfg = params.config
    L = {name: params.values[off:off + int(np.prod(shape))].reshape(shape)
         for name, shape, off in params.table}
    n, m, width, combine = du.shape[0], cfg.n_in, cfg.width, cfg.combine
    z = du.reshape(n, m)
    mu = np.mean(z, axis=1, keepdims=True)
    e_mu = _gamma(m + 1) * np.mean(np.abs(z), axis=1, keepdims=True)
    centered = z - mu
    e_c = e_mu + U * np.abs(centered)
    var = np.mean(centered * centered, axis=1, keepdims=True)
    e_var = (np.mean(2 * np.abs(centered) * e_c, axis=1, keepdims=True)
             + _gamma(m + 2) * var)
    scale = np.sqrt(var + mlcorr.NORM_EPS)
    e_s = (e_var + U * scale * scale) / (2 * scale) + U * scale
    zn0 = centered / scale
    e_zn0 = (e_c + np.abs(zn0) * e_s) / scale + U * np.abs(zn0)
    zn = zn0 * L["norm_scale"] + L["norm_shift"]
    e_zn = (np.abs(L["norm_scale"]) * e_zn0
            + _gamma(2) * (np.abs(zn0 * L["norm_scale"]) + np.abs(L["norm_shift"])))
    skip, e_skip = _linear(zn, e_zn, L["branch0_skip"])
    t0, e_t0 = _tanh(*_linear(zn, e_zn, L["branch0_w"], L["branch0_b"]))
    h = skip + t0
    e_h = e_skip + e_t0 + U * np.abs(h)
    t1, e_t1 = _tanh(*_linear(h, e_h, L["branch1_w"], L["branch1_b"]))
    h = h + t1
    e_h = e_h + e_t1 + U * np.abs(h)
    trunk, e_trunk = _tanh(*_linear(theta, np.zeros_like(theta), L["trunk_w"], L["trunk_b"]))
    branch = (h @ L["head_w"].T + L["head_b"]).reshape(n, m, combine)
    mag = (np.abs(h) @ np.abs(L["head_w"]).T + np.abs(L["head_b"])).reshape(n, m, combine)
    e_branch = (e_h @ np.abs(L["head_w"]).T).reshape(n, m, combine)
    t = trunk[:, None, :]
    raw0 = np.sum(branch * t, axis=2)
    e_raw0 = (np.sum(e_branch * np.abs(t) + mag * e_trunk[:, None, :], axis=2)
              + _gamma(combine * (width + 1) + 2) * np.sum(mag * np.abs(t), axis=2))
    raw = raw0 * scale
    e_raw = e_raw0 * scale + np.abs(raw0) * e_s + U * np.abs(raw)
    q = raw * (1.0 / cfg.alpha_max)
    e_q = e_raw / cfg.alpha_max + U * np.abs(q)
    c = np.nextafter(cfg.alpha_max, 0.0)
    squashed = np.tanh(q)
    alpha = c * squashed
    e_alpha = c * (e_q + TANH_ULPS * 2 * U * np.abs(squashed)) + U * np.abs(alpha)
    return alpha.reshape(du.shape), e_alpha.reshape(du.shape)


def test_head_contraction_matches_branch_head_oracle(seeded_params, rng,
                                                    periodic_mesh_irregular):
    """The head contracts (trunk x h) against head_w in one matmul; that sums
    in another order than the branch head, so alpha may move by round-off:
    each entry by at most twice the oracle's error bound."""
    m = periodic_mesh_irregular
    du = rng.normal(size=(m.n_cells, 3, 4))
    alpha = mlcorr.network_forward(seeded_params, du.T, m.angles).T
    expect, bound = _alpha_with_branch_head(seeded_params, du, m.angles.T)
    assert np.abs(alpha).max() > 0.1
    assert (np.abs(alpha - expect) <= 2 * bound).all()

    zero = mlcorr.zero_params()
    assert (mlcorr.network_forward(zero, du.T, m.angles) == 0.0).all()
    assert (_alpha_with_branch_head(zero, du, m.angles.T)[0] == 0.0).all()


def test_traced_alpha_equals_untraced_bitwise(params, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = smooth_prim_field(m.centroid).T
    plain = _alpha(m, u, params)
    traced = _alpha(m, ad.Tape().var(u), params)
    assert np.abs(plain).max() > 0.1
    assert (traced.value == plain).all()


def _op_by_op_network(params, du, theta):
    """The network with every operation recorded on the tape, as it was
    recorded before it became one node: the oracle of that node's adjoints.
    Each layer is one gather of the parameter vector."""
    cfg = params.config
    n = ad.value_of(du).shape[-1]
    L = {name: ad.take_rows(params.values, i)
         for name, i in mlcorr._layer_index(cfg).items()}
    z = ad.reshape(du, (cfg.n_in, n))
    mu = mean(z, axis=0, keepdims=True)
    centered = z - mu
    var = mean(centered * centered, axis=0, keepdims=True)
    scale = ad.sqrt(var + NORM_EPS)
    zn = centered / scale * L["norm_scale"] + L["norm_shift"]
    h = matmul(L["branch0_skip"], zn) + tanh(
        matmul(L["branch0_w"], zn) + L["branch0_b"])
    h = h + tanh(matmul(L["branch1_w"], h) + L["branch1_b"])
    trunk = tanh(matmul(L["trunk_w"], theta) + L["trunk_b"])
    outer = ad.reshape(ad.reshape(trunk, (cfg.combine, 1, n))
                       * ad.reshape(h, (1, cfg.width, n)), (cfg.combine * cfg.width, n))
    raw = (matmul(L["head_w"], outer) + matmul(L["head_b"], trunk)) * scale
    alpha = np.nextafter(cfg.alpha_max, 0.0) * tanh(raw * (1.0 / cfg.alpha_max))
    return ad.reshape(alpha, (cfg.n_vars, cfg.n_neighbors, n))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("mesh_name", ["periodic", "forward_step"])
@pytest.mark.parametrize("saturated", [False, True], ids=["seeded", "saturated"])
def test_the_network_node_matches_the_op_by_op_oracle(monkeypatch, params, seeded_params,
                                                      saturated, mesh_name, b, k):
    """The traced network is one node whose adjoints are hand-derived.  Through
    the training loss, on one sample and a group, the loss equals the op-by-op
    network's bitwise and the gradient equals it to 1e-14 of its largest
    entry.  At K = 2 the second step's du is traced, so the adjoint of the
    input normalisation is checked too.  Saturated: heads drawn from
    N(0, 0.2) drive alpha close to +-alpha_max."""
    net = params if saturated else seeded_params
    case = loss_case(mesh_name, b, k)
    loss, grad = loss_gradients(case, net)
    monkeypatch.setattr(mlcorr, "network_forward", _op_by_op_network)
    expect, oracle = loss_gradients(case, net)
    assert loss == expect
    assert np.abs(oracle).max() > 0.0
    assert np.abs(grad - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_the_network_node_keeps_no_trunk_h_product(monkeypatch, seeded_params):
    """A traced group of 2 on the 1,458-cell training mesh peaks (tracemalloc)
    lower with the network as one node than op by op, by at least the bytes
    of the (combine * width, N) product trunk x h that the op-by-op tape
    keeps and the node does not."""
    gas = GasModel()
    m = msh.periodic_structured_mesh(27).copies(2)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    u_ref = smooth_prim_field(m.centroid)
    sample = (m, cfg, {}, seeded_params, prim_to_cons(u_ref, gas), u_ref,
              train.LossWeights())

    def peak(forward):
        monkeypatch.setattr(mlcorr, "network_forward", forward)
        train._sample_loss(*sample)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train._sample_loss(*sample)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    node, op_by_op = peak(mlcorr.network_forward), peak(_op_by_op_network)
    cfg = seeded_params.config
    assert op_by_op - node >= cfg.combine * cfg.width * m.n_cells * 8, (node, op_by_op)


def test_the_untraced_network_peaks_at_few_stencil_arrays(seeded_params, stencils_10k):
    """Untraced, the network computes in place the activations no adjoint
    keeps, drops them before the head and contracts the head in chunks of
    at most ``HEAD_CELLS`` cells: on 10,082 cells it peaks (tracemalloc)
    below 5.5 (4, 3, N) arrays, where with the head in one piece it peaked
    at 9.8 (9.45 MB)."""
    m, _, _, du, _ = stencils_10k
    peak = untraced_peak(lambda: mlcorr.network_forward(seeded_params, du, m.angles))
    assert peak < 5.5 * du.nbytes, peak / du.nbytes


def test_alpha_over_several_head_chunks_is_the_one_piece_alpha(monkeypatch, seeded_params,
                                                               stencils_10k):
    """The head contracts near-equal chunks of at most ``HEAD_CELLS`` cells,
    cut at multiples of ``mesh.BLOCK_ALIGN`` (``mesh.aligned_cuts``); alpha
    over 10,082 cells, three chunks, is bitwise the op-by-op network's,
    which contracts the head in one piece."""
    m, _, _, du, _ = stencils_10k
    cuts = []
    real = msh.aligned_cuts
    monkeypatch.setattr(msh, "aligned_cuts", lambda n, k: cuts.extend(real(n, k)) or real(n, k))
    alpha = mlcorr.network_forward(seeded_params, du, m.angles)
    assert len(cuts) == 4 and cuts[0] == 0 and cuts[-1] == m.n_cells
    assert all(c % msh.BLOCK_ALIGN == 0 for c in cuts[:-1])
    assert max(np.diff(cuts)) <= mlcorr.HEAD_CELLS
    assert alpha.tobytes() == _op_by_op_network(seeded_params, du, m.angles).tobytes()


def test_zero_du_gives_finite_bounded_alpha(params):
    alpha = mlcorr.network_forward(params, np.zeros((4, 3, 1)),
                                   np.array([[2.0], [2.1], [2 * np.pi - 4.1]]))
    assert np.isfinite(alpha).all()
    assert np.abs(alpha).max() <= params.config.alpha_max


def test_alpha_clamped(params, rng):
    du = rng.normal(size=(50, 3, 4)).T * 100.0
    theta = np.tile([2.0, 2.1, 2 * np.pi - 4.1], (50, 1)).T
    for cfg in (params.config, NetConfig(alpha_max=0.3)):
        alpha = mlcorr.network_forward(
            mlcorr.NetParams(cfg, params.values), du, theta)
        assert np.abs(alpha).max() < cfg.alpha_max


def test_shape_validation(params):
    with pytest.raises(NetworkError):
        mlcorr.network_forward(params, np.zeros((4, 2, 1)), np.zeros((3, 1)))
    with pytest.raises(NetworkError):
        mlcorr.network_forward(params, np.zeros((4, 3)), np.zeros((3, 3)))
    with pytest.raises(NetworkError):
        mlcorr.network_forward(params, np.zeros((4, 3, 1)), np.zeros((4, 1)))
    with pytest.raises(NetworkError):
        mlcorr.network_forward(params, np.zeros((4, 3, 2)), np.zeros((3, 1)))


def test_rotation_invariance_of_alpha(params):
    """Rotating every node leaves per-neighbor alpha unchanged (matched by
    neighbor cell id; the stencil ordering may cycle)."""
    m1 = msh.periodic_irregular_mesh(5, seed=21)
    m2 = rotated_mesh(m1, 0.31)
    u = smooth_prim_field(m1.centroid).T  # same per-cell values on both meshes
    a1 = _alpha(m1, u, params).T
    a2 = _alpha(m2, u, params).T
    for cell in range(m1.n_cells):
        order1 = np.argsort(m1.nbr[:, cell])
        order2 = np.argsort(m2.nbr[:, cell])
        np.testing.assert_allclose(a2[cell][order2], a1[cell][order1],
                                   atol=1e-12)


def test_translation_and_congruence(params):
    """Cells with congruent stencils and identical differences agree."""
    m = msh.periodic_structured_mesh(6)
    x = m.centroid[:, 0]
    y = m.centroid[:, 1]
    # field with period 1/3 in x: cells one period apart see identical du
    u = np.column_stack([
        1.5 + 0.2 * np.sin(6 * np.pi * x) * np.cos(2 * np.pi * y)] * 4)
    alpha = _alpha(m, u.T, params).T
    shifted = np.argsort(np.round((x % (1 / 3)) * 1e9) * 1e6 + np.round(y * 1e9))
    # brute-force pairing: compare every cell against its +1/3 translate
    target = {}
    for i in range(m.n_cells):
        key = (round((x[i] % (1 / 3)) * 1e9), round(y[i] * 1e9))
        target.setdefault(key, []).append(i)
    checked = 0
    for cells in target.values():
        if len(cells) < 2:
            continue
        base = alpha[cells[0]]
        for j in cells[1:]:
            np.testing.assert_allclose(alpha[j], base, atol=1e-12)
            checked += 1
    assert checked > 10


def test_boundary_rows_exactly_zero(params, rng):
    m = msh.structured_mesh(5, boundary_spec=msh.BoundarySpec.uniform("slip_wall"))
    u = random_admissible_prim(rng, m.n_cells)
    alpha = _alpha(m, u.T, params, {msh.SLIP_WALL: bclib.BCSpec(kind=msh.SLIP_WALL)}).T
    boundary = ~m.interior_mask
    assert boundary.any()
    assert (alpha[boundary] == 0.0).all()
    assert np.isfinite(alpha).all()


def test_corrected_gradients_reduce_to_plain_bitwise(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = random_admissible_prim(rng, m.n_cells).T
    zero = np.zeros((4, 3, m.n_cells))
    for fn in (gradient_gg_of, gradient_lsq_of):
        gx0, gy0 = fn(m, u)
        gx1, gy1 = fn(m, u, alpha=zero)
        assert (gx1 == gx0).all() and (gy1 == gy0).all()


def test_corrected_gg_matches_loop_oracle(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = random_admissible_prim(rng, m.n_cells)
    alpha = rng.uniform(-0.4, 0.4, size=(m.n_cells, 3, 4))
    gx, gy = gradient_gg_of(m, u.T, alpha=alpha.T)
    gx, gy = gx.T, gy.T
    for i in rng.integers(0, m.n_cells, 10):
        acc = np.zeros((4, 2))
        for k in range(3):
            j = m.nbr[k, i]
            ns = m.cell_sn[:, k, i]
            fv = (0.5 + alpha[i, k]) * u[i] + (0.5 - alpha[i, k]) * u[j]
            acc += np.outer(fv, ns)
        acc /= m.area[i]
        np.testing.assert_allclose(gx[i], acc[:, 0], atol=1e-13)
        np.testing.assert_allclose(gy[i], acc[:, 1], atol=1e-13)


def test_corrected_lsq_matches_normal_equation_oracle(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = random_admissible_prim(rng, m.n_cells)
    alpha = rng.uniform(-0.4, 0.4, size=(m.n_cells, 3, 4))
    gx, gy = gradient_lsq_of(m, u.T, alpha=alpha.T)
    gx, gy = gx.T, gy.T
    geo = mesh_geometry(m)
    for i in rng.integers(0, m.n_cells, 10):
        A = np.zeros((2, 2))
        rhs = np.zeros((2, 4))
        for k in range(3):
            dx, dy = geo.nbr_dx[i, k], geo.nbr_dy[i, k]
            w = 1.0 / (dx * dx + dy * dy)
            du = (1.0 + alpha[i, k]) * (u[m.nbr[k, i]] - u[i])
            A += w * np.array([[dx * dx, dx * dy], [dx * dy, dy * dy]])
            rhs += w * np.outer([dx, dy], du)
        sol = np.linalg.solve(A, rhs)
        np.testing.assert_allclose(gx[i], sol[0], atol=1e-12)
        np.testing.assert_allclose(gy[i], sol[1], atol=1e-12)


def test_corrected_shift_invariance(rng, periodic_mesh_irregular):
    m = periodic_mesh_irregular
    u = random_admissible_prim(rng, m.n_cells).T
    alpha = rng.uniform(-0.4, 0.4, size=(m.n_cells, 3, 4)).T
    for fn in (gradient_gg_of, gradient_lsq_of):
        gx0, gy0 = fn(m, u, alpha=alpha)
        gx1, gy1 = fn(m, u + 3.0, alpha=alpha)
        assert np.abs(gx1 - gx0).max() < 1e-12
        assert np.abs(gy1 - gy0).max() < 1e-12


def test_constant_field_any_alpha_zero_gradient(rng, periodic_mesh_small):
    m = periodic_mesh_small
    u = np.full((4, m.n_cells), 1.8)
    alpha = rng.uniform(-0.5, 0.5, size=(m.n_cells, 3, 4)).T
    for fn in (gradient_gg_of, gradient_lsq_of):
        gx, gy = fn(m, u, alpha=alpha)
        assert np.abs(gx).max() < 1e-13 and np.abs(gy).max() < 1e-13


def test_save_load_roundtrip(tmp_path, params):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(params, path)
    loaded = mlcorr.load_params(path)
    assert (loaded.values == params.values).all()
    assert loaded.config == params.config
    assert loaded.table == params.table
    assert loaded.count == params.count


def test_load_rejects_truncated_file(tmp_path, params):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 64])
    with pytest.raises(NetworkError):
        mlcorr.load_params(path)


def test_load_rejects_bad_magic(tmp_path, params):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(params, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(NetworkError):
        mlcorr.load_params(path)


@pytest.mark.parametrize("alpha_max", [0.0, -0.5, float("nan"), float("inf")])
def test_alpha_max_must_be_finite_and_positive(alpha_max):
    with pytest.raises(NetworkError):
        NetConfig(alpha_max=alpha_max)


@pytest.mark.parametrize("text", [b"0.0", b"-0.5", b"NaN", b"Infinity"])
def test_load_rejects_bad_alpha_max(tmp_path, params, text):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(params, path)
    raw = path.read_bytes()
    blob_len, = struct.unpack_from("<I", raw, 8)
    blob = raw[12:12 + blob_len].replace(b'"alpha_max": 0.5', b'"alpha_max": ' + text)
    assert blob != raw[12:12 + blob_len]
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + blob_len:])
    with pytest.raises(NetworkError):
        mlcorr.load_params(path)


def test_load_rejects_an_offset_that_is_not_the_layout(tmp_path, params):
    """The forward pass takes each layer at its offset in this build's layout
    (``mlcorr._layer_index``), so a checkpoint with any other offset is
    rejected, even when its names and shapes are right."""
    path = tmp_path / "net.gfnn"
    save_params_with_offset(params, path, "head_b", 10**6)
    with pytest.raises(NetworkError, match=r"offsets.*the file has \('head_b', .*, 1000000\)"):
        mlcorr.load_params(path)


@pytest.mark.parametrize("field,value", [("n_vars", 5), ("n_neighbors", 4)])
def test_load_rejects_a_network_not_sized_for_the_stencil(tmp_path, field, value):
    """The solver feeds the network 4 Euler variables of 3 neighbours; a
    checkpoint sized otherwise is corrupt, not a failure of the first step."""
    path = tmp_path / "net.gfnn"
    save_params_sized(mlcorr.zero_params(), path, field, value)
    with pytest.raises(NetworkError, match=f"{field}={value}"):
        mlcorr.load_params(path)


@pytest.mark.parametrize("field,value", [("width", -1), ("width", 0), ("combine", 0),
                                         ("combine", 2.5), ("width", True)])
def test_net_sizes_must_be_positive_integers(field, value):
    with pytest.raises(NetworkError, match=field):
        NetConfig(**{field: value})


@pytest.mark.parametrize("config", [NetConfig(), NetConfig(width=3, combine=5)],
                         ids=["default", "narrow"])
def test_the_layer_gathers_take_every_parameter_once(config):
    """network_forward takes each layer with one gather; together the gathers
    read every entry of the flat vector exactly once, each layer inside its
    own range of the table."""
    index = mlcorr._layer_index(config)
    table, count = mlcorr._make_table(config)
    assert list(index) == [name for name, _, _ in table]
    taken = np.concatenate([i.ravel() for i in index.values()])
    assert np.sort(taken).tolist() == list(range(count))
    for name, shape, off in table:
        assert index[name].size == int(np.prod(shape))
        assert off <= index[name].min() and index[name].max() < off + int(np.prod(shape))
    # the one gather of the joined index, cut, gives each layer
    joined, cuts = mlcorr._layer_gather(config)
    assert [(name, shape) for name, _, shape in cuts] == [(n, i.shape) for n, i in index.items()]
    assert all((joined[cut].reshape(shape) == index[name]).all() for name, cut, shape in cuts)


def test_width_config_changes_count():
    wide = mlcorr.zero_params(NetConfig(width=16, combine=8))
    assert wide.count != mlcorr.zero_params().count


def _threefold_symmetric(m):
    """Cells whose three stencil angles agree within STENCIL_TOL and whose
    three neighbor distances agree within STENCIL_TOL times the longest."""
    geo = mesh_geometry(m)
    dist = np.hypot(geo.nbr_dx, geo.nbr_dy)
    return ((np.ptp(m.angles, axis=0) <= msh.STENCIL_TOL)
            & (np.ptp(dist, axis=1) <= msh.STENCIL_TOL * dist.max(axis=1)))


def test_no_shipped_mesh_has_a_threefold_symmetric_stencil():
    """On such a stencil alpha depends on the mesh orientation (see the
    module docstring); no mesh the package builds for its runs has one."""
    h = np.sqrt(3) / 2
    triforce = msh.build_mesh([(0, 0), (1, 0), (0.5, h), (0.5, -h), (1.5, h), (-0.5, h)],
                              [(0, 1, 2), (0, 3, 1), (1, 4, 2), (0, 2, 5)])
    assert _threefold_symmetric(triforce)[0]
    for m in (msh.periodic_structured_mesh(27), msh.periodic_irregular_mesh(27),
              msh.periodic_irregular_mesh(100), msh.structured_mesh(8),
              bench.forward_step_mesh(0.02)[0], bench.forward_step_mesh(0.1)[0]):
        assert _threefold_symmetric(m).sum() == 0
