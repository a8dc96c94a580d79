import os
import tracemalloc

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import bench, mlcorr, recon, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import AdmissibilityError, cons_to_prim, prim_to_cons
from conftest import digest, smooth_prim_field


@pytest.fixture(scope="module")
def coarse():
    return msh.periodic_structured_mesh(6)


def _f3_field(points, draw=0):
    ic = train.draw_ic_params("f3", np.random.default_rng(draw))
    return train.evaluate_ic("f3", ic, points)


def test_loss_tvd_on_piecewise_constant_field_has_finite_gradient(coarse, rng):
    u0 = _f3_field(coarse.centroid)
    u1 = (u0 * (1.0 + 0.01 * rng.normal(size=u0.shape))).T
    u0 = np.ascontiguousarray(u0.T)
    g0 = recon.gradient_lsq(coarse, u0)
    assert ((g0[0] ** 2 + g0[1] ** 2).sum(axis=0) == 0.0).any()  # flat cells

    def norm(u):
        gx, gy = recon.gradient_lsq(coarse, u)
        return np.sqrt((gx * gx + gy * gy).sum(axis=0))

    # the traced field is the flat one, on either side of the loss
    for program, expect in (
            (lambda u: train.loss_tvd(coarse, u, u1), np.maximum(0.0, norm(u1) - norm(u0))),
            (lambda u: train.loss_tvd(coarse, u1, u), np.maximum(0.0, norm(u0) - norm(u1)))):
        value, grad = ad.record_and_backprop(program, u0)
        assert value == expect.sum()
        assert np.isfinite(grad).all()
    assert np.abs(grad).max() > 0.0


def test_supervision_loss_is_zero_with_a_zero_gradient_at_its_target(coarse):
    u = np.ascontiguousarray(_f3_field(coarse.centroid).T)
    loss, grad = ad.record_and_backprop(lambda p: train.loss_supervision(p, u), u.copy())
    assert loss == 0.0
    assert grad.shape == u.shape and (grad == 0.0).all()
    assert train.loss_supervision(u.copy(), u) == 0.0


def test_one_training_epoch_on_a_piecewise_constant_trajectory(coarse, gas):
    fine, pm = msh.refine_uniform(coarse)
    w0 = prim_to_cons(_f3_field(fine.centroid), gas)
    frames = train.reference_trajectory(coarse, fine, pm, w0, 4, 0.03, gas)
    traj = train.Trajectory(family="f3", frames=frames, ic_params={})
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    result = train.train(coarse, cfg, [traj], [traj], train.TrainConfig(epochs=1, batch_size=2))
    assert not result.aborted
    assert len(result.history) == 2
    assert all(np.isfinite(row["total"]) for row in result.history)
    assert np.isfinite(result.params.values).all()


# sha256 prefixes of one ml_lsq sample's (loss, gradient), re-recorded when
# the Rusanov flux moved to primitive face states and the residual to
# per-slot sums.  Against the earlier face-order form, the losses moved by
# 5.4e-15 (periodic) and 5.6e-15 (forward step) relative, and the gradients
# by 1.2e-14 and 6.7e-15 of their largest entry
SAMPLE_GRADIENT_DIGESTS = {
    "periodic_structured_6": ("f3eceb90ebd2f495", "b6c3d4a3bcc1deb2"),
    "forward_step_0.2": ("1d2763c23b6e1bb2", "e0cc6bbbd815a228"),
}


def test_sample_gradient_digests(gas, seeded_params):
    meshes = {"periodic_structured_6": (msh.periodic_structured_mesh(6), {}),
              "forward_step_0.2": bench.forward_step_mesh(0.2)}
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    plain = solver.StepConfig(co=0.03, gradient="lsq")
    for name, (m, bc_table) in meshes.items():
        w0 = prim_to_cons(smooth_prim_field(m.centroid), gas)
        dt = solver.compute_dt(m, cfg)
        w_ref, _ = solver.step_explicit_euler(m, w0, dt, plain, bc_table)
        loss, grad, _ = train._sample_loss(m, dt, cfg, bc_table, seeded_params, w0,
                                           cons_to_prim(w_ref, gas), train.LossWeights(), gas)
        assert grad.shape == seeded_params.values.shape
        assert (digest(np.float64(loss)), digest(grad)) == SAMPLE_GRADIENT_DIGESTS[name], name


def test_backward_adds_little_to_a_traced_samples_peak(gas, seeded_params, monkeypatch):
    """The reverse sweep frees each adjoint and closure once it has used them,
    so one traced sample on the 1,458-cell training mesh peaks (tracemalloc)
    at most 1.25 times as high as its forward pass alone."""
    m = msh.periodic_structured_mesh(27)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    u_ref = smooth_prim_field(m.centroid)
    w0 = prim_to_cons(u_ref, gas)
    dt = solver.compute_dt(m, cfg)

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train._sample_loss(m, dt, cfg, {}, seeded_params, w0, u_ref,
                               train.LossWeights(), gas)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    train._sample_loss(m, dt, cfg, {}, seeded_params, w0, u_ref, train.LossWeights(), gas)
    full = peak()
    monkeypatch.setattr(ad.Tape, "backward", lambda tape, seeds: None)
    forward = peak()
    assert full <= 1.25 * forward, (full, forward)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _trajectories(coarse, gas, draws, steps=4):
    fine, pm = msh.refine_uniform(coarse)
    out = []
    for draw in draws:
        w0 = prim_to_cons(_f3_field(fine.centroid, draw), gas)
        frames = train.reference_trajectory(coarse, fine, pm, w0, steps, 0.03, gas)
        out.append(train.Trajectory(family="f3", frames=frames, ic_params={}))
    return out


def _train_on(monkeypatch, k, *args, **kwargs):
    """train.train with k CPUs; returns its result and how many samples the
    calling process recorded itself."""
    monkeypatch.setattr(solver, "_cpus", lambda: k)
    recorded = []
    sample_loss = train._sample_loss

    def counted(*a, **kw):
        recorded.append(os.getpid())
        return sample_loss(*a, **kw)

    monkeypatch.setattr(train, "_sample_loss", counted)
    try:
        return train.train(*args, **kwargs), recorded.count(os.getpid())
    finally:
        _no_child_left()


def _same_training(a, b):
    assert a.params.values.tobytes() == b.params.values.tobytes()
    assert a.history == b.history
    assert a.val_sup == b.val_sup
    assert a.aborted == b.aborted


def test_training_is_bitwise_the_same_on_one_two_or_three_cpus(coarse, gas, monkeypatch):
    trajs = _trajectories(coarse, gas, (0, 1, 2), steps=6)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    # 12 samples in batches of 5, 5 and 2, validated on 6 pairs every epoch
    tcfg = train.TrainConfig(epochs=2, batch_size=5)
    runs = {k: _train_on(monkeypatch, k, coarse, cfg, trajs[:2], trajs[2:], tcfg)
            for k in (1, 2, 3)}
    serial, _ = runs[1]
    assert len(serial.history) == 6 and len(serial.val_sup) == 3
    assert len({row["val_total"] for row in serial.history}) == 2
    for k, (result, own) in runs.items():
        _same_training(result, serial)
        # the caller records the first share of every batch, the children the rest
        assert own == 2 * sum(m // min(k, m) for m in (5, 5, 2)), k


def test_a_failed_fork_leaves_the_share_to_the_caller(coarse, gas, monkeypatch):
    trajs = _trajectories(coarse, gas, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    tcfg = train.TrainConfig(epochs=1, batch_size=4)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    forked, own = _train_on(monkeypatch, 2, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert own == 4


def test_a_training_run_forks_once_per_extra_cpu(coarse, gas, monkeypatch):
    """The children serve every minibatch and validation of a train call, so
    a fork's cost is paid once per call, not once per minibatch."""
    trajs = _trajectories(coarse, gas, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    # 4 samples in batches of 2 over 2 epochs, and 3 validations
    tcfg = train.TrainConfig(epochs=2, batch_size=2)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    forked, own = _train_on(monkeypatch, 3, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert len(forks) == 2
    assert own == 4


def test_a_child_that_dies_leaves_its_shares_to_the_caller(coarse, gas, monkeypatch):
    """A child dies in its first sample: the caller runs that share, and the
    later shares it would have had."""
    trajs = _trajectories(coarse, gas, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    tcfg = train.TrainConfig(epochs=2, batch_size=4)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    caller = os.getpid()
    sample_loss = train._sample_loss

    def dying(*a, **kw):
        if os.getpid() != caller:
            os._exit(1)
        return sample_loss(*a, **kw)

    monkeypatch.setattr(train, "_sample_loss", dying)
    forked, own = _train_on(monkeypatch, 2, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert own == 8


def test_dataset_files_are_bitwise_the_same_on_one_two_or_three_cpus(coarse, monkeypatch,
                                                                     tmp_path):
    fine, pm = msh.refine_uniform(coarse)
    spec = train.DatasetSpec(count=3, n_val=2, steps=3, mix=(0.4, 0.2, 0.4))
    files = {}
    for k in (1, 2, 3):
        monkeypatch.setattr(solver, "_cpus", lambda k=k: k)
        tr, val = train.generate_dataset(spec, coarse, fine, pm, out_dir=tmp_path / str(k))
        _no_child_left()
        assert [t.family for t in tr + val] == spec.families() + spec.families(2)
        files[k] = {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()}
    assert len(files[1]) == 6
    assert files[2] == files[1] and files[3] == files[1]


def _corrupt(frames, cell, component):
    """A frame whose cell fails cons_to_prim's check on the given component."""
    frames = frames.copy()
    if component == "rho":
        frames[cell, 0] = -1.0
    else:
        frames[cell, 3] = 0.5 * (frames[cell, 1] ** 2 + frames[cell, 2] ** 2) / frames[cell, 0]
    return frames


@pytest.mark.parametrize("positions", [(1, 6), (5, 7)],
                         ids=["caller_share_first", "child_share_first"])
def test_a_failing_sample_raises_the_serial_error(coarse, gas, monkeypatch, positions):
    """With 2 CPUs the caller records batch positions 0-3 and a child 4-7.
    Two samples fail, with different errors; the one earlier in batch order
    must be raised, as serial training raises it."""
    (traj,) = _trajectories(coarse, gas, (0,), steps=8)
    tcfg = train.TrainConfig(epochs=1, batch_size=8, seed=3)
    order = np.random.default_rng(tcfg.seed).permutation(traj.n_pairs)
    frames = traj.frames.copy()
    for pos, component in zip(positions, ("internal_energy", "rho")):
        frames[order[pos]] = _corrupt(frames[order[pos]], 7 + pos, component)
    bad = train.Trajectory(family="f3", frames=frames, ic_params={})
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    errors = []
    for k in (1, 2):
        with pytest.raises(AdmissibilityError) as info:
            _train_on(monkeypatch, k, coarse, cfg, [bad], [], tcfg)
        errors.append((type(info.value), str(info.value), info.value.component))
    assert errors[0] == errors[1]
    assert errors[0][2] == "internal_energy"


def test_training_after_a_two_block_step_is_bitwise_serial(coarse, gas, monkeypatch):
    """The caller's step pool is alive when the children fork; validation
    steps run in two blocks, in the caller and in a child, which builds its
    own pool."""
    monkeypatch.setattr(solver, "step_workers", lambda n_cells: 2)
    trajs = _trajectories(coarse, gas, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    solver.step_explicit_euler(coarse, trajs[0].frames[0], solver.compute_dt(coarse, cfg),
                               cfg, params=mlcorr.zero_params())
    assert solver._pool is not None
    tcfg = train.TrainConfig(epochs=1, batch_size=4)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    forked, own = _train_on(monkeypatch, 2, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert own == 2
