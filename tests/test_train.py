import os
import re
import tracemalloc

import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import bc as bclib
from fvgrad import bench, mlcorr, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import AdmissibilityError, cons_to_prim, prim_to_cons
from conftest import digest, gradient_lsq_of, smooth_prim_field


@pytest.fixture(scope="module")
def coarse():
    return msh.periodic_structured_mesh(6)


def _f3_field(points, draw=0):
    ic = train.draw_ic_params("f3", np.random.default_rng(draw))
    return train.evaluate_ic("f3", ic, points)


def _reference_frames(coarse, evaluate, steps, cfg):
    """The projected reference of cfg's plain mode at every coarse step, as
    the dataset marches it."""
    return np.stack([w for _, w in solver.reference(coarse, evaluate, steps, cfg)])


def test_loss_tvd_on_piecewise_constant_field_has_finite_gradient(coarse, rng):
    u0 = _f3_field(coarse.centroid)
    u1 = (u0 * (1.0 + 0.01 * rng.normal(size=u0.shape))).T
    u0 = np.ascontiguousarray(u0.T)
    g0 = gradient_lsq_of(coarse, u0)
    assert ((g0[0] ** 2 + g0[1] ** 2).sum(axis=0) == 0.0).any()  # flat cells

    def norm(u):
        gx, gy = gradient_lsq_of(coarse, u)
        return np.sqrt((gx * gx + gy * gy).sum(axis=0))

    # the traced field is the flat one, on either side of the loss
    for program, expect in (
            (lambda u: train.loss_tvd(coarse, (u, None), (u1, None)),
             np.maximum(0.0, norm(u1) - norm(u0))),
            (lambda u: train.loss_tvd(coarse, (u1, None), (u, None)),
             np.maximum(0.0, norm(u0) - norm(u1)))):
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


def test_one_training_epoch_on_a_piecewise_constant_trajectory(coarse):
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    frames = _reference_frames(coarse, _f3_field, 4, cfg)
    traj = train.Trajectory(family="f3", frames=frames, ic_params={})
    result = train.train(coarse, cfg, [traj], [traj], train.TrainConfig(epochs=1, batch_size=2))
    assert not result.aborted
    assert len(result.history) == 2
    assert all(np.isfinite(row["total"]) for row in result.history)
    assert np.isfinite(result.params.values).all()


def test_skipped_optimizer_steps_are_counted(coarse, monkeypatch):
    """lion_step skips a step whose gradient is not finite; the result counts
    the skips: none in a clean run, one where one minibatch's gradient is
    NaN (its loss finite).  Two minibatches of one two-sample group each."""
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    frames = _reference_frames(coarse, _f3_field, 4, cfg)
    traj = train.Trajectory(family="f3", frames=frames, ic_params={})
    tcfg = train.TrainConfig(epochs=1, batch_size=2)
    clean = train.train(coarse, cfg, [traj], [], tcfg)
    assert len(clean.history) == 2 and clean.skipped_steps == 0
    real = ad.record_and_backprop
    calls = []

    def nan_first(program, params):
        loss, grad = real(program, params)
        calls.append(loss)
        return loss, np.full_like(grad, np.nan) if len(calls) == 1 else grad

    monkeypatch.setattr(ad, "record_and_backprop", nan_first)
    result = train.train(coarse, cfg, [traj], [], tcfg)
    assert len(calls) == 2 and np.isfinite(calls).all()
    assert len(result.history) == 2 and result.skipped_steps == 1
    assert not result.aborted


def test_gradient_check_marches_the_plain_and_corrected_modes_of_its_step(coarse, monkeypatch):
    """Its reference marches the plain mode and its loss the corrected one,
    each with every other field of the given step."""
    cfgs = []
    march = solver.march

    def spy(mesh, w0, dt, n_steps, cfg, *args, **kwargs):
        cfgs.append(cfg)
        return march(mesh, w0, dt, n_steps, cfg, *args, **kwargs)

    monkeypatch.setattr(solver, "march", spy)
    step = solver.StepConfig(co=0.02, gradient="gg", limiter_k=0.5)
    assert train.gradient_check(coarse, step, param_sample=4)["pass"]
    assert cfgs[0] == step and len(cfgs) > 1
    assert all(cfg == step.corrected() for cfg in cfgs[1:])


def test_the_gate_and_training_run_the_one_loss_program(coarse, monkeypatch):
    """The gate runs ``_loss_program`` at K = n_steps on the mesh itself;
    training runs it at K = 1 on the copies of a group of 4 samples, in
    validation before and after the epoch and in its one minibatch."""
    calls = []
    program = train._loss_program

    def spy(mesh, cfg, bc_table, params, w_t, u_refs, *args):
        calls.append((mesh.n_cells, len(u_refs)))
        return program(mesh, cfg, bc_table, params, w_t, u_refs, *args)

    monkeypatch.setattr(train, "_loss_program", spy)
    train.gradient_check(coarse, n_steps=3, param_sample=2)
    assert calls == [(72, 3)]
    monkeypatch.setattr(solver, "_cpus", lambda: 1)
    trajs = _trajectories(coarse, (0, 1))
    train.train(coarse, solver.StepConfig(co=0.03, gradient="ml_lsq"), trajs[:1], trajs[1:],
                train.TrainConfig(epochs=1, batch_size=4))
    assert calls[1:] == [(4 * 72, 1)] * 3


def test_the_gate_report_of_a_small_config():
    """The default gate's loss and largest relative error on 72 cells with 8
    sampled entries, pinned bitwise."""
    report = train.gradient_check(msh.periodic_structured_mesh(6), param_sample=8)
    assert report["pass"] and report["n_checked"] == 8
    assert report["loss"] == 4.038500872028099
    assert report["max_rel_err"] == 2.4641164632963497e-06


# sha256 prefixes of one ml_lsq sample's (loss, gradient), re-recorded when
# the Rusanov flux moved to primitive face states and the residual to
# per-slot sums.  Against the earlier face-order form, the losses moved by
# 5.4e-15 (periodic) and 5.6e-15 (forward step) relative, and the gradients
# by 1.2e-14 and 6.7e-15 of their largest entry.  The gradients were
# re-recorded again when the flux became one tape node with hand-derived
# adjoints: against the op-by-op flux they moved by 1.3e-16 (periodic) and
# 2.6e-16 (forward step) of their largest entry; the losses stayed bitwise.
# The gradients were re-recorded once more when the loss came to convert
# each state once and to build its ghost states once: the order of the
# adjoint sums changed, and they moved by 1.3e-16 (periodic) and 2.6e-16
# (forward step) of their largest entry; the losses stayed bitwise
SAMPLE_GRADIENT_DIGESTS = {
    "periodic_structured_6": ("f3eceb90ebd2f495", "761dc0185ecedb5d"),
    "forward_step_0.2": ("1d2763c23b6e1bb2", "37e60c416a2980ea"),
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
        loss, grad, _ = train._sample_loss(m, cfg, bc_table, seeded_params, w0,
                                           cons_to_prim(w_ref, gas), train.LossWeights())
        assert grad.shape == seeded_params.values.shape
        assert (digest(np.float64(loss)), digest(grad)) == SAMPLE_GRADIENT_DIGESTS[name], name


def test_a_traced_training_sample_records_117_nodes(gas, seeded_params, monkeypatch):
    """One ml_lsq sample on the 1,458-cell training mesh.  The Rusanov flux,
    the network and the limiter are one node each; recorded op by op, the
    flux took 109 nodes and the network 37 (one gather per layer among
    them), for 313 in all.  The limiter's minimum over a cell's faces was
    one node (three gathers and two ``where`` made it), both sides' face
    states are one gather (two), and alpha on a mesh without boundary cells
    is not masked (one ``where``): 181 nodes before those three.  The loss
    converts each state once and ``entropy_pair`` takes the primitive
    field: 175 nodes when the entropy term converted the states again, with
    the supervision term's reshape and per-copy sum then left out for one
    sample, 166 with the network op by op, and 130 with the limiter op by
    op (14 nodes, only its face increments traced)."""
    m = msh.periodic_structured_mesh(27)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    u_ref = smooth_prim_field(m.centroid)
    counts = []
    real = ad.Tape.backward

    def spy(tape, seeds):
        counts.append(tape.node_count)
        return real(tape, seeds)

    monkeypatch.setattr(ad.Tape, "backward", spy)
    train._sample_loss(m, cfg, {}, seeded_params, prim_to_cons(u_ref, gas), u_ref,
                       train.LossWeights())
    assert counts == [117]


def test_backward_adds_little_to_a_traced_samples_peak(gas, seeded_params, monkeypatch):
    """The reverse sweep frees each adjoint and closure once it has used them,
    so one traced sample on the 1,458-cell training mesh peaks (tracemalloc)
    at most 1.25 times as high as its forward pass alone."""
    m = msh.periodic_structured_mesh(27)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    u_ref = smooth_prim_field(m.centroid)
    w0 = prim_to_cons(u_ref, gas)

    def peak():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train._sample_loss(m, cfg, {}, seeded_params, w0, u_ref, train.LossWeights())
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    train._sample_loss(m, cfg, {}, seeded_params, w0, u_ref, train.LossWeights())
    full = peak()
    monkeypatch.setattr(ad.Tape, "backward", lambda tape, seeds: None)
    forward = peak()
    assert full <= 1.25 * forward, (full, forward)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _trajectories(coarse, draws, steps=4):
    out = []
    for draw in draws:
        frames = _reference_frames(coarse, lambda pts: _f3_field(pts, draw), steps,
                                   solver.StepConfig(co=0.03))
        out.append(train.Trajectory(family="f3", frames=frames, ic_params={}))
    return out


def _train_on(monkeypatch, k, *args, group=2, **kwargs):
    """train.train with k CPUs and groups of ``group`` samples; returns its
    result and how many groups the calling process recorded itself."""
    monkeypatch.setattr(solver, "_cpus", lambda: k)
    monkeypatch.setattr(train, "CELL_BUDGET", group * args[0].n_cells)
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


def test_training_is_bitwise_the_same_on_one_two_or_three_cpus(coarse, monkeypatch):
    trajs = _trajectories(coarse, (0, 1, 2), steps=6)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    # 12 samples in batches of 5, 5 and 2, so in 3, 3 and 1 groups of at
    # most 2, validated on 6 pairs (3 groups) every epoch
    tcfg = train.TrainConfig(epochs=2, batch_size=5)
    runs = {k: _train_on(monkeypatch, k, coarse, cfg, trajs[:2], trajs[2:], tcfg)
            for k in (1, 2, 3)}
    serial, _ = runs[1]
    assert len(serial.history) == 6 and len(serial.val_sup) == 3
    assert len({row["val_total"] for row in serial.history}) == 2
    for k, (result, own) in runs.items():
        _same_training(result, serial)
        # the caller records the first share of every batch, the children the rest
        assert own == 2 * sum(m // min(k, m) for m in (3, 3, 1)), k


def test_a_failed_fork_leaves_the_share_to_the_caller(coarse, monkeypatch):
    trajs = _trajectories(coarse, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    tcfg = train.TrainConfig(epochs=1, batch_size=4)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    forked, own = _train_on(monkeypatch, 2, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert own == 2


def test_a_training_run_forks_once_per_extra_cpu(coarse, monkeypatch):
    """The children serve every minibatch and validation of a train call, so
    a fork's cost is paid once per call, not once per minibatch."""
    trajs = _trajectories(coarse, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    # 4 samples in batches of 2 over 2 epochs, and 3 validations; groups of
    # one sample, so that the 4 validation pairs keep 3 CPUs busy
    tcfg = train.TrainConfig(epochs=2, batch_size=2)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg, group=1)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    forked, own = _train_on(monkeypatch, 3, coarse, cfg, trajs[:1], trajs[1:], tcfg,
                            group=1)
    _same_training(forked, serial)
    assert len(forks) == 2
    assert own == 4


def test_a_child_that_dies_leaves_its_shares_to_the_caller(coarse, monkeypatch):
    """A child dies in its first sample: the caller runs that share, and the
    later shares it would have had."""
    trajs = _trajectories(coarse, (0, 1))
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
    assert own == 4


def test_dataset_files_are_bitwise_the_same_on_one_two_or_three_cpus(coarse, monkeypatch,
                                                                     tmp_path):
    spec = train.DatasetSpec(count=3, n_val=2, steps=3, mix=(0.4, 0.2, 0.4))
    files = {}
    for k in (1, 2, 3):
        monkeypatch.setattr(solver, "_cpus", lambda k=k: k)
        manifest = train.generate_dataset(spec, coarse, tmp_path / str(k), solver.StepConfig())
        _no_child_left()
        assert [e["file"] for e in manifest["trajectories"]] == [
            "train_000.frames", "train_001.frames", "train_002.frames",
            "val_000.frames", "val_001.frames"]
        tr, val = train.load_dataset(tmp_path / str(k), coarse.n_cells, solver.StepConfig())
        assert [t.family for t in tr + val] == spec.families() + spec.families(2)
        assert all(t.frames.shape == (4, coarse.n_cells, 4) for t in tr + val)
        files[k] = {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()}
    assert len(files[1]) == 6
    assert files[2] == files[1] and files[3] == files[1]


def test_each_dataset_file_is_written_where_its_trajectory_was_computed(
        coarse, monkeypatch, tmp_path):
    """With 2 CPUs the caller computes trajectories 0-1 and a child 2-4; each
    process writes the files of its own share."""
    spec = train.DatasetSpec(count=3, n_val=2, steps=3)
    monkeypatch.setattr(solver, "_cpus", lambda: 2)
    log = tmp_path / "writers.txt"
    write_frames = solver.write_frames

    def recorded(path, *args):
        with open(log, "a") as fh:
            fh.write(f"{path.name} {os.getpid()}\n")
        return write_frames(path, *args)

    monkeypatch.setattr(solver, "write_frames", recorded)
    train.generate_dataset(spec, coarse, tmp_path / "ds", solver.StepConfig())
    _no_child_left()
    writers = dict(line.split() for line in log.read_text().splitlines())
    caller = str(os.getpid())
    assert sorted(writers) == sorted(p.name for p in (tmp_path / "ds").glob("*.frames"))
    assert {n for n, pid in writers.items() if pid == caller} == {
        "train_000.frames", "train_001.frames"}
    assert len({writers[n] for n in ("train_002.frames", "val_000.frames",
                                     "val_001.frames")} - {caller}) == 1


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
def test_a_failing_sample_raises_the_serial_error(coarse, monkeypatch, positions):
    """With 2 CPUs the caller records batch positions 0-3 and a child 4-7.
    Two samples fail, with different errors; the one earlier in batch order
    must be raised, as serial training raises it."""
    (traj,) = _trajectories(coarse, (0,), steps=8)
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


def test_training_after_a_two_block_step_is_bitwise_serial(coarse, monkeypatch):
    """The caller's step pool is alive when the children fork; validation
    steps run in two blocks, in the caller and in a child, which builds its
    own pool."""
    monkeypatch.setattr(solver, "step_workers", lambda n_cells: 2)
    trajs = _trajectories(coarse, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    solver.step_explicit_euler(coarse, trajs[0].frames[0], solver.compute_dt(coarse, cfg),
                               cfg, params=mlcorr.zero_params())
    assert solver._pool is not None
    tcfg = train.TrainConfig(epochs=1, batch_size=4)
    serial, _ = _train_on(monkeypatch, 1, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    forked, own = _train_on(monkeypatch, 2, coarse, cfg, trajs[:1], trajs[1:], tcfg)
    _same_training(forked, serial)
    assert own == 1


# ---------------------------------------------------------------------------
# groups of samples recorded as one program on the mesh's copies
# ---------------------------------------------------------------------------

def _group_case(name, gas, params, b):
    """A mesh, its bc table, b distinct states and their references for a
    group of b samples; sample 1's reference is its own corrected step, so
    its supervision term is 0 with a zero derivative."""
    m, bc_table = {"periodic": lambda: (msh.periodic_structured_mesh(6), {}),
                   "forward_step": lambda: bench.forward_step_mesh(0.2)}[name]()
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    dt = solver.compute_dt(m, cfg)
    rng = np.random.default_rng(5)
    w_t = [prim_to_cons(smooth_prim_field(m.centroid) * rng.uniform(0.9, 1.1, (m.n_cells, 4)),
                        gas) for _ in range(b)]
    plain = [solver.step_explicit_euler(m, w, dt, cfg.plain(), bc_table)[0] for w in w_t]
    plain[1] = solver.step_explicit_euler(m, w_t[1], dt, cfg, bc_table, params)[0]
    u_ref = [cons_to_prim(w, gas) for w in plain]
    return m, bc_table, cfg, w_t, u_ref


@pytest.mark.parametrize("name", ["periodic", "forward_step"])
def test_a_group_loss_is_the_sum_of_its_samples_losses(name, gas, seeded_params):
    """Loss, gradient and parts of a group of 4 on the mesh's copies equal
    the sums of the 4 samples' own, traced and untraced, to 1e-12."""
    b, weights = 4, train.LossWeights()
    m, bc_table, cfg, w_t, u_ref = _group_case(name, gas, seeded_params, b)
    singles = [train._sample_loss(m, cfg, bc_table, seeded_params, w, u, weights)
               for w, u in zip(w_t, u_ref)]
    assert singles[1][2]["sup"] == 0.0 and singles[0][2]["sup"] > 0.0
    on_copies = (m.copies(b), cfg, bclib.tile_table(bc_table, b), seeded_params,
                 np.concatenate(w_t), np.concatenate(u_ref), weights)
    loss, grad, parts = train._sample_loss(*on_copies)
    grad_sum = np.sum([g for _, g, _ in singles], axis=0)
    assert loss == pytest.approx(sum(s[0] for s in singles), rel=1e-12, abs=0)
    assert np.abs(grad - grad_sum).max() <= 1e-12 * np.abs(grad_sum).max()
    for key in parts:
        assert parts[key] == pytest.approx(sum(s[2][key] for s in singles), rel=1e-12), key
    total, sup = train._pair_losses(*on_copies)
    pairs = [train._pair_losses(m, cfg, bc_table, seeded_params, w, u, weights)
             for w, u in zip(w_t, u_ref)]
    assert total == pytest.approx(sum(t for t, _ in pairs), rel=1e-12, abs=0)
    assert sup == pytest.approx(sum(s for _, s in pairs), rel=1e-12, abs=0)
    assert total == pytest.approx(loss, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["periodic", "forward_step"])
def test_a_two_step_program_on_copies_is_the_sum_of_each_copys(name, gas, seeded_params):
    """At K = 2 on ``Mesh.copies(2)``, with a tiled bc table, the loss and
    gradient equal the sums of each copy's own K = 2 program to 1e-12."""
    weights = train.LossWeights()
    m, bc_table, cfg, w_t, _ = _group_case(name, gas, seeded_params, 2)
    dt = solver.compute_dt(m, cfg)
    refs = [[cons_to_prim(w, gas) for _, w, _ in solver.march(m, w0, dt, 2, cfg.plain(),
                                                              bc_table)] for w0 in w_t]

    def run(mesh, bc, w0, u_refs):
        program, _ = train._loss_program(mesh, cfg, bc, seeded_params, w0, u_refs, weights)
        return ad.record_and_backprop(program, seeded_params.values)

    singles = [run(m, bc_table, w0, u_refs) for w0, u_refs in zip(w_t, refs)]
    loss, grad = run(m.copies(2), bclib.tile_table(bc_table, 2), np.concatenate(w_t),
                     [np.concatenate(pair) for pair in zip(*refs)])
    grad_sum = singles[0][1] + singles[1][1]
    assert loss == pytest.approx(singles[0][0] + singles[1][0], rel=1e-12, abs=0)
    assert np.abs(grad - grad_sum).max() <= 1e-12 * np.abs(grad_sum).max()


def test_a_group_records_the_nodes_of_one_sample_and_two_where(gas, seeded_params,
                                                               monkeypatch):
    """A group of 8 records one sample's nodes and two more: the two
    ``where`` that give a copy whose term is 0 (sample 1's) a zero
    derivative.  One sample is the one-copy group, so it records the
    reshape and the sum of the per-copy supervision terms too."""
    m, _, cfg, w_t, u_ref = _group_case("periodic", gas, seeded_params, 8)
    counts = []
    real = ad.Tape.backward

    def spy(tape, seeds):
        counts.append(tape.node_count)
        return real(tape, seeds)

    monkeypatch.setattr(ad.Tape, "backward", spy)
    weights = train.LossWeights()
    train._sample_loss(m, cfg, {}, seeded_params, w_t[0], u_ref[0], weights)
    train._sample_loss(m.copies(8), cfg, {}, seeded_params, np.concatenate(w_t),
                       np.concatenate(u_ref), weights)
    assert counts == [117, 119]


def _forward_step_group(gas, b):
    """The 504-cell forward step, its bc table, an ml_lsq StepConfig, and b
    states and their plain steps' primitive references."""
    m, bc_table = bench.forward_step_mesh(0.1)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    dt = solver.compute_dt(m, cfg)
    rng = np.random.default_rng(5)
    w_t = [prim_to_cons(smooth_prim_field(m.centroid) * rng.uniform(0.9, 1.1, (m.n_cells, 4)),
                        gas) for _ in range(b)]
    u_ref = [cons_to_prim(solver.step_explicit_euler(m, w, dt, cfg.plain(), bc_table)[0], gas)
             for w in w_t]
    return m, bc_table, cfg, w_t, u_ref


def test_a_traced_group_on_the_forward_step_records_163_nodes(gas, seeded_params, monkeypatch):
    """A group of 8 ml_lsq samples on the 504-cell forward step, whose 80
    ghost states reach the stencils and the faces as the gathers' second
    array.  Joining them to the field and cutting the cells back out
    recorded 299 nodes; converting each state and building its ghost states
    again for the entropy term, and the entropy pair's own copy of the
    primitive algebra, 295; the network recorded op by op, 212; the
    limiter recorded op by op, 176."""
    m, bc_table, cfg, w_t, u_ref = _forward_step_group(gas, 8)
    counts = []
    real = ad.Tape.backward

    def spy(tape, seeds):
        counts.append(tape.node_count)
        return real(tape, seeds)

    monkeypatch.setattr(ad.Tape, "backward", spy)
    train._sample_loss(m.copies(8), cfg, bclib.tile_table(bc_table, 8), seeded_params,
                       np.concatenate(w_t), np.concatenate(u_ref), train.LossWeights())
    assert counts == [163]


def test_a_traced_sample_converts_each_state_and_builds_its_ghosts_once(
        gas, seeded_params, monkeypatch):
    """One ml_lsq sample on the 504-cell forward step: the step builds the
    ghost states of the state at t, and the loss converts the states at t
    and t + dt to primitives and builds their ghost states once each, for
    every term.  Converting and building again for the entropy term made 4
    conversions and 5 ghost builds."""
    m, bc_table, cfg, w_t, u_ref = _forward_step_group(gas, 1)
    calls = {"ghosts": 0, "cons_to_prim": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(bclib, "extend_with_ghosts",
                        counted("ghosts", bclib.extend_with_ghosts))
    monkeypatch.setattr(train, "cons_to_prim", counted("cons_to_prim", train.cons_to_prim))
    train._sample_loss(m, cfg, bc_table, seeded_params, w_t[0], u_ref[0],
                       train.LossWeights())
    assert calls == {"ghosts": 3, "cons_to_prim": 2}


def test_a_group_holding_one_failing_sample_raises_its_serial_error(coarse, gas, monkeypatch):
    """Sample 5 of a batch of 8 in one group has a state whose update is not
    admissible at cell 4; on the copies that cell is 5 * 72 + 4.  The group
    runs its samples alone and raises sample 5's own error, in its one
    marched step."""
    (traj,) = _trajectories(coarse, (0,), steps=8)
    tcfg = train.TrainConfig(epochs=1, batch_size=8, seed=3)
    order = np.random.default_rng(tcfg.seed).permutation(traj.n_pairs)
    frames = traj.frames.copy()
    u = cons_to_prim(frames[order[5]], gas)
    u[17] = (0.01, 0.0, 0.0, 1e6)
    frames[order[5]] = prim_to_cons(u, gas)
    bad = train.Trajectory(family="f3", frames=frames, ic_params={})
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    errors = []
    for group in (1, 8):
        with pytest.raises(solver.SolverError) as info:
            _train_on(monkeypatch, 1, coarse, cfg, [bad], [], tcfg, group=group)
        errors.append((str(info.value), info.value.cell, info.value.step))
    assert errors[1] == errors[0] == (
        "step rejected: non-admissible update (cell=4) (step=1)", 4, 1)


def test_a_minibatch_is_cut_into_near_equal_groups():
    """At 288 cells a group holds at most 14 samples: a minibatch of 16 makes
    two groups of 8, so that two processes share it evenly."""
    assert train._groups(range(16), train.group_samples(288)) == [
        tuple(range(8)), tuple(range(8, 16))]
    assert train._groups(range(5), 2) == [(0,), (1, 2), (3, 4)]
    assert train.batch_groups(16, 288) == 2


def test_a_group_that_fails_runs_its_items_alone():
    """A group that raises, or whose loss is not finite, gives one result
    per item, each run alone; an item that fails alone raises its error."""
    def fn(params, group):
        if 2 in group and len(group) > 1:
            raise solver.SolverError("the group failed", cell=99)
        if group == (5,):
            raise solver.SolverError("item 5 failed", cell=3)
        return (np.inf if 3 in group else float(sum(group)), group)

    run = train._alone_on_error(fn)
    assert run(None, (0, 1)) == [(1.0, (0, 1))]
    assert run(None, (1, 2)) == [(1.0, (1,)), (2.0, (2,))]
    assert run(None, (3, 4)) == [(np.inf, (3,)), (4.0, (4,))]
    with pytest.raises(solver.SolverError, match=r"item 5 failed \(cell=3\)"):
        run(None, (4, 5, 2))


def test_each_epoch_logs_where_its_time_went(coarse, caplog):
    trajs = _trajectories(coarse, (0, 1))
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    with caplog.at_level("INFO", logger="fvgrad.train"):
        result = train.train(coarse, cfg, trajs[:1], trajs[1:],
                             train.TrainConfig(epochs=2, batch_size=2))
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
    assert len(lines) == 2 and len(result.history) == 4
    pattern = (r"epoch (\d): (\d+\.\d{3}) s in minibatches \((\d+\.\d) traced samples/s\), "
               r"(\d+\.\d{3}) s in validation")
    for epoch, line in enumerate(lines):
        match = re.fullmatch(pattern, line)
        assert match, line
        assert int(match[1]) == epoch
        # 4 samples in an epoch, each figure within its printed rounding
        secs, rate = float(match[2]), float(match[3])
        assert (rate - 0.05) * (secs - 0.0005) <= 4 <= (rate + 0.05) * (secs + 0.0005)
