import numpy as np
import pytest

from fvgrad import autodiff as ad
from fvgrad import bench, recon, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import cons_to_prim, prim_to_cons
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
