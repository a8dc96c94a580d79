"""The benchmark against the package: its smoke run passes, every name its
tracer wraps resolves, and the spans and hook values the per-layer metrics
read are recorded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fvgrad import bench, solver, train
from fvgrad import mesh as msh
from fvgrad.euler import GasModel, prim_to_cons
from conftest import smooth_prim_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_tracing():
    """perfbench/tracing.py through sys.path, writing no bytecode cache there."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_the_benchmark_smoke_run_passes():
    """``perfbench/run.py --smoke`` in a fresh interpreter: every workload on
    small meshes, traced and untraced, with every metric produced."""
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_tracer_records_the_spans_and_hook_values_of_a_step_and_a_train_call(seeded_params):
    tracing = _import_tracing()
    tracer = tracing.Tracer()     # resolves every TARGETS entry
    mesh = msh.periodic_structured_mesh(6)
    gas = GasModel()
    w0 = prim_to_cons(smooth_prim_field(mesh.centroid), gas)
    cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    dt = solver.compute_dt(mesh, cfg)
    plain = solver.StepConfig(co=0.03, gradient="lsq")
    frames = np.stack([w0] + [w for _, w, _ in solver.march(mesh, w0, dt, 2, plain, {})])
    traj = train.Trajectory(family="f1", frames=frames, ic_params={})

    original = solver.residual
    with tracer.active():
        solver.step_explicit_euler(mesh, w0, dt, cfg, {}, seeded_params)
        result = train.train(mesh, cfg, [traj], [], train.TrainConfig(epochs=1, batch_size=2),
                             init=seeded_params)
    assert not result.aborted
    assert solver.residual is original   # the wrappers are removed again

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[tracing.NAME], []).append(span[tracing.INFO])
    # the per-layer metrics read these spans, the loss's train metrics
    # included; a stage the code stops calling would read 0 there
    for name in ("solver.residual", "solver.rusanov_flux", "euler.prim_to_cons",
                 "recon.venkat_limiter", "mlcorr.masked_alpha", "autodiff.take_rows",
                 "autodiff.Tape.backward", "train.total_loss", "train.loss_entropy",
                 "train.loss_tvd", "euler.entropy_pair"):
        assert name in spans, name
    # the residual sums its slots with an einsum: nothing scatters any more
    assert "autodiff.segment_sum" not in spans
    for name in ("solver.residual", "recon.venkat_limiter", "autodiff.take_rows",
                 "autodiff.Tape.backward"):
        for info in spans[name]:
            assert info and all(np.isfinite(v) for v in info.values()), (name, info)
    # the tape is read after backward returns, so it must still hold its nodes
    assert all(info["nodes"] > 0 for info in spans["autodiff.Tape.backward"])


# the wrapped stages a step on a mesh with boundary faces calls, which the
# benchmark's per-layer step metrics read; a stage the step stops calling
# would read 0 there
STEP_STAGES = ("bc.extend_with_ghosts", "recon.neighbor_values", "recon.venkat_limiter",
               "recon.muscl_face_values", "solver.rusanov_flux", "euler.cons_to_prim",
               "autodiff.take_rows")
MODE_STAGES = {"ml_lsq": ("recon.neighbor_deltas", "recon.gradient_lsq", "mlcorr.masked_alpha"),
               "gg": ("recon.gradient_gg",)}


def test_a_step_on_a_bounded_mesh_calls_every_stage_the_step_metrics_read(seeded_params):
    tracing = _import_tracing()
    mesh, bc_table = bench.forward_step_mesh(0.2)
    w0 = prim_to_cons(smooth_prim_field(mesh.centroid), GasModel())
    for mode, stages in MODE_STAGES.items():
        tracer = tracing.Tracer()
        cfg = solver.StepConfig(co=0.03, gradient=mode)
        with tracer.active():
            solver.step_explicit_euler(mesh, w0, solver.compute_dt(mesh, cfg), cfg, bc_table,
                                       seeded_params)
        seen = {span[tracing.NAME] for span in tracer.spans}
        missing = [name for name in STEP_STAGES + stages if name not in seen]
        assert missing == [], (mode, missing)
