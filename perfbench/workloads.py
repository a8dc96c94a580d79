"""Workloads, the closed op loop and the metrics of the fvgrad benchmark.

One process and one caller thread run each workload as a closed loop: the
next op starts when the previous one has returned.  A round is one solver
step in each gradient mode on the same bank state; every ``train_every``
rounds one ``train.train`` call follows.  Ops call only the package's
public functions.

A run makes a fixed number of rounds, sized from ``--seconds`` and the
workload's nominal round time, rather than stopping at a deadline.  Every
op's outcome is a function of the seed alone (the repeat check enforces
it), so a fixed schedule makes the attempted and failed op counts the same
on every run with the same seed and seconds, however fast the host is.

The speed of a shared host drifts by 30% or more over tens of seconds, alike
for every op, and the drift is longer than a run.  So each round also
times a fixed numpy kernel, and the end-to-end timings are wall times
scaled to the host speed at which that kernel takes ``REF_NOMINAL_S``: an
op's time is multiplied by ``REF_NOMINAL_S`` over the median kernel time of
the rounds around it.  The kernel uses numpy alone, so no change to the
package can change it.  The unscaled medians are printed beside them.
"""

import gc
import hashlib
import resource
import time
from dataclasses import dataclass

import numpy as np

import inputs
from fvgrad import autodiff, bench, mlcorr, solver, train
from fvgrad import mesh as msh
from tracing import Tracer

MODES = ("lsq", "gg", "ml_lsq", "ml_gg")
SETUP_REPEATS = 5
BANK_SIZE = 8
TRAIN_FRAMES = 17
TRAIN_CO = 0.03   # the package's default dataset Courant number
CONSERVATION_TOL = 1e-12
REF_NOMINAL_S = 0.0053  # the reference kernel's typical time on a 2-vCPU Xeon host
REF_WINDOW = 2         # rounds on each side whose kernel times scale an op

# the default DatasetSpec mix: half smooth, a quarter each discontinuous
PERIODIC_TRAIN_MIX = ("smooth", "disk_quadrant", "smooth", "quadrant")
CHANNEL_TRAIN_MIX = ("channel_smooth", "channel_jump")


def _periodic(make_mesh, n_full, n_smoke):
    return lambda smoke: (make_mesh(n_smoke if smoke else n_full), {})


def _channel(h_full, h_smoke):
    return lambda smoke: bench.forward_step_mesh(h_smoke if smoke else h_full)


@dataclass(frozen=True)
class Workload:
    build_step: object    # smoke flag -> (mesh, bc_table) for the step ops
    build_train: object   # same for the train ops; None trains on the step mesh
    step_families: tuple  # bank states alternate over these
    train_families: tuple
    step_co: float
    train_every: int
    round_s: float        # nominal seconds per round, train calls included,
                          # measured on a 2-vCPU Xeon host


WORKLOADS = {
    "sim-20k": Workload(_periodic(msh.periodic_irregular_mesh, 100, 6),
                        _periodic(msh.periodic_irregular_mesh, 27, 6),
                        ("smooth", "quadrant"), PERIODIC_TRAIN_MIX, 0.01, 2, 0.71),
    "train-1k5": Workload(_periodic(msh.periodic_structured_mesh, 27, 6), None,
                          ("smooth", "quadrant"), PERIODIC_TRAIN_MIX, TRAIN_CO, 1, 0.30),
    "channel-12k": Workload(_channel(0.02, 0.2), _channel(0.1, 0.2),
                            ("channel_smooth", "channel_jump"), CHANNEL_TRAIN_MIX,
                            0.01, 2, 0.33),
}


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _mesh_bytes(mesh):
    return sum(a.nbytes for a in vars(mesh).values() if isinstance(a, np.ndarray))


_REF_ARRAY = np.random.default_rng(0).random((1458, 4))


def reference_s():
    """Seconds of the host-speed reference kernel: a loop of numpy ops on a
    small array.  Over a run's drift its time follows the package's steps
    and training calls with a slope near 1, where a memory-bound gather
    follows them with a slope near 0.65."""
    t0 = time.perf_counter()
    x = _REF_ARRAY
    for _ in range(400):
        x = np.maximum(np.minimum(x * 1.0001, 2.0), -2.0)
    return time.perf_counter() - t0


def _reference_median_s(n=5):
    return float(np.median([reference_s() for _ in range(n)]))


# ---------------------------------------------------------------------------
# set-up and inputs
# ---------------------------------------------------------------------------

def setup(wl, smoke):
    """Build the workload's meshes SETUP_REPEATS times; keep the last build.
    Each build's time is also scaled by the reference kernel, timed five
    times just before and five times just after it."""
    times = {"setup_s": [], "setup_unscaled_s": [], "mesh.build_s": [],
             "mesh.refine_s": []}
    ref_before = _reference_median_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        step_mesh, step_bc = wl.build_step(smoke)
        train_mesh, train_bc = (wl.build_train(smoke) if wl.build_train
                                else (step_mesh, step_bc))
        t1 = time.perf_counter()
        fine, pm = msh.refine_uniform(train_mesh)
        t2 = time.perf_counter()
        ref_after = _reference_median_s()
        times["setup_s"].append((t2 - t0) * REF_NOMINAL_S / (0.5 * (ref_before + ref_after)))
        times["setup_unscaled_s"].append(t2 - t0)
        ref_before = ref_after
        times["mesh.build_s"].append(t1 - t0)
        times["mesh.refine_s"].append(t2 - t1)
    meshes = {"step": (step_mesh, step_bc), "train": (train_mesh, train_bc),
              "fine": fine, "pm": pm}
    return meshes, times


def make_inputs(wl, meshes, seed):
    """Bank states, network parameters and trajectories from the seed."""
    bank_ss, param_ss, traj_ss = np.random.SeedSequence(seed).spawn(3)
    step_mesh, _ = meshes["step"]
    train_mesh, _ = meshes["train"]
    families = [wl.step_families[i % len(wl.step_families)] for i in range(BANK_SIZE)]
    project_s = []
    trajs = []
    traj_rng = np.random.default_rng(traj_ss)
    for fam in wl.train_families:
        frames = inputs.trajectory_frames(train_mesh, meshes["fine"], meshes["pm"],
                                          fam, TRAIN_FRAMES, traj_rng, project_s)
        trajs.append(train.Trajectory(family=fam, frames=frames, ic_params={}))
    return {
        "bank": inputs.state_bank(step_mesh, families, np.random.default_rng(bank_ss)),
        "params": inputs.network_params(np.random.default_rng(param_ss)),
        "trajs": trajs,
        "project_s": project_s,
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Record:
    kind: str          # a gradient mode, or "train"
    seconds: float
    error: str         # None, "SolverError", "TraceError" or "aborted"
    samples: int = 1
    traced: bool = False
    root: int = -1     # root span index when traced
    round: int = 0     # loop round the op ran in
    scale: float = 1.0  # REF_NOMINAL_S over the reference time around the op


def _step(mesh, bc_table, w, cfg, params):
    dt = solver.compute_dt(mesh, cfg)
    t0 = time.perf_counter()
    try:
        w_next, diag = solver.step_explicit_euler(mesh, w, dt, cfg, bc_table, params)
    except solver.SolverError as exc:
        return time.perf_counter() - t0, None, None, exc
    return time.perf_counter() - t0, w_next, diag, None


def _step_outcome(w_next, exc):
    """What a step produced, as a string that is equal only for equal results."""
    return f"error:{exc}" if exc is not None else _digest(w_next)


class Runner:
    """Runs one workload's ops and keeps their records and check state."""

    def __init__(self, wl, meshes, data, tracer=None):
        self.wl = wl
        self.meshes = meshes
        self.data = data
        self.tracer = tracer
        self.records = []
        self.refs = []     # reference kernel seconds, one per loop round
        self.round = 0
        self.outcomes = {}
        self.step_cfg = {m: solver.StepConfig(co=wl.step_co, gradient=m) for m in MODES}
        self.train_cfg = solver.StepConfig(co=TRAIN_CO, gradient="ml_lsq")
        self.tcfg = train.TrainConfig(epochs=1, batch_size=16)

    def _repeat_check(self, key, outcome):
        first = self.outcomes.setdefault(key, outcome)
        _check(first == outcome, f"repeating op {key} gave a different result")

    def step(self, state_idx, mode, traced):
        mesh, bc_table = self.meshes["step"]
        w = self.data["bank"][state_idx]
        cfg = self.step_cfg[mode]
        params = self.data["params"] if cfg.uses_network else None
        root = -1
        if traced:
            with self.tracer.active(), self.tracer.span(f"op.{mode}") as root:
                secs, w_next, diag, exc = _step(mesh, bc_table, w, cfg, params)
        else:
            secs, w_next, diag, exc = _step(mesh, bc_table, w, cfg, params)
        self.records.append(Record(mode, secs, exc and type(exc).__name__,
                                   traced=traced, root=root, round=self.round))
        self._repeat_check((state_idx, mode), _step_outcome(w_next, exc))
        if exc is None:
            _check(np.all(np.isfinite(w_next)), f"non-finite state after a {mode} step")
            _check(all(np.isfinite(v) for v in diag.values()),
                   f"non-finite diagnostics after a {mode} step")
            if mesh.n_ghost == 0:
                before = (mesh.area[:, None] * w).sum(axis=0)
                after = (mesh.area[:, None] * w_next).sum(axis=0)
                scale = (mesh.area[:, None] * np.abs(w)).sum(axis=0)
                rel = np.max(np.abs(after - before) / scale)
                _check(rel <= CONSERVATION_TOL,
                       f"{mode} step changed the conserved totals by {rel:.3g} (relative)")

    def train_op(self, traj_idx, traced):
        mesh, bc_table = self.meshes["train"]
        traj = self.data["trajs"][traj_idx]
        root = -1
        if traced:
            with self.tracer.active(), self.tracer.span("op.train") as root:
                secs, result, error = self._train(mesh, bc_table, traj)
        else:
            secs, result, error = self._train(mesh, bc_table, traj)
        self.records.append(Record("train", secs, error, traj.n_pairs, traced, root,
                                   self.round))
        if result is None:
            self._repeat_check(("train", traj_idx), error)
            return
        _check(all(np.isfinite(row["total"]) for row in result.history),
               "a successful train call returned a non-finite loss")
        _check(np.all(np.isfinite(result.params.values)),
               "a successful train call returned non-finite parameters")
        self._repeat_check(("train", traj_idx),
                           error or _digest(result.params.values))

    def _train(self, mesh, bc_table, traj):
        # The tape's nodes and closures form reference cycles; collecting
        # them inside the timed region charges their cost to the call that
        # made them rather than to whichever later op triggers the collector.
        t0 = time.perf_counter()
        result = error = None
        try:
            result = train.train(mesh, self.train_cfg, [traj], [], self.tcfg,
                                 bc_table=bc_table, init=self.data["params"])
        except (solver.SolverError, autodiff.TraceError) as exc:
            error = type(exc).__name__
        gc.collect()
        if result is not None and result.aborted:
            error = "aborted"
        return time.perf_counter() - t0, result, error

    def warm_up(self):
        for mode in MODES:
            self.step(0, mode, False)
        self.train_op(0, False)
        reference_s()
        self.records.clear()

    def loop(self, seconds):
        """Closed loop of the rounds that last about ``seconds`` at the
        workload's nominal round time.  With a tracer, whole cycles through
        the bank (and through the trajectories) alternate between untraced
        and traced, and the loop runs at least two cycles of each."""
        n_bank, n_traj = len(self.data["bank"]), len(self.data["trajs"])
        min_cycles = 2 if self.tracer else 1
        n_rounds = round(seconds / self.wl.round_s)
        r = j = 0
        while r < n_rounds or r < min_cycles * n_bank or j < min_cycles * n_traj:
            traced = self.tracer is not None and (r // n_bank) % 2 == 1
            self.round = r
            for mode in MODES:
                self.step(r % n_bank, mode, traced)
            self.refs.append(reference_s())
            r += 1
            if r % self.wl.train_every == 0:
                traced = self.tracer is not None and (j // n_traj) % 2 == 1
                self.train_op(j % n_traj, traced)
                j += 1
        for rec in self.records:
            window = self.refs[max(0, rec.round - REF_WINDOW):rec.round + REF_WINDOW + 1]
            rec.scale = REF_NOMINAL_S / float(np.median(window))


def check_zero_params(runner):
    """At zero parameters the corrected modes equal the plain ones bitwise."""
    mesh, bc_table = runner.meshes["step"]
    w = runner.data["bank"][0]
    zero = mlcorr.zero_params()
    for plain in ("lsq", "gg"):
        out = []
        for mode, params in ((plain, None), (f"ml_{plain}", zero)):
            _, w_next, _, exc = _step(mesh, bc_table, w, runner.step_cfg[mode], params)
            out.append(_step_outcome(w_next, exc))
        _check(out[0] == out[1], f"ml_{plain} at zero parameters differs from {plain}")


def check_gradients(runner):
    mesh, bc_table = runner.meshes["train"]
    report = train.gradient_check(mesh, bc_table=bc_table, param_sample=8)
    _check(report["pass"], f"train.gradient_check failed: {report}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None below 20 samples), and the sample count."""
    v = np.asarray(values, dtype=float)
    p = next((q for q in PERCENTILES if v.size * (1.0 - q / 100.0) >= 10), None)
    return {"median": float(np.median(v)), "p": p,
            "p_value": None if p is None else float(np.percentile(v, p)),
            "n": int(v.size)}


def _op_ms(records, kind, traced, scaled=False):
    """ms per attempted step, or per sample of each successful train call;
    scaled to the reference host speed if ``scaled``."""
    return [1e3 * r.seconds / r.samples * (r.scale if scaled else 1.0) for r in records
            if r.kind == kind and r.traced == traced
            and (kind != "train" or r.error is None)]


def end_to_end(records, setup_times, refs):
    """Timing summaries of the untraced ops, keyed by metric name, scaled to
    the reference host speed; their unscaled medians and the reference
    kernel's median time under ``unscaled``."""
    out = {"setup_s": summarize(setup_times["setup_s"])}
    unscaled = {"setup_s": float(np.median(setup_times["setup_unscaled_s"])),
                "reference_ms": 1e3 * float(np.median(refs))}
    kinds = [(f"step_ms.{mode}", mode) for mode in MODES] + [("train_sample_ms", "train")]
    for metric, kind in kinds:
        if not _op_ms(records, kind, False):
            raise CheckFailed(f"no {kind} op succeeded, so {metric} is undefined")
        out[metric] = summarize(_op_ms(records, kind, False, scaled=True))
        unscaled[metric] = float(np.median(_op_ms(records, kind, False)))
    out["unscaled"] = unscaled
    return out


STEP_LAYERS = {
    "recon.gather_ms": ("recon.neighbor_values", "recon.neighbor_deltas"),
    "recon.gradient_ms": ("recon.gradient_gg", "recon.gradient_lsq"),
    "recon.limiter_ms": ("recon.venkat_limiter",),
    "recon.muscl_ms": ("recon.muscl_face_values",),
    "autodiff.take_rows_ms": ("autodiff.take_rows",),
    "solver.scatter_ms": ("autodiff.segment_sum",),
    "solver.flux_ms": ("solver.rusanov_flux",),
    "euler.convert_ms": ("euler.cons_to_prim", "euler.prim_to_cons"),
    "solver.step_self_ms": ("solver.step_explicit_euler", "solver.residual"),
    "mlcorr.alpha_ms": ("mlcorr.masked_alpha",),
    "bc.ghosts_ms": ("bc.extend_with_ghosts",),
}


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def per_layer(records, tracer, setup_times, meshes, data):
    """Layer metrics from the traced ops: step stages as self time per step,
    tape and loss stages per training sample."""
    roots = tracer.per_root()
    steps = [roots[r.root] for r in records if r.traced and r.kind != "train"]
    trains = [roots[r.root] for r in records
              if r.traced and r.kind == "train" and r.error is None]
    out = {}
    for metric, names in STEP_LAYERS.items():
        out[metric] = _mean([1e3 * sum(s["self"].get(n, 0.0) for n in names)
                             for s in steps])

    def infos(roots_, name, key):
        return [i[key] for s in roots_ for i in s["info"].get(name, [])]

    def per_step_sum(name, key):
        return _mean([sum(i[key] for i in s["info"].get(name, [])) for s in steps])

    out["autodiff.take_rows_bytes"] = per_step_sum("autodiff.take_rows", "bytes")
    out["autodiff.segment_sum_bytes"] = per_step_sum("autodiff.segment_sum", "bytes")
    out["bc.clamps"] = per_step_sum("solver.residual", "clamps")
    out["recon.fallback_cells"] = per_step_sum("solver.residual", "fallback")
    out["solver.cfl"] = _mean(infos(steps, "solver.residual", "cfl"))
    out["recon.limiter_active_frac"] = _mean(infos(steps, "recon.venkat_limiter", "active"))

    def total(name):
        return sum(s["total"].get(name, 0.0) for s in trains)

    n_samples = sum(s["count"].get("autodiff.record_and_backprop", 0) for s in trains)
    n_lion = sum(s["count"].get("train.lion_step", 0) for s in trains)
    _check(n_samples > 0 and n_lion > 0,
           "no traced train call succeeded, so the tape metrics are undefined")
    backward = total("autodiff.Tape.backward")
    record = total("autodiff.record_and_backprop") - backward
    out["autodiff.record_ms"] = 1e3 * record / n_samples
    out["autodiff.backward_ms"] = 1e3 * backward / n_samples
    out["autodiff.bwd_fwd_ratio"] = backward / record
    out["autodiff.tape_nodes"] = _mean(infos(trains, "autodiff.Tape.backward", "nodes"))
    for metric, name in (("train.loss_ms", "train.total_loss"),
                         ("train.loss_tvd_ms", "train.loss_tvd"),
                         ("train.loss_entropy_ms", "train.loss_entropy")):
        out[metric] = 1e3 * total(name) / n_samples
    out["train.lion_ms"] = 1e3 * total("train.lion_step") / n_lion

    calls = [r for r in records if r.kind == "train"]
    for metric, error in (("train.failures.solver", "SolverError"),
                          ("train.failures.trace", "TraceError")):
        out[metric] = sum(r.error == error for r in calls) / len(calls)
    out["failed_frac"] = sum(r.error is not None for r in records) / len(records)

    out["mesh.build_s"] = float(np.median(setup_times["mesh.build_s"]))
    out["mesh.refine_s"] = float(np.median(setup_times["mesh.refine_s"]))
    out["mesh.project_ms"] = 1e3 * float(np.median(data["project_s"]))
    meshes_ = {id(m): m for m in (meshes["step"][0], meshes["train"][0], meshes["fine"])}
    out["mesh.bytes"] = sum(_mesh_bytes(m) for m in meshes_.values())

    traced_ms = untraced_ms = 0.0
    for kind in MODES + ("train",):
        t, u = _op_ms(records, kind, True), _op_ms(records, kind, False)
        if t and u:
            traced_ms += float(np.median(t))
            untraced_ms += float(np.median(u))
    out["trace_overhead_frac"] = traced_ms / untraced_ms - 1.0
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(records):
    counts = {"attempted": len(records),
              "failed": sum(r.error is not None for r in records), "by_kind": {}}
    for r in records:
        kind = counts["by_kind"].setdefault(r.kind, {"attempted": 0})
        kind["attempted"] += 1
        if r.error is not None:
            kind[r.error] = kind.get(r.error, 0) + 1
    return counts


def run(name, seed, seconds, trace, smoke=False):
    """One benchmark run.  Returns (report, counts, tracer): metric values
    keyed by name, the attempted and failed op counts in total and per op
    kind, and the tracer of a traced run (else None).  A failed correctness
    check raises CheckFailed carrying the counts so far."""
    wl = WORKLOADS[name]
    meshes, setup_times = setup(wl, smoke)
    data = make_inputs(wl, meshes, seed)
    tracer = Tracer() if trace else None
    runner = Runner(wl, meshes, data, tracer)
    try:
        check_zero_params(runner)
        if name == "train-1k5":
            check_gradients(runner)
        runner.warm_up()
        runner.loop(seconds)
        if trace:
            report = per_layer(runner.records, tracer, setup_times, meshes, data)
        else:
            report = end_to_end(runner.records, setup_times, runner.refs)
            report["peak_rss_mb"] = peak_rss_mb()
    except CheckFailed as exc:
        exc.counts = _counts(runner.records)
        raise
    return report, _counts(runner.records), tracer
