"""Dataset generation, the regularized loss, and the optimization loop.

Reference data comes from the plain solver on a one-level refinement of the
training mesh, projected back by area-weighted means, so every coarse frame
has a matching fine-grid truth at the same time instant.  Supervision is
one step: from the projected state at t, one corrected solver step is
compared against the projected reference at t + dt.

The total loss is the relative-L2 supervision error (scaled by 100) plus
entropy-inequality, total-variation-growth and L1 parameter penalties.
Optimization uses a sign-of-momentum (Lion-style) update with an
exponentially decaying learning rate.

Independent work runs on every CPU the process may run on (``workers``):
the traced samples of a minibatch, the untraced validation pairs and the
dataset's trajectories.  ``_Shares`` forks its children once per training
run (or dataset), and each inherits the mesh and the data copy-on-write;
per minibatch only the parameters and the sample indices go down a pipe.
It cuts the items into contiguous shares, the caller runs the first and
the children the rest.  Each item's result is computed exactly as the
serial loop computes it, and the caller combines the results in item
order, so parameters, history, checkpoints and dataset files are bitwise
the same for any CPU count.  One tape per process fits where one tape over
the whole batch does not: a sample's tape peaks at 12.2 MB (tracemalloc)
on the 1,458-cell mesh, 11.3 MB of it the forward pass, and threads gain
nothing on the tape's small numpy calls.

From Python 3.12 on, forking a process that runs threads, such as the
step's block pool (``solver``), raises a DeprecationWarning.  The fork is
safe here: a step joins its blocks before it returns, so no pool thread
holds a lock when a child forks; a traced step runs as one block and never
reaches a pool, and an untraced one in a child builds the child's own.
"""

import hashlib
import json
import logging
import os
import pickle
import signal
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bc as bclib
from . import mlcorr, recon, solver
from .euler import GasModel, cons_to_prim, entropy_pair, prim_to_cons

log = logging.getLogger(__name__)

FAMILIES = ("f1", "f2", "f3")


# ---------------------------------------------------------------------------
# initial-condition samplers on [0,1]^2
# ---------------------------------------------------------------------------

def draw_ic_params(family, rng, max_amp=6.0):
    """Draw the random parameters of one initial-condition family."""
    if family == "f1":
        return {"a": rng.uniform(0.0, 1.0, 8), "phi": rng.uniform(0.0, 1.0, 2)}
    if family == "f2":
        return {"p": rng.uniform(0.0, 1.0, (4, 5))}
    if family == "f3":
        return {"p": rng.uniform(0.0, 1.0, (4, 4))}
    raise ValueError(f"unknown family {family!r}")


def _quadrant_index(x, y):
    q = np.empty(x.shape, dtype=np.int64)
    q[(x < 0.5) & (y < 0.5)] = 0
    q[(x >= 0.5) & (y < 0.5)] = 1
    q[(x < 0.5) & (y >= 0.5)] = 2
    q[(x >= 0.5) & (y >= 0.5)] = 3
    return q


def _disk_quadrant_field(points, p):
    """Center disk of radius 0.125 plus the four quadrants (5 values)."""
    x, y = points[:, 0], points[:, 1]
    vals = p[1 + _quadrant_index(x, y)]
    disk = np.hypot(x - 0.5, y - 0.5) <= 0.125
    return np.where(disk, p[0], vals)


def _quadrant_field(points, p):
    return p[_quadrant_index(points[:, 0], points[:, 1])]


def evaluate_ic(family, params, points, max_amp=6.0):
    """Primitive field (rho, u, v, p) of a drawn initial condition."""
    points = np.asarray(points)
    x, y = points[:, 0], points[:, 1]
    if family == "f1":
        a = params["a"]
        s0 = np.sin(4 * np.pi * x + params["phi"][0] * np.pi)
        s1 = np.sin(4 * np.pi * y + params["phi"][1] * np.pi)
        rho = 0.5 * max_amp * (a[0] * s0 + a[1] * s1 + a[0] + a[1] + 0.1)
        u = 3.0 * (a[2] * s0 + a[3] * s1)
        v = 3.0 * (a[4] * s0 + a[5] * s1)
        p = 0.5 * max_amp * (a[6] * s0 + a[7] * s1 + a[6] + a[7] + 0.1)
    elif family == "f2":
        pp = params["p"]
        rho = _disk_quadrant_field(points, max_amp * pp[0] + 0.5)
        u = _disk_quadrant_field(points, max_amp * pp[1])
        v = _disk_quadrant_field(points, max_amp * pp[2])
        p = _disk_quadrant_field(points, max_amp * pp[3] + 0.2)
    elif family == "f3":
        pp = params["p"]
        rho = _quadrant_field(points, max_amp * pp[0] + 0.5)
        u = _quadrant_field(points, max_amp * pp[1])
        v = _quadrant_field(points, max_amp * pp[2])
        p = _quadrant_field(points, max_amp * pp[3] + 0.2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.column_stack([rho, u, v, p])


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass
class DatasetSpec:
    count: int = 8
    mix: tuple = (0.5, 0.25, 0.25)
    steps: int = 2000
    co: float = 0.03
    max_amp: float = 6.0
    seed: int = 0
    n_val: int = 4

    def __post_init__(self):
        if len(self.mix) != len(FAMILIES) or not all(f >= 0 for f in self.mix):
            raise ValueError(f"family mix needs {len(FAMILIES)} fractions >= 0")
        if abs(sum(self.mix) - 1.0) > 1e-12:
            raise ValueError("family mix fractions must sum to 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.count < 1 or self.n_val < 0:
            raise ValueError("count must be >= 1 and n_val >= 0")

    def families(self, count=None):
        count = self.count if count is None else count
        counts = [int(round(f * count)) for f in self.mix]
        while sum(counts) > count:
            counts[int(np.argmax(counts))] -= 1
        while sum(counts) < count:
            counts[int(np.argmin(counts))] += 1
        out = []
        for fam, c in zip(FAMILIES, counts):
            out.extend([fam] * c)
        return out


@dataclass
class Trajectory:
    family: str
    frames: np.ndarray      # (steps+1, n_coarse, 4) projected reference, conservative
    ic_params: dict

    @property
    def n_pairs(self):
        return self.frames.shape[0] - 1


def reference_trajectory(coarse, fine, pm, w0_fine, steps, co, gas=GasModel()):
    """Fine-grid rollout projected onto the coarse mesh at every coarse step."""
    cfg = solver.StepConfig(co=co, gradient="lsq", gas=gas)
    dt = solver.compute_dt(coarse, cfg)
    refs = solver.reference(coarse, fine, pm, w0_fine, dt, steps, cfg)
    return np.stack([w for _, w in refs])


def generate_dataset(spec, coarse, fine, pm, gas=GasModel(), out_dir=None):
    """Reference trajectories for training and validation.

    Returns (train, val) lists of Trajectory.  With out_dir set, writes one
    frame file per trajectory plus a manifest with seeds and content hashes.
    """
    ss = np.random.SeedSequence(spec.seed)
    seeds = ss.spawn(spec.count + spec.n_val)
    fams = spec.families() + spec.families(spec.n_val)

    def make(j):
        fam = fams[j]
        tag = f"train_{j}" if j < spec.count else f"val_{j - spec.count}"
        rng = np.random.default_rng(seeds[j])
        params = draw_ic_params(fam, rng, spec.max_amp)
        u0 = evaluate_ic(fam, params, fine.centroid, spec.max_amp)
        w0 = prim_to_cons(u0, gas)
        frames = reference_trajectory(coarse, fine, pm, w0, spec.steps, spec.co, gas)
        log.info("dataset trajectory %s (%s): %d frames", tag, fam, frames.shape[0])
        return Trajectory(family=fam, frames=frames, ic_params=params)

    n = spec.count + spec.n_val
    with _Shares([make], n) as shares:
        trajs = shares.map(make, range(n))
    train, val = trajs[:spec.count], trajs[spec.count:]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        entries = []
        cfg = solver.StepConfig(co=spec.co)
        dt = solver.compute_dt(coarse, cfg)
        for kind, trajs in (("train", train), ("val", val)):
            for i, tr in enumerate(trajs):
                name = f"{kind}_{i:03d}.frames"
                times = [k * dt for k in range(tr.frames.shape[0])]
                solver.write_frames(out / name, times, tr.frames)
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                entries.append({"file": name, "kind": kind, "family": tr.family,
                                "sha256": digest})
        manifest = {"spec": asdict(spec), "frames_per_trajectory": spec.steps,
                    "trajectories": entries}
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return train, val


# ---------------------------------------------------------------------------
# independent items on every CPU
# ---------------------------------------------------------------------------

def workers(n_items):
    """Processes ``_Shares`` runs n_items items in: one per CPU this process
    may run on (the rule of ``solver.step_workers``), at most one per item,
    and one where the platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(solver._cpus(), n_items))


class _Shares:
    """Maps over items in contiguous shares, on ``workers(n_items)`` processes.

    The children are forked once, when the object is made, and serve every
    ``map`` until ``close``.  So a training run forks once, not once per
    minibatch: each fork write-protects the caller's whole heap, and forking
    a process that holds a default-sized dataset takes about 13 ms.

    ``map(fn, items, *args)`` returns ``[fn(*args, x) for x in items]``,
    where fn is one of the functions the object was made with and args
    pickle.  The caller runs the first share; each child receives fn's
    index, args and its share through a pipe and sends back the results it
    finished.  A child stops at its first failing item, and the caller runs
    the rest of that share itself, so the error of the first failing item in
    item order is raised here, natively, with its type, message and
    attributes.  A child that died, or was never forked because the system
    had no process to spare, leaves its shares to the caller.  Leaving the
    ``with`` block, or any error raised inside ``map``, kills and reaps
    every child.
    """

    def __init__(self, fns, n_items):
        self.fns = list(fns)
        self.children = []
        try:
            for _ in range(workers(n_items) - 1):
                child = _fork_worker(self.fns)
                if child is None:
                    break
                self.children.append(child)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def map(self, fn, items, *args):
        items = list(items)
        k = max(1, min(len(self.children) + 1, len(items)))
        cuts = [len(items) * b // k for b in range(k + 1)]
        shares = [items[cuts[b]:cuts[b + 1]] for b in range(k)]
        children = self.children[:k - 1]
        try:
            for (_, requests, _), share in zip(children, shares[1:]):
                try:
                    pickle.dump((self.fns.index(fn), args, share), requests,
                                pickle.HIGHEST_PROTOCOL)
                    requests.flush()
                except BrokenPipeError:     # a dead child: it sends nothing
                    pass
            results = [fn(*args, x) for x in shares[0]]
            for (_, _, replies), share in zip(children, shares[1:]):
                done = _received(replies)
                results += done + [fn(*args, x) for x in share[len(done):]]
            return results
        except BaseException:
            self.close()
            raise

    def close(self):
        children, self.children = self.children, []
        for pid, requests, replies in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            for pipe in (requests, replies):
                try:
                    pipe.close()
                except BrokenPipeError:     # unsent bytes of an interrupted map
                    pass


def _fork_worker(fns):
    """Fork a child that serves ``_Shares.map``; returns (pid, request
    writer, reply reader), or None where the system has no process to spare.

    For each request the child computes every result it can before it
    writes any, so a full pipe never stalls it while the caller runs its
    own share.  It sends the count, then pickles the results one by one,
    dropping each once it is sent (a 2,001-frame trajectory on the
    1,458-cell mesh is 93 MB).  It leaves with ``os._exit`` when the
    request pipe closes or anything goes wrong: no exit handler, buffered
    output or test hook of the parent runs twice.
    """
    req_r, req_w = os.pipe()
    rep_r, rep_w = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        log.warning("fork failed (%s); the caller runs the share", exc)
        for fd in (req_r, req_w, rep_r, rep_w):
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(req_w)
            os.close(rep_r)
            with open(req_r, "rb") as requests, open(rep_w, "wb") as replies:
                while True:
                    j, args, share = pickle.load(requests)
                    done = []
                    try:
                        for x in share:
                            done.append(fns[j](*args, x))
                    except Exception:   # the caller re-runs the item and raises
                        pass
                    pickle.dump(len(done), replies, pickle.HIGHEST_PROTOCOL)
                    done.reverse()
                    while done:
                        pickle.dump(done.pop(), replies, pickle.HIGHEST_PROTOCOL)
                    replies.flush()
        finally:
            os._exit(0)
    os.close(req_r)
    os.close(rep_w)
    return pid, open(req_w, "wb"), open(rep_r, "rb")


def _received(replies):
    """The results a child sent for one request, up to the first it did not
    finish sending."""
    done = []
    try:
        for _ in range(pickle.load(replies)):
            done.append(pickle.load(replies))
    except (EOFError, pickle.UnpicklingError):
        pass
    return done


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossWeights:
    tvd: float = 1e-6
    ent: float = 1e5
    reg: float = 1e-4

    def __post_init__(self):
        if min(self.tvd, self.ent, self.reg) < 0:
            raise ValueError("loss weights must be nonnegative")


def loss_supervision(u_ml, u_ref):
    """100 * ||u_ml - u_ref||_2 / ||u_ref||_2 over all cells and variables;
    0 with a zero derivative where u_ml equals u_ref, as for flat cells in
    ``_grad_norm_lsq``."""
    ref_norm = float(np.linalg.norm(ad.value_of(u_ref)))
    if ref_norm == 0.0:
        raise ValueError("reference field has zero norm; cannot normalize")
    diff = u_ml - u_ref
    sq = ad.sum(diff * diff)
    if ad.value_of(sq) == 0.0:
        return 0.0 * sq
    return 100.0 * ad.sqrt(sq) / ref_norm


def _prim(w, gas):
    """Primitive (4, N) field of a conservative (4, N) one."""
    return ad.transpose(cons_to_prim(ad.transpose(w), gas, check=False))


def _entropy_ext(mesh, w, bc_table, gas):
    """Entropy eta on the cells and the entropy flux as one (2, N + n_ghost)
    field, its ghost entries from the primitive ghost states."""
    eta, qx, qy = entropy_pair(ad.transpose(w), gas)
    if mesh.n_ghost:
        rows, _ = bclib.ghost_rows(mesh, _prim(w, gas), bc_table, gas)
        w_g = prim_to_cons(ad.transpose(rows), gas, check=False)
        _, qx_g, qy_g = entropy_pair(w_g, gas, check=False)
        qx, qy = ad.concatenate([qx, qx_g]), ad.concatenate([qy, qy_g])
    return eta, ad.stack([qx, qy], axis=0)


def _divergence(mesh, q_ext):
    """Green-Gauss divergence of a (2, N + n_ghost) vector field."""
    gx, gy = recon.gradient_gg(mesh, q_ext)
    return gx[0] + gy[1]


def loss_entropy(mesh, w_prev, w_next, dt, gas=GasModel(), bc_table=None):
    """Mean squared positive part of the discrete entropy-inequality residual
    between two (4, N) conservative states."""
    bc_table = bc_table or {}
    eta0, q0 = _entropy_ext(mesh, w_prev, bc_table, gas)
    eta1, q1 = _entropy_ext(mesh, w_next, bc_table, gas)
    r = (mesh.area * (eta1 - eta0)
         + (mesh.area * dt / 2.0) * (_divergence(mesh, q1) + _divergence(mesh, q0)))
    pos = ad.maximum(0.0, r)
    return ad.sum(pos * pos) / mesh.n_cells


def _grad_norm_lsq(mesh, u_ext):
    """Per-cell |grad u|; 0 with a zero derivative where the field is flat."""
    gx, gy = recon.gradient_lsq(mesh, u_ext)
    g2 = ad.sum(gx * gx + gy * gy, axis=0)
    flat = ad.value_of(g2) == 0.0
    return ad.where(flat, 0.0, ad.sqrt(ad.where(flat, 1.0, g2)))


def loss_tvd(mesh, u_prev_ext, u_next_ext):
    """Positive growth of the per-cell gradient magnitude between two
    extended (4, N + n_ghost) primitive fields."""
    g0 = _grad_norm_lsq(mesh, u_prev_ext)
    g1 = _grad_norm_lsq(mesh, u_next_ext)
    return ad.sum(ad.maximum(0.0, g1 - g0))


def loss_reg(params_vec):
    """L1 norm of the full parameter vector."""
    return ad.sum(ad.absolute(params_vec))


def total_loss(mesh, dt, w_prev, w_next_ml, u_ref_next, params_vec, weights,
               gas=GasModel(), bc_table=None):
    """Weighted sum of the four loss terms; also returns the parts.

    The states come in the step's public (N, 4) layout; the terms run on
    their (4, N) transposes.
    """
    bc_table = bc_table or {}
    w_prev, w_next_ml, u_ref_next = (ad.transpose(x) for x in (w_prev, w_next_ml, u_ref_next))
    u_ml = _prim(w_next_ml, gas)
    sup = loss_supervision(u_ml, u_ref_next)
    ent = loss_entropy(mesh, w_prev, w_next_ml, dt, gas, bc_table)
    u_prev_ext, _ = bclib.extend_with_ghosts(mesh, _prim(w_prev, gas), bc_table, gas)
    u_ml_ext, _ = bclib.extend_with_ghosts(mesh, u_ml, bc_table, gas)
    tvd = loss_tvd(mesh, u_prev_ext, u_ml_ext)
    reg = loss_reg(params_vec)
    total = sup + weights.ent * ent + weights.tvd * tvd + weights.reg * reg
    parts = {"sup": float(ad.value_of(sup)), "ent": float(ad.value_of(ent)),
             "tvd": float(ad.value_of(tvd)), "reg": float(ad.value_of(reg))}
    return total, parts


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def lion_step(p, grad, moment, lr, beta1=0.9, beta2=0.99, weight_decay=0.0):
    """Sign-of-interpolated-momentum update; skips on non-finite gradients."""
    if not np.all(np.isfinite(grad)):
        log.warning("non-finite gradient: optimizer step skipped")
        return p, moment
    c = beta1 * moment + (1.0 - beta1) * grad
    p_new = p - lr * (np.sign(c) + weight_decay * p)
    m_new = beta2 * moment + (1.0 - beta2) * grad
    return p_new, m_new


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 6e-5
    decay: float = 0.9
    epochs: int = 30
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.99
    weight_decay: float = 0.0
    checkpoint_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        if self.batch_size < 1 or self.checkpoint_every < 1:
            raise ValueError("batch_size and checkpoint_every must be >= 1")


@dataclass
class TrainResult:
    params: mlcorr.NetParams
    history: list
    val_sup: list
    aborted: bool = False


HISTORY_COLUMNS = ("epoch", "step", "total", "sup", "ent", "tvd", "reg", "lr", "val_total")


def _sample_loss(mesh, dt, cfg, bc_table, params, w_t, u_ref_next, weights, gas):
    """Traced one-step loss and its gradient for one supervision pair."""
    parts_box = {}

    def program(p_vec):
        w_next, _ = solver.step_explicit_euler(
            mesh, w_t, dt, cfg, bc_table, params, params_vec=p_vec)
        total, parts = total_loss(mesh, dt, w_t, w_next, u_ref_next, p_vec,
                                  weights, gas, bc_table)
        parts_box.update(parts)
        return total

    loss, grad = ad.record_and_backprop(program, params.values)
    return loss, grad, parts_box


def _pair_losses(mesh, dt, cfg, bc_table, params, w_t, u_ref_next, weights, gas):
    """Untraced total and supervision losses of one pair; both inf where
    the step fails."""
    try:
        w_next, _ = solver.step_explicit_euler(mesh, w_t, dt, cfg, bc_table, params)
    except solver.SolverError:
        return np.inf, np.inf
    total, parts = total_loss(mesh, dt, w_t, w_next, u_ref_next,
                              params.values, weights, gas, bc_table)
    return float(ad.value_of(total)), parts["sup"]


def train(mesh, step_cfg, train_trajs, val_trajs, tcfg=TrainConfig(),
          weights=LossWeights(), net_config=mlcorr.NetConfig(),
          gas=GasModel(), bc_table=None, out_dir=None, init=None):
    """Optimize the correction network on one-step supervision pairs.

    Deterministic for a fixed seed: each minibatch's samples, and the
    validation pairs, are computed in shares on every CPU the process may
    run on (module docstring) and summed in sample order, so parameters,
    history and checkpoints are bitwise the same for any CPU count.  A
    failing sample raises the error serial training would: that of the
    first failing sample in batch order.  Checkpoints are written per
    epoch, and the final parameters to params.gfnn, when out_dir is set
    (the history is returned; the caller writes it).  Training aborts
    (keeping the last finite parameters) if the loss stops being finite.
    """
    bc_table = bc_table or {}
    if not step_cfg.uses_network:
        raise ValueError("training requires an ml_* gradient mode")
    dt = solver.compute_dt(mesh, step_cfg)
    params = init if init is not None else mlcorr.init_params(net_config, tcfg.seed)
    moment = np.zeros_like(params.values)
    rng = np.random.default_rng(tcfg.seed)

    samples = [(i, t) for i, tr in enumerate(train_trajs) for t in range(tr.n_pairs)]
    val_pairs = [(i, t) for i, tr in enumerate(val_trajs) for t in range(tr.n_pairs)]

    def sample_loss(params, s):
        i, t = samples[s]
        tr = train_trajs[i]
        u_ref = cons_to_prim(tr.frames[t + 1], gas, check=False)
        return _sample_loss(mesh, dt, step_cfg, bc_table, params, tr.frames[t], u_ref,
                            weights, gas)

    def val_losses(params, v):
        i, t = val_pairs[v]
        tr = val_trajs[i]
        u_ref = cons_to_prim(tr.frames[t + 1], gas, check=False)
        return _pair_losses(mesh, dt, step_cfg, bc_table, params, tr.frames[t], u_ref,
                            weights, gas)

    def validate(shares, params):
        """Mean untraced total and supervision losses over the validation pairs."""
        losses = shares.map(val_losses, range(len(val_pairs)), params)
        return (float(np.mean([tot for tot, _ in losses])),
                float(np.mean([sup for _, sup in losses])))

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    history = []
    val_sup = []
    val_total, v_sup = (np.nan, np.nan)
    last_good = params.values.copy()
    aborted = False
    global_step = 0

    n_items = max(min(tcfg.batch_size, len(samples)), len(val_pairs))
    with _Shares([sample_loss, val_losses], n_items) as shares:
        if val_trajs:
            val_total, v_sup = validate(shares, params)
            val_sup.append(v_sup)
        for epoch in range(tcfg.epochs):
            lr_e = tcfg.lr * tcfg.decay ** epoch
            order = rng.permutation(len(samples))
            for lo in range(0, len(order), tcfg.batch_size):
                batch = order[lo:lo + tcfg.batch_size]
                grad_sum = np.zeros_like(params.values)
                loss_sum = 0.0
                part_sum = {"sup": 0.0, "ent": 0.0, "tvd": 0.0, "reg": 0.0}
                for loss, grad, parts in shares.map(sample_loss, batch, params):
                    grad_sum += grad
                    loss_sum += loss
                    for k in part_sum:
                        part_sum[k] += parts[k]
                m = len(batch)
                mean_loss = loss_sum / m
                if not np.isfinite(mean_loss):
                    log.error("training loss diverged at epoch %d step %d", epoch,
                              global_step)
                    aborted = True
                    params = params.with_values(last_good)
                    break
                new_vals, moment = lion_step(
                    params.values, grad_sum / m, moment, lr_e,
                    tcfg.beta1, tcfg.beta2, tcfg.weight_decay)
                params = params.with_values(new_vals)
                history.append({
                    "epoch": epoch, "step": global_step, "total": mean_loss,
                    "sup": part_sum["sup"] / m, "ent": part_sum["ent"] / m,
                    "tvd": part_sum["tvd"] / m, "reg": part_sum["reg"] / m,
                    "lr": lr_e, "val_total": val_total,
                })
                global_step += 1
            if aborted:
                break
            last_good = params.values.copy()
            if val_trajs:
                val_total, v_sup = validate(shares, params)
                val_sup.append(v_sup)
            if out is not None and (epoch + 1) % tcfg.checkpoint_every == 0:
                mlcorr.save_params(params, out / f"ckpt_epoch_{epoch:03d}.gfnn")

    if out is not None:
        mlcorr.save_params(params, out / "params.gfnn")
    return TrainResult(params=params, history=history, val_sup=val_sup,
                       aborted=aborted)


# ---------------------------------------------------------------------------
# whole-pipeline gradient check (the gate before training)
# ---------------------------------------------------------------------------

def gradient_check(mesh, step_cfg=None, weights=LossWeights(),
                   net_config=mlcorr.NetConfig(), gas=GasModel(), bc_table=None,
                   n_steps=2, rel_tol=1e-5, rel_step=5e-5, seed=0,
                   param_sample=None):
    """Compare reverse-mode and central-difference gradients of the full
    multi-step training loss.  Returns a report dict with the pass flag.

    The default step balances truncation against round-off for this loss
    scale.  Entries outside tolerance are re-checked ("audited") over a
    ladder of smaller and larger steps: genuine adjoint bugs stay wrong at
    every step, whereas finite-difference cancellation noise collapses at
    larger steps and kink-straddling (a parameter within the step of a
    branch tie, e.g. the L1 term at zero) collapses at smaller ones.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if param_sample is not None and param_sample < 1:
        raise ValueError(f"param_sample must be >= 1, got {param_sample}")
    bc_table = bc_table or {}
    if step_cfg is None:
        step_cfg = solver.StepConfig(co=0.03, gradient="ml_lsq")
    rng = np.random.default_rng(seed)
    params = mlcorr.init_params(net_config, seed=seed)
    # random but small head so every layer influences the loss
    vec = params.values.copy()
    vec[vec == 0.0] = rng.normal(0.0, 0.05, int((vec == 0.0).sum()))
    params = params.with_values(vec)

    # mild smooth field with genuine extrema so the limiter branches are live
    x, y = mesh.centroid[:, 0], mesh.centroid[:, 1]
    u0 = np.column_stack([
        1.0 + 0.4 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        0.4 * np.sin(2 * np.pi * y),
        -0.3 * np.cos(2 * np.pi * x),
        1.0 + 0.3 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
    ])
    w0 = prim_to_cons(u0, gas)
    dt = solver.compute_dt(mesh, step_cfg)

    # fixed reference trajectory: baseline run from a slightly scaled state
    ref_cfg = solver.StepConfig(co=step_cfg.co, gradient="lsq", gas=gas,
                                limiter=step_cfg.limiter)
    w_ref = w0 * np.array([1.02, 1.0, 1.0, 1.02])
    refs = [cons_to_prim(w_ref, gas)]
    refs += [cons_to_prim(w, gas)
             for _, w, _ in solver.march(mesh, w_ref, dt, n_steps, ref_cfg, bc_table)]

    def loss_fn(p_vec):
        w = w0
        total = None
        for k, w_next, _ in solver.march(mesh, w0, dt, n_steps, step_cfg, bc_table,
                                         params, params_vec=p_vec):
            term, _ = total_loss(mesh, dt, w, w_next, refs[k], p_vec,
                                 weights, gas, bc_table)
            total = term if total is None else total + term
            w = w_next
        return total

    loss_val, grad_ad = ad.record_and_backprop(loss_fn, params.values)

    def plain(p):
        return float(ad.value_of(loss_fn(p)))

    def central(i, h):
        hi = params.values.copy()
        lo = params.values.copy()
        hi[i] += h
        lo[i] -= h
        return (plain(hi) - plain(lo)) / (2 * h)

    idx = np.arange(params.values.size)
    if param_sample is not None and param_sample < idx.size:
        idx = np.sort(rng.choice(idx.size, size=param_sample, replace=False))
    base = params.values
    grad_fd = np.array([central(i, rel_step * max(1.0, abs(base[i]))) for i in idx])

    ad_sel = grad_ad[idx]
    denom = np.maximum(np.maximum(np.abs(ad_sel), np.abs(grad_fd)), 1e-10)
    rel_err = np.abs(ad_sel - grad_fd) / denom
    ok = rel_err < rel_tol

    audited_ok = []
    audited_bad = []
    for j in np.where(~ok)[0]:
        i = int(idx[j])
        errs = []
        for factor in (0.02, 0.2, 4.0, 20.0, 100.0):
            fd2 = central(i, factor * rel_step * max(1.0, abs(base[i])))
            errs.append(abs(grad_ad[i] - fd2)
                        / max(abs(grad_ad[i]), abs(fd2), 1e-10))
        (audited_ok if min(errs) < rel_tol else audited_bad).append(i)

    report = {
        "pass": bool(ok.mean() >= 0.99 and not audited_bad),
        "loss": loss_val,
        "n_checked": int(idx.size),
        "frac_ok": float(ok.mean()),
        "max_rel_err": float(rel_err.max()),
        "median_rel_err": float(np.median(rel_err)),
        "audited_ok": audited_ok[:50],
        "offenders": audited_bad[:50],
    }
    return report
