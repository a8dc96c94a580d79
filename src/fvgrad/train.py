"""Dataset generation, the regularized loss, and the optimization loop.

Reference data is ``solver.reference`` of the configured step: its plain
mode on a one-level refinement of the training mesh, projected back by
area-weighted means, so every coarse frame has a matching fine-grid truth
at the same time instant.  Supervision is one step, K = 1 of ``_loss_program``:
from the projected state at t, one corrected step is compared against the
projected reference at t + dt.  The gate (``gradient_check``) runs K = n_steps.

The total loss is the relative-L2 supervision error (scaled by 100) plus
entropy-inequality, total-variation-growth and L1 parameter penalties.
Optimization uses a sign-of-momentum (Lion-style) update with an
exponentially decaying learning rate.

Training and validation run on groups of samples.  Each minibatch, and the
validation pairs, are cut in order into the fewest near-equal groups of at
most ``group_samples`` samples (``CELL_BUDGET`` cells in all), and a group
is recorded as one program on ``Mesh.copies`` of the training mesh, its
samples' states stacked along the cell axis: at training sizes a traced
sample is mostly fixed cost, which a group pays once.  A group's loss is
the sum of its samples' losses (``total_loss``).  A group that raises, or
whose loss is not finite, is run again one sample at a time, so errors and
infinite losses are those of the samples alone.

Independent work runs on every CPU the process may run on (``workers``):
the traced groups of a minibatch, the untraced validation groups and the
dataset's trajectories.  ``_Shares`` forks its children once per training
run (or dataset), and each inherits the mesh and the data copy-on-write;
per minibatch only the parameters and the groups' sample indices go down a
pipe.  It cuts the items into contiguous shares, the caller runs the first
and the children the rest.  Each item's result is computed exactly as the
serial loop computes it, and the caller combines the results in item
order, so parameters, history, checkpoints and dataset files are bitwise
the same for any CPU count.  Each process holds one group's tape at a
time, and the tape keeps only the values its adjoints read.  A sample, or
a group of any size, records 117 nodes on a periodic mesh, and 2 more where
a sample's supervision term is 0.  On the 504-cell forward step a sample or
a group records 163 nodes, and a group of 8 peaks at 7.6 MB (tracemalloc);
a group of 2 on the 1,458-cell mesh peaks at 5.5 MB, in the reverse sweep,
and holds 4.3 MB of tape when the sweep starts, 1.0 MB of it the
limiter's.  The flux, the network and the limiter are one node each
(``solver.rusanov_flux``, ``mlcorr.network_forward``,
``recon.venkat_limiter``).  Threads gain nothing on the tape's small numpy
calls.

The dataset format (file names, ``manifest.json``, frame files) lives
here alone: ``generate_dataset`` writes it, each frame file in the process
that computed its trajectory, and ``load_dataset`` reads it.

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
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bc as bclib
from . import mlcorr, recon, solver
from .euler import cons_to_prim, entropy_pair, prim_to_cons

log = logging.getLogger(__name__)

FAMILIES = ("f1", "f2", "f3")


# ---------------------------------------------------------------------------
# initial-condition samplers on [0,1]^2
# ---------------------------------------------------------------------------

def draw_ic_params(family, rng):
    """Draw the random parameters of one initial-condition family."""
    if family == "f1":
        return {"a": rng.uniform(0.0, 1.0, 8), "phi": rng.uniform(0.0, 1.0, 2)}
    if family == "f2":
        return {"p": rng.uniform(0.0, 1.0, (4, 5))}
    if family == "f3":
        return {"p": rng.uniform(0.0, 1.0, (4, 4))}
    raise ValueError(f"unknown family {family!r}")


def _quadrant_index(x, y):
    """0..3 for the lower-left, lower-right, upper-left and upper-right
    quadrants of [0,1]^2 at finite points."""
    return (x >= 0.5) + 2 * (y >= 0.5)


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
    max_amp: float = 6.0
    seed: int = 0
    n_val: int = 4

    def __post_init__(self):
        self.mix = tuple(self.mix)
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


def step_record(step_cfg):
    """What a dataset's manifest records of the plain step its references march."""
    plain = step_cfg.plain()
    return {"co": plain.co, "gradient": plain.gradient, "limiter": plain.limiter,
            "limiter_k": plain.limiter_k, "gamma": plain.gas.gamma}


def generate_dataset(spec, coarse, out_dir, step_cfg):
    """Reference trajectories of step_cfg's plain mode, written to out_dir.

    The process that computes a trajectory writes its frame file and hashes
    it, so each process holds one trajectory at a time.  The caller writes
    ``manifest.json`` from the entries, in trajectory order, and returns it.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = spec.count + spec.n_val
    seeds = np.random.SeedSequence(spec.seed).spawn(n)
    fams = spec.families() + spec.families(spec.n_val)
    dt = solver.compute_dt(coarse, step_cfg)

    def make(j):
        fam = fams[j]
        kind, i = ("train", j) if j < spec.count else ("val", j - spec.count)
        name = f"{kind}_{i:03d}.frames"
        params = draw_ic_params(fam, np.random.default_rng(seeds[j]))
        frames = [w for _, w in solver.reference(
            coarse, lambda pts: evaluate_ic(fam, params, pts, spec.max_amp), spec.steps, step_cfg)]
        solver.write_frames(out / name, [k * dt for k in range(len(frames))], frames)
        log.info("dataset trajectory %s (%s): %d frames", name, fam, len(frames))
        return {"file": name, "kind": kind, "family": fam, "sha256": _sha256(out / name)}

    with _Shares([make], n) as shares:
        entries = shares.map(make, range(n))
    manifest = {"spec": asdict(spec), "step": step_record(step_cfg), "trajectories": entries}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def dataset_files(manifest):
    """Names of the files a ``generate_dataset`` call wrote: its manifest and
    the frame files the manifest lists, not whatever else the directory holds."""
    return ["manifest.json"] + [entry["file"] for entry in manifest["trajectories"]]


def load_dataset(ds_dir, n_cells, step_cfg):
    """(train, val) lists of Trajectory from a ``generate_dataset`` directory.
    A missing manifest, a manifest without ``trajectories`` or an entry
    without ``file``, ``kind`` or ``family``, a frame file that is missing,
    unreadable or not its manifest sha256, a trajectory of fewer than 2
    frames (it makes no supervision pair), or frames of another cell count
    than n_cells raise a ValueError naming the file (and the missing key), as
    does a ``step_record`` other than step_cfg's (naming the first field)."""
    ds_dir = Path(ds_dir)
    if not (ds_dir / "manifest.json").is_file():
        raise ValueError(f"no dataset in {ds_dir} (manifest.json missing); "
                         "run the dataset command first")
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    if "trajectories" not in manifest:
        raise ValueError("dataset file manifest.json lacks key 'trajectories'")
    recorded = manifest.get("step", {})
    for key, want in step_record(step_cfg).items():
        if recorded.get(key) != want:
            got = f"step.{key} {recorded[key]!r}" if key in recorded else f"no step.{key}"
            raise ValueError(f"dataset file manifest.json records {got}, configured "
                             f"{want!r}; re-run the dataset command")
    trains, vals = [], []
    for j, entry in enumerate(manifest["trajectories"]):
        for key in ("file", "kind", "family"):
            if key not in entry:
                raise ValueError(f"dataset file manifest.json: trajectory {j} "
                                 f"lacks key {key!r}")
        name = entry["file"]
        try:
            if _sha256(ds_dir / name) != entry.get("sha256"):
                raise ValueError(f"dataset file {name} does not match its manifest sha256")
            frames = solver.read_frames(ds_dir / name)[1]
        except (OSError, solver.SolverError) as exc:
            raise ValueError(f"cannot read dataset file {name}: {exc}") from exc
        if len(frames) < 2:
            raise ValueError(f"dataset file {name} holds {len(frames)} frame(s), not 2 or more")
        frames = np.stack(frames)
        if frames.shape[1] != n_cells:
            raise ValueError(f"dataset file {name} has {frames.shape[1]} cells, "
                             f"configured mesh has {n_cells}")
        (trains if entry["kind"] == "train" else vals).append(
            Trajectory(family=entry["family"], frames=frames, ic_params={}))
    return trains, vals


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


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
    finished, as one list.  A child stops at its first failing item, and
    the caller runs the rest of that share itself, so the error of the
    first failing item in item order is raised here, natively, with its
    type, message and attributes.  A child that died, or was never forked
    because the system had no process to spare, leaves its shares to the
    caller.  Leaving the ``with`` block, or any error raised inside
    ``map``, kills and reaps every child.
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
        shares = _cut(items, max(1, min(len(self.children) + 1, len(items))))
        children = self.children[:len(shares) - 1]
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
                try:
                    done = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):  # it died before sending
                    done = []
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
    own share, and sends them as one pickled list.  The results are small:
    a group's losses and gradients, or a dataset file's manifest entry, since
    the child writes the file itself.  It leaves with ``os._exit`` when the
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
                    pickle.dump(done, replies, pickle.HIGHEST_PROTOCOL)
                    replies.flush()
        finally:
            os._exit(0)
    os.close(req_r)
    os.close(rep_w)
    return pid, open(req_w, "wb"), open(rep_r, "rb")


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossWeights:
    tvd: float = 1e-6
    ent: float = 1e5
    reg: float = 1e-4

    def __post_init__(self):
        for name in ("tvd", "ent", "reg"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"loss weight {name} must be finite and >= 0, got {value!r}")


def loss_supervision(u_ml, u_ref, copies=1):
    """100 * ||u_ml - u_ref||_2 / ||u_ref||_2 over all cells and variables;
    0 with a zero derivative where u_ml equals u_ref, as for flat cells in
    ``_grad_norm_lsq``.  On ``copies`` equal ranges of the cell axis (the
    copies of ``Mesh.copies``), the sum of each range's loss, with its own
    reference norm."""
    ref = ad.value_of(u_ref)
    n = ref.shape[-1] // copies
    ref_norm = np.array([np.linalg.norm(ref[:, c * n:(c + 1) * n]) for c in range(copies)])
    if not ref_norm.all():
        raise ValueError("reference field has zero norm; cannot normalize")
    diff = u_ml - u_ref
    sq = ad.sum(ad.reshape(diff * diff, (-1, copies, n)), axis=(0, 2))
    same = ad.value_of(sq) == 0.0
    if not same.any():
        loss = 100.0 * ad.sqrt(sq) / ref_norm
    else:
        loss = ad.where(same, 0.0, 100.0 * ad.sqrt(ad.where(same, 1.0, sq)) / ref_norm)
    return ad.sum(loss)


def _prim(w, gas):
    """Checked primitive (4, N) field of (N, 4) conservative states."""
    return ad.transpose(cons_to_prim(w, gas))


def _entropy_divergence(mesh, u, ghosts, gas):
    """Entropy eta on the cells of a (4, N) primitive field and the
    Green-Gauss divergence of its entropy flux, whose ghost values are the
    flux of its ghost states (None on a periodic mesh)."""
    eta, qx, qy = entropy_pair(ad.transpose(u), gas)
    q = ad.stack([qx, qy], axis=0)
    q_ghosts = None
    if ghosts is not None:
        q_ghosts = ad.stack(entropy_pair(ad.transpose(ghosts), gas)[1:], axis=0)
    gx, gy = recon.gradient_gg(mesh, q, recon.neighbor_values(mesh, q, q_ghosts))
    return eta, gx[0] + gy[1]


def loss_entropy(mesh, prev, next_, dt, gas):
    """Mean squared positive part of the discrete entropy-inequality residual
    between two states, each a (4, N) primitive field and its ghost states."""
    eta0, div0 = _entropy_divergence(mesh, *prev, gas)
    eta1, div1 = _entropy_divergence(mesh, *next_, gas)
    r = mesh.area * (eta1 - eta0) + (mesh.area * dt / 2.0) * (div1 + div0)
    pos = ad.maximum(0.0, r)
    return ad.sum(pos * pos) / mesh.n_cells


def _grad_norm_lsq(mesh, u, ghosts):
    """Per-cell |grad u|; 0 with a zero derivative where the field is flat."""
    du = recon.neighbor_deltas(mesh, u, recon.neighbor_values(mesh, u, ghosts))
    gx, gy = recon.gradient_lsq(mesh, du)
    g2 = ad.sum(gx * gx + gy * gy, axis=0)
    flat = ad.value_of(g2) == 0.0
    return ad.where(flat, 0.0, ad.sqrt(ad.where(flat, 1.0, g2)))


def loss_tvd(mesh, prev, next_):
    """Positive growth of the per-cell gradient magnitude between two
    states, each a (4, N) primitive field and its ghost states."""
    g0 = _grad_norm_lsq(mesh, *prev)
    g1 = _grad_norm_lsq(mesh, *next_)
    return ad.sum(ad.maximum(0.0, g1 - g0))


def loss_reg(params_vec):
    """L1 norm of the full parameter vector."""
    return ad.sum(ad.absolute(params_vec))


def total_loss(mesh, cfg, w_prev, w_next_ml, u_ref_next, params_vec, weights,
               bc_table=None):
    """Weighted sum of the four loss terms; also returns the parts.

    The states come in the step's public (N, 4) layout, one step of cfg
    apart: its dt (``solver.compute_dt``) and its gas.  The terms share each
    state's checked (4, N) primitive field and ghost states (None on a
    periodic mesh), each made once.  On ``Mesh.copies`` of a mesh, with one
    pair's states per copy, the loss and each part are the sums over the
    pairs, each term computed once for all of them: supervision per copy,
    the entropy term (a mean over the cells) and the L1 term times the
    number of copies (``mesh.n_copies``), and the TVD term (a sum over the
    cells) as it is.
    """
    bc_table = bc_table or {}
    gas, copies = cfg.gas, mesh.n_copies
    prev, next_ = ((u, bclib.extend_with_ghosts(mesh, u, bc_table, gas)[0])
                   for u in (_prim(w_prev, gas), _prim(w_next_ml, gas)))
    sup = loss_supervision(next_[0], ad.transpose(u_ref_next), copies)
    ent = loss_entropy(mesh, prev, next_, solver.compute_dt(mesh, cfg), gas)
    tvd = loss_tvd(mesh, prev, next_)
    reg = loss_reg(params_vec)
    total = (sup + (weights.ent * copies) * ent + weights.tvd * tvd
             + (weights.reg * copies) * reg)
    parts = {"sup": float(ad.value_of(sup)), "ent": copies * float(ad.value_of(ent)),
             "tvd": float(ad.value_of(tvd)), "reg": copies * float(ad.value_of(reg))}
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
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must lie in (0, 1]")
        if min(self.epochs, self.batch_size, self.checkpoint_every) < 1:
            raise ValueError("epochs, batch_size and checkpoint_every must be >= 1")


@dataclass
class TrainResult:
    params: mlcorr.NetParams
    history: list
    val_sup: list
    aborted: bool = False
    skipped_steps: int = 0     # optimizer steps lion_step skipped (non-finite gradient)


HISTORY_COLUMNS = ("epoch", "step", "total", "sup", "ent", "tvd", "reg", "lr", "val_total")


# Cells of the copies a group of samples is recorded on: a group holds
# CELL_BUDGET // n_cells samples, and at least one.  At training sizes a
# traced sample is mostly fixed cost (Python, numpy dispatch and 117 tape
# nodes), not per-cell work.  A group's time per sample over one tape's per
# sample, on one CPU of a 2-vCPU Xeon host (ml_lsq, periodic structured
# meshes and the forward step):
#   cells                   288    504 (step)   512    1,458
#   4,096: samples, ratio   14 0.37  8 0.37    8 0.47   2 0.83
#   2,048: samples, ratio    7 0.38  4 0.50    4 0.69   1 1.03
# The ratios were measured with the network and the limiter recorded op by
# op (166 nodes).  A group of 8 on 504 cells peaks at 7.6 MB.  A minibatch of the
# default 16 samples still makes 2 groups, one per CPU, at 512 cells.
CELL_BUDGET = 4096


def group_samples(n_cells):
    """Samples one group holds on a mesh of n_cells cells."""
    return max(1, CELL_BUDGET // n_cells)


def _cut(items, k):
    """items cut in order into k tuples whose sizes differ by at most 1."""
    items = tuple(items)
    return [items[len(items) * j // k:len(items) * (j + 1) // k] for j in range(k)]


def _groups(items, b):
    """items cut in order into the fewest near-equal groups of at most b."""
    return _cut(items, -(-len(items) // b))


def batch_groups(n_samples, n_cells):
    """Groups a minibatch of n_samples samples on n_cells cells is cut into."""
    return len(_groups(range(n_samples), group_samples(n_cells)))


def _stacked(trajs, pairs, group, gas):
    """The states at t of a group's (trajectory, t) pairs, stacked as on
    ``Mesh.copies``, and the primitive reference states at t + 1."""
    at = [pairs[j] for j in group]
    w_t = np.concatenate([trajs[i].frames[t] for i, t in at])
    w_ref = np.concatenate([trajs[i].frames[t + 1] for i, t in at])
    return w_t, cons_to_prim(w_ref, gas, check=False)


def _alone_on_error(fn):
    """fn(params, group) as a list of results to sum: the group's, or,
    where a group of several raises or gives a loss that is not finite, one
    per item, each run alone.  So the error raised is the first failing
    item's own, with its type, message, cell and step, and a loss is
    infinite only for the items that fail alone."""
    def run(params, group):
        if len(group) > 1:
            try:
                out = fn(params, group)
            except Exception:   # the items run alone below and raise their own
                out = None
            if out is not None and np.isfinite(out[0]):
                return [out]
        return [fn(params, (item,)) for item in group]
    return run


def _loss_program(mesh, cfg, bc_table, params, w_t, u_refs, weights):
    """Sum of ``total_loss`` over K = ``len(u_refs)`` corrected steps of cfg
    from w_t (``solver.march`` at ``solver.compute_dt``), step k's against
    u_refs[k - 1], as a function of the parameter vector, on one mesh or on
    the samples stacked on a ``Mesh.copies`` with its tiled ``bc_table``; and
    the dict of its parts, summed over steps."""
    parts = {}
    dt = solver.compute_dt(mesh, cfg)

    def program(p_vec):
        total, w, terms = None, w_t, []
        for u_ref, (_, w_next, _) in zip(u_refs, solver.march(
                mesh, w_t, dt, len(u_refs), cfg, bc_table, params.with_values(p_vec))):
            loss, step_parts = total_loss(mesh, cfg, w, w_next, u_ref, p_vec, weights,
                                          bc_table)
            total = loss if total is None else total + loss
            terms.append(step_parts)
            w = w_next
        parts.update({key: sum(t[key] for t in terms) for key in terms[0]})
        return total

    return program, parts


def _sample_loss(mesh, cfg, bc_table, params, w_t, u_ref_next, weights):
    """Traced loss, gradient and parts of ``_loss_program`` at K = 1."""
    program, parts = _loss_program(mesh, cfg, bc_table, params, w_t, [u_ref_next],
                                   weights)
    loss, grad = ad.record_and_backprop(program, params.values)
    return loss, grad, parts


def _pair_losses(mesh, cfg, bc_table, params, w_t, u_ref_next, weights):
    """Untraced total and supervision losses of ``_loss_program`` at K = 1;
    both inf where the step fails."""
    program, parts = _loss_program(mesh, cfg, bc_table, params, w_t, [u_ref_next],
                                   weights)
    try:
        total = program(params.values)
    except solver.SolverError:
        return np.inf, np.inf
    return float(ad.value_of(total)), parts["sup"]


def train(mesh, step_cfg, train_trajs, val_trajs, tcfg=TrainConfig(),
          weights=LossWeights(), net_config=mlcorr.NetConfig(),
          bc_table=None, out_dir=None, init=None):
    """Optimize step_cfg's corrected mode on one-step supervision pairs.

    Deterministic for a fixed seed: the groups of samples (module
    docstring) are computed in shares on every CPU the process may run on
    and their results summed in group order, so parameters, history and
    checkpoints are bitwise the same for any CPU count.  A failing sample
    raises the error serial training would: that of the first failing
    sample in batch order.  Checkpoints are written per epoch, and the
    final parameters to params.gfnn, when out_dir is set (the history is
    returned; the caller writes it).  Each epoch logs its seconds in
    minibatches and in validation and its traced samples per second.
    Training aborts (keeping the last finite parameters) if the loss stops
    being finite.  The gas model is step_cfg's.
    """
    bc_table = bc_table or {}
    step_cfg = step_cfg.corrected()
    gas = step_cfg.gas
    params = init if init is not None else mlcorr.init_params(net_config, tcfg.seed)
    moment = np.zeros_like(params.values)
    rng = np.random.default_rng(tcfg.seed)

    samples = [(i, t) for i, tr in enumerate(train_trajs) for t in range(tr.n_pairs)]
    val_pairs = [(i, t) for i, tr in enumerate(val_trajs) for t in range(tr.n_pairs)]
    b = group_samples(mesh.n_cells)
    val_groups = _groups(range(len(val_pairs)), b)

    def on_copies(k):
        return mesh.copies(k), bclib.tile_table(bc_table, k)

    @_alone_on_error
    def sample_loss(params, group):
        m, bc = on_copies(len(group))
        w_t, u_ref = _stacked(train_trajs, samples, group, gas)
        return _sample_loss(m, step_cfg, bc, params, w_t, u_ref, weights)

    @_alone_on_error
    def val_losses(params, group):
        m, bc = on_copies(len(group))
        w_t, u_ref = _stacked(val_trajs, val_pairs, group, gas)
        return _pair_losses(m, step_cfg, bc, params, w_t, u_ref, weights)

    def validate(shares, params):
        """Mean untraced total and supervision losses over the validation pairs."""
        losses = [x for r in shares.map(val_losses, val_groups, params) for x in r]
        return (sum(tot for tot, _ in losses) / len(val_pairs),
                sum(sup for _, sup in losses) / len(val_pairs))

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    history = []
    val_sup = []
    val_total, v_sup = (np.nan, np.nan)
    last_good = params.values.copy()
    aborted = False
    global_step = skipped = 0

    n_items = max(batch_groups(min(tcfg.batch_size, len(samples)), mesh.n_cells),
                  len(val_groups))
    with _Shares([sample_loss, val_losses], n_items) as shares:
        if val_trajs:
            val_total, v_sup = validate(shares, params)
            val_sup.append(v_sup)
        for epoch in range(tcfg.epochs):
            lr_e = tcfg.lr * tcfg.decay ** epoch
            order = rng.permutation(len(samples))
            t0 = time.perf_counter()
            for lo in range(0, len(order), tcfg.batch_size):
                batch = order[lo:lo + tcfg.batch_size]
                grad_sum = np.zeros_like(params.values)
                loss_sum = 0.0
                part_sum = {"sup": 0.0, "ent": 0.0, "tvd": 0.0, "reg": 0.0}
                for r in shares.map(sample_loss, _groups(batch.tolist(), b), params):
                    for loss, grad, parts in r:
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
                # a skipped step hands back the parameter vector itself
                skipped += new_vals is params.values
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
            t1 = time.perf_counter()
            if val_trajs:
                val_total, v_sup = validate(shares, params)
                val_sup.append(v_sup)
            t2 = time.perf_counter()
            log.info("epoch %d: %.3f s in minibatches (%.1f traced samples/s), "
                     "%.3f s in validation", epoch, t1 - t0, len(samples) / (t1 - t0),
                     t2 - t1)
            if out is not None and (epoch + 1) % tcfg.checkpoint_every == 0:
                mlcorr.save_params(params, out / f"ckpt_epoch_{epoch:03d}.gfnn")

    if out is not None:
        mlcorr.save_params(params, out / "params.gfnn")
    return TrainResult(params=params, history=history, val_sup=val_sup,
                       aborted=aborted, skipped_steps=skipped)


# ---------------------------------------------------------------------------
# whole-pipeline gradient check (the gate before training)
# ---------------------------------------------------------------------------

def gradient_check(mesh, step_cfg=None, weights=LossWeights(),
                   net_config=mlcorr.NetConfig(), bc_table=None,
                   n_steps=2, rel_tol=1e-5, rel_step=5e-5, seed=0,
                   param_sample=None):
    """Compare reverse-mode and central-difference gradients of the training
    loss, ``_loss_program`` at K = n_steps on the mesh, step_cfg's corrected
    mode against its plain mode (``StepConfig()`` if None).  Returns a report
    dict with the pass flag.

    The default step balances truncation against round-off for this loss
    scale.  Entries outside tolerance are re-checked ("audited") over a
    ladder of smaller and larger steps: genuine adjoint bugs stay wrong at
    every step, whereas finite-difference cancellation noise collapses at
    larger steps and kink-straddling (a parameter within the step of a
    branch tie, e.g. the L1 term at zero) collapses at smaller ones.

    The check passes when at least 99% of the sampled entries are within
    rel_tol at the first step, and no entry fails the ladder (is outside
    rel_tol at every step of it).  An entry the ladder clears is listed
    under ``audited_ok`` but still counts against the 99%.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    if param_sample is not None and param_sample < 1:
        raise ValueError(f"param_sample must be >= 1, got {param_sample}")
    bc_table = bc_table or {}
    step_cfg = step_cfg or solver.StepConfig()
    ref_cfg, step_cfg = step_cfg.plain(), step_cfg.corrected()
    gas = step_cfg.gas
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
    w_ref = w0 * np.array([1.02, 1.0, 1.0, 1.02])
    refs = [cons_to_prim(w, gas)
            for _, w, _ in solver.march(mesh, w_ref, dt, n_steps, ref_cfg, bc_table)]
    program, _ = _loss_program(mesh, step_cfg, bc_table, params, w0, refs, weights)
    loss_val, grad_ad = ad.record_and_backprop(program, params.values)

    def plain(p):
        return float(ad.value_of(program(p)))

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
