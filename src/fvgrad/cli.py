"""Command-line entry point: mesh, dataset, train, simulate, bench, gradcheck.

Everything that affects numerics lives in a YAML config file; flags only
pick the command, config path and verbosity, so a run is reproducible from
its config alone.  Unknown config keys are rejected.  Every artifact
directory receives a run manifest with the config hash, and text artifacts
carry the hash in a header comment.

Exit codes:
  0  ok
  2  config error: bad or unknown config key, a value out of its range
     (e.g. ``step.co: 0``, a ``dataset.mix`` not summing to 1, a count such
     as ``train.batch_size`` or ``gradcheck.param_sample`` below 1), missing
     config file or ``mesh.path`` file, missing or corrupt ``--checkpoint``,
     dataset directory without manifest.json
  3  numeric failure: rejected solver step, inadmissible state (initial or
     boundary: an inflow state or back pressure taken from the initial
     condition), mesh error, domain error while recording the tape,
     non-finite network activation
  4  gradient-check failure, or a missing / stale gradcheck report
"""

import os
import sys

# One OpenBLAS thread unless the user sets another count: the step's block
# pool and the training children already use every CPU, and OpenBLAS's own
# threads would compete with them.  The variable counts only before numpy
# loads OpenBLAS, so it is set only then, as when the CLI starts; a caller
# that loaded numpy first keeps its count and its environment.  The run
# manifest records the count in effect.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from . import bench as benchmod  # noqa: E402
from . import mesh as msh  # noqa: E402
from . import mlcorr, solver, train  # noqa: E402
from .autodiff import TraceError  # noqa: E402
from .bc import table_from_ic  # noqa: E402
from .euler import AdmissibilityError, GasModel, prim_to_cons  # noqa: E402
from .mesh import BoundarySpec  # noqa: E402

log = logging.getLogger("fvgrad")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4


class ConfigError(ValueError):
    pass


# failures of a run, not of its configuration; most of them are ValueErrors
NUMERIC_ERRORS = (solver.SolverError, AdmissibilityError, msh.MeshError,
                  TraceError, mlcorr.NetworkError)


# schema: key -> (type or nested dict, default); None type disables checking
SCHEMA = {
    "seed": (int, 0),
    "out_dir": (str, "runs/out"),
    "mesh": {
        "kind": (str, "structured"),        # structured|irregular|file|forward_step
        "n": (int, 16),
        "seed": (int, 0),
        "path": (str, None),
        "h_target": (float, 0.02),
        "periodic": (bool, True),
        "bc": (str, "subsonic_out"),        # uniform tag when not periodic
    },
    "step": {
        "co": (float, 0.01),
        "gradient": (str, "lsq"),
        "limiter": (bool, True),
        "limiter_k": (float, 5.0),
        "gamma": (float, 1.4),
        "save_every": (int, 10),
    },
    "dataset": {
        "count": (int, 8),
        "mix": (list, [0.5, 0.25, 0.25]),
        "steps": (int, 2000),
        "co": (float, 0.03),
        "max_amp": (float, 6.0),
        "seed": (int, 0),
        "n_val": (int, 4),
        "dir": (str, "dataset"),
    },
    "train": {
        "lr": (float, 6e-5),
        "decay": (float, 0.9),
        "epochs": (int, 30),
        "batch_size": (int, 16),
        "beta1": (float, 0.9),
        "beta2": (float, 0.99),
        "weight_decay": (float, 0.0),
        "checkpoint_every": (int, 1),
        "seed": (int, 0),
        "require_gradcheck": (bool, True),
    },
    "loss": {
        "tvd": (float, 1e-6),
        "ent": (float, 1e5),
        "reg": (float, 1e-4),
    },
    "net": {
        "width": (int, 8),
        "combine": (int, 8),
        "alpha_max": (float, 0.5),
    },
    "simulate": {
        "ic": (str, "case:6"),              # case:N | family:fX | constant:r,u,v,p
        "n_steps": (int, 200),
        "ic_seed": (int, 0),
        "max_amp": (float, 6.0),
    },
    "bench": {
        "kind": (str, "gain"),              # gain|study
        "cases": (list, [6]),
        "n": (int, 27),
        "n_steps": (int, 2000),
        "record_every": (int, 10),
        "levels": (list, [12, 16, 24]),
        "t_final": (float, 0.2),
        "bc": (str, "subsonic_out"),        # or periodic
        "repeats": (int, 3),
    },
    "gradcheck": {
        "n_steps": (int, 2),
        "rel_tol": (float, 1e-5),
        "param_sample": (int, 128),
        "seed": (int, 0),
    },
}


def _validate(data, schema, path=""):
    out = {}
    data = data or {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path or '<root>'}' must be a mapping")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown config key '{path}{key}'")
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _validate(data.get(key, {}), spec, f"{path}{key}.")
            continue
        typ, default = spec
        val = data.get(key, default)
        if val is None:
            out[key] = None
            continue
        if typ is float and isinstance(val, int):
            val = float(val)
        if typ is int and isinstance(val, bool):
            raise ConfigError(f"config key '{path}{key}' must be {typ.__name__}")
        if not isinstance(val, typ):
            raise ConfigError(f"config key '{path}{key}' must be {typ.__name__}, "
                              f"got {type(val).__name__}")
        out[key] = val
    return out


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}")
    return _validate(raw, SCHEMA)


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def out_dir_for(cfg):
    out = Path(cfg["out_dir"])
    root = os.environ.get("FVGRAD_OUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None where none is
    found (another BLAS, or no ``/proc/self/maps`` to find it by)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            blas = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(blas, sym):
                get = getattr(blas, sym)
                get.argtypes, get.restype = (), ctypes.c_int
                return get()
    return None


def _write_manifest(out, cfg, artifacts, mesh=None, train_workers=None):
    """run_manifest.json: the config and its hash, the artifacts, the numpy
    version, the OpenBLAS thread count in effect (``blas_threads``), how
    many blocks a step on the run's mesh runs in (``solver.step_workers``; null for a study, which
    steps on several) and how many processes a training minibatch runs on
    (``train.workers``; null for a command that does not train)."""
    manifest = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "artifacts": sorted(artifacts),
        "numpy_version": np.__version__,
        "openblas_num_threads": blas_threads(),
        "step_workers": None if mesh is None else solver.step_workers(mesh.n_cells),
        "train_workers": train_workers,
    }
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True))


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def build_mesh_from_config(cfg):
    """The configured mesh.  Its boundary states come from the initial
    condition (``bc.table_from_ic``), for the built-in forward step too."""
    mc = cfg["mesh"]
    kind = mc["kind"]
    if kind == "forward_step":
        mesh, _ = _checked("mesh", benchmod.forward_step_mesh, h_target=mc["h_target"])
        return mesh
    if kind == "file":
        if not mc["path"]:
            raise ConfigError("mesh.kind 'file' requires mesh.path")
        try:
            mesh = msh.read_mesh_ascii(mc["path"])
        except OSError as exc:
            raise ConfigError(f"cannot read mesh.path: {exc}") from exc
        return mesh
    if kind not in ("structured", "irregular"):
        raise ConfigError(f"unknown mesh.kind '{kind}'")
    if mc["periodic"]:
        spec = BoundarySpec.periodic_box()
    else:
        try:
            spec = BoundarySpec.uniform(mc["bc"])
        except KeyError:
            raise ConfigError(f"unknown mesh.bc tag '{mc['bc']}'")
    if kind == "structured":
        return _checked("mesh", msh.structured_mesh, nx=mc["n"], boundary_spec=spec)
    return _checked("mesh", msh.irregular_mesh, n=mc["n"], seed=mc["seed"],
                    boundary_spec=spec)


def build_ic(cfg):
    """Initial-condition evaluator points -> primitive field."""
    sc = cfg["simulate"]
    spec = sc["ic"]
    if spec.startswith("case:"):
        case = _checked("simulate",
                        lambda: benchmod.riemann_case(int(spec.split(":", 1)[1])))
        return case.evaluate
    if spec.startswith("family:"):
        fam = spec.split(":", 1)[1]
        rng = np.random.default_rng(sc["ic_seed"])
        params = train.draw_ic_params(fam, rng, sc["max_amp"])
        return lambda pts: train.evaluate_ic(fam, params, pts, sc["max_amp"])
    if spec.startswith("constant:"):
        vals = np.array([float(v) for v in spec.split(":", 1)[1].split(",")])
        if vals.shape != (4,):
            raise ConfigError("constant IC needs 4 components rho,u,v,p")
        return lambda pts: np.broadcast_to(vals, (len(pts), 4)).copy()
    if spec == "forward_step":
        return lambda pts: np.broadcast_to(benchmod.FORWARD_STEP_STATE,
                                           (len(pts), 4)).copy()
    raise ConfigError(f"unknown simulate.ic '{spec}'")


def _checked(section, make, **kwargs):
    """make(**kwargs); its checks' ValueError, or the TypeError of a value of
    the wrong element type (``dataset.mix: [a]``), is a config error.  A
    numeric failure while make runs passes through unchanged."""
    try:
        return make(**kwargs)
    except NUMERIC_ERRORS:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def gas_model(cfg):
    return _checked("step", GasModel, gamma=cfg["step"]["gamma"])


def step_config(cfg, gradient=None, co=None):
    sc = cfg["step"]
    return _checked(
        "step", solver.StepConfig,
        co=co if co is not None else sc["co"],
        gradient=gradient if gradient is not None else sc["gradient"],
        limiter=sc["limiter"], limiter_k=sc["limiter_k"],
        gas=gas_model(cfg), save_every=sc["save_every"])


def net_config(cfg):
    nc = cfg["net"]
    try:
        return mlcorr.NetConfig(width=nc["width"], combine=nc["combine"],
                                alpha_max=nc["alpha_max"])
    except mlcorr.NetworkError as exc:      # NetConfig's own value check
        raise ConfigError(f"net: {exc}") from exc


def loss_weights(cfg):
    lc = cfg["loss"]
    return _checked("loss", train.LossWeights, tvd=lc["tvd"], ent=lc["ent"],
                    reg=lc["reg"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_mesh(cfg):
    out = out_dir_for(cfg)
    mesh = build_mesh_from_config(cfg)
    path = out / "mesh.txt"
    msh.write_mesh_ascii(mesh, path)
    log.info("mesh: %d cells, %d faces -> %s", mesh.n_cells, mesh.n_faces, path)
    _write_manifest(out, cfg, ["mesh.txt"], mesh)
    return EXIT_OK


def cmd_dataset(cfg):
    out = out_dir_for(cfg)
    ds_dir = out / cfg["dataset"]["dir"]
    coarse = build_mesh_from_config(cfg)
    if coarse.n_ghost:
        raise ConfigError("dataset generation requires a periodic mesh")
    fine, pm = msh.refine_uniform(coarse)
    dc = cfg["dataset"]
    spec = _checked("dataset", train.DatasetSpec, count=dc["count"],
                    mix=tuple(dc["mix"]), steps=dc["steps"], co=dc["co"],
                    max_amp=dc["max_amp"], seed=dc["seed"], n_val=dc["n_val"])
    gas = gas_model(cfg)
    train.generate_dataset(spec, coarse, fine, pm, gas=gas, out_dir=ds_dir)
    log.info("dataset: %d train + %d val trajectories -> %s",
             spec.count, spec.n_val, ds_dir)
    _write_manifest(out, cfg, [str(p.relative_to(out)) for p in ds_dir.iterdir()],
                    coarse)
    return EXIT_OK


def _load_checkpoint(path):
    """Network parameters from --checkpoint; a missing or corrupt file is a
    config error."""
    try:
        return mlcorr.load_params(path)
    except (OSError, mlcorr.NetworkError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}")


def _load_dataset_dir(ds_dir, expect_cells):
    manifest_path = Path(ds_dir) / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no dataset in {ds_dir} (manifest.json missing); "
                          "run the dataset command first")
    manifest = json.loads(manifest_path.read_text())
    trains, vals = [], []
    for entry in manifest["trajectories"]:
        _times, frames = solver.read_frames(Path(ds_dir) / entry["file"])
        frames = np.stack(frames)
        if frames.shape[1] != expect_cells:
            raise ConfigError(
                f"dataset {entry['file']} has {frames.shape[1]} cells, "
                f"configured mesh has {expect_cells}")
        tr = train.Trajectory(family=entry["family"], frames=frames, ic_params={})
        (trains if entry["kind"] == "train" else vals).append(tr)
    return trains, vals


def cmd_gradcheck(cfg):
    out = out_dir_for(cfg)
    mesh = build_mesh_from_config(cfg)
    gc = cfg["gradcheck"]
    report = _checked(
        "gradcheck", train.gradient_check,
        mesh=mesh, step_cfg=step_config(cfg, gradient="ml_lsq", co=cfg["dataset"]["co"]),
        weights=loss_weights(cfg), net_config=net_config(cfg),
        gas=gas_model(cfg),
        n_steps=gc["n_steps"], rel_tol=gc["rel_tol"],
        param_sample=gc["param_sample"], seed=gc["seed"])
    report["config_hash"] = config_hash(cfg)
    (out / "gradcheck.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    log.info("gradcheck: pass=%s frac_ok=%.4f (report in gradcheck.json)",
             report["pass"], report["frac_ok"])
    _write_manifest(out, cfg, ["gradcheck.json"], mesh)
    return EXIT_OK if report["pass"] else EXIT_GRADCHECK


def cmd_train(cfg):
    out = out_dir_for(cfg)
    tc = cfg["train"]
    if tc["require_gradcheck"]:
        gc_path = out / "gradcheck.json"
        if not gc_path.exists():
            log.error("no gradcheck report in %s; run the gradcheck command "
                      "first or set train.require_gradcheck: false", out)
            return EXIT_GRADCHECK
        report = json.loads(gc_path.read_text())
        if not report.get("pass") or report.get("config_hash") != config_hash(cfg):
            log.error("gradcheck report is failing or stale; refusing to train")
            return EXIT_GRADCHECK
    coarse = build_mesh_from_config(cfg)
    trains, vals = _load_dataset_dir(out / cfg["dataset"]["dir"], coarse.n_cells)
    tcfg = _checked(
        "train", train.TrainConfig,
        lr=tc["lr"], decay=tc["decay"], epochs=tc["epochs"],
        batch_size=tc["batch_size"], beta1=tc["beta1"], beta2=tc["beta2"],
        weight_decay=tc["weight_decay"], checkpoint_every=tc["checkpoint_every"],
        seed=tc["seed"])
    result = train.train(
        coarse, step_config(cfg, gradient="ml_lsq", co=cfg["dataset"]["co"]),
        trains, vals, tcfg=tcfg, weights=loss_weights(cfg),
        net_config=net_config(cfg), gas=gas_model(cfg),
        out_dir=out)
    solver.write_csv(out / "history.csv", train.HISTORY_COLUMNS,
                     ([row[c] for c in train.HISTORY_COLUMNS] for row in result.history),
                     header_comment=f"config {config_hash(cfg)}")
    n_samples = sum(tr.n_pairs for tr in trains)
    _write_manifest(out, cfg, ["history.csv", "params.gfnn"], coarse,
                    train_workers=train.workers(min(tcfg.batch_size, n_samples)))
    if result.aborted:
        log.error("training aborted on non-finite loss; last good checkpoint kept")
        return EXIT_NUMERIC
    log.info("training done: %d optimizer steps, final params -> params.gfnn",
             len(result.history))
    return EXIT_OK


def cmd_simulate(cfg, checkpoint=None):
    out = out_dir_for(cfg)
    mesh = build_mesh_from_config(cfg)
    ic = build_ic(cfg)
    bc_table = table_from_ic(mesh, ic)
    gas = gas_model(cfg)
    params = None
    gradient = cfg["step"]["gradient"]
    if checkpoint is not None:
        params = _load_checkpoint(checkpoint)
        if not gradient.startswith("ml_"):
            gradient = f"ml_{gradient}"
    elif gradient.startswith("ml_"):
        raise ConfigError(f"gradient mode '{gradient}' needs a checkpoint")
    cfg_step = step_config(cfg, gradient=gradient)
    w0 = prim_to_cons(ic(mesh.centroid), gas)
    record = solver.rollout(mesh, w0, cfg["simulate"]["n_steps"], cfg_step,
                            bc_table, params=params)
    solver.write_frames(out / "frames.bin", record.times, record.frames)
    solver.write_csv(out / "diagnostics.csv", solver.DIAGNOSTIC_COLUMNS,
                     ([row[c] for c in solver.DIAGNOSTIC_COLUMNS] for row in record.diagnostics),
                     header_comment=f"config {config_hash(cfg)}")
    log.info("simulate: %d frames -> %s", len(record.frames), out / "frames.bin")
    _write_manifest(out, cfg, ["frames.bin", "diagnostics.csv"], mesh)
    return EXIT_OK


def cmd_bench(cfg, checkpoint=None):
    out = out_dir_for(cfg)
    bc_cfg = cfg["bench"]
    gas = gas_model(cfg)
    params = _load_checkpoint(checkpoint) if checkpoint else mlcorr.zero_params(
        net_config(cfg))
    artifacts = []
    mesh = None
    head = f"config {config_hash(cfg)}"
    if bc_cfg["kind"] == "gain":
        if not bc_cfg["cases"]:
            raise ConfigError("bench: need at least one case")
        if bc_cfg["bc"] not in ("subsonic_out", "periodic"):
            raise ConfigError(f"bench.bc must be 'subsonic_out' or 'periodic', "
                              f"got {bc_cfg['bc']!r}")
        cases = [_checked("bench", benchmod.riemann_case, case_id=cid)
                 for cid in bc_cfg["cases"]]
        mesh = _checked("bench", benchmod.riemann_mesh, n=bc_cfg["n"],
                        periodic=bc_cfg["bc"] == "periodic")
        fine, pm = msh.refine_uniform(mesh)
        for case in cases:
            cid = case.case_id
            report = _checked(
                "bench", benchmod.run_gain,
                case_or_ic=case, coarse=mesh, fine=fine, pm=pm, params=params,
                n_steps=bc_cfg["n_steps"], co=cfg["step"]["co"],
                gas=gas, record_every=bc_cfg["record_every"])
            name = f"gain_case{cid}.csv"
            solver.write_csv(out / name, benchmod.GAIN_COLUMNS,
                             zip(report.steps, report.times, report.l_coarse, report.l_ml,
                                 report.gain_pct), header_comment=head)
            artifacts.append(name)
            log.info("case %d: mean gain over last quarter = %.2f%%",
                     cid, report.mean_gain(0.25))
    elif bc_cfg["kind"] == "study":
        rows, slopes = _checked(
            "bench", benchmod.error_cost_study,
            case_ids=bc_cfg["cases"], levels=bc_cfg["levels"], params=params,
            t_final=bc_cfg["t_final"], co=cfg["step"]["co"], gas=gas,
            repeats=bc_cfg["repeats"])
        solver.write_csv(out / "study.csv", benchmod.STUDY_COLUMNS, rows,
                         header_comment=f"{head} slopes {slopes}")
        artifacts.append("study.csv")
        log.info("convergence slopes: %s", slopes)
    else:
        raise ConfigError(f"unknown bench.kind '{bc_cfg['kind']}'")
    _write_manifest(out, cfg, artifacts, mesh)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _schema_help():
    lines = ["config keys (YAML):"]
    for section, spec in SCHEMA.items():
        if isinstance(spec, dict):
            for key, (typ, default) in spec.items():
                lines.append(f"  {section}.{key} ({typ.__name__}, default {default!r})")
        else:
            typ, default = spec
            lines.append(f"  {section} ({typ.__name__}, default {default!r})")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fvgrad",
        description="Unstructured finite-volume Euler solver with a learned "
                    "gradient correction.",
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command",
                        choices=["mesh", "dataset", "train", "simulate",
                                 "bench", "gradcheck"])
    parser.add_argument("-c", "--config", required=True, help="YAML config file")
    parser.add_argument("--checkpoint", help="network checkpoint (.gfnn)")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG

    try:
        if args.command == "mesh":
            return cmd_mesh(cfg)
        if args.command == "dataset":
            return cmd_dataset(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, checkpoint=args.checkpoint)
        if args.command == "bench":
            return cmd_bench(cfg, checkpoint=args.checkpoint)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
