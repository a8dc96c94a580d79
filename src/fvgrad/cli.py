"""Command-line entry point: mesh, dataset, train, simulate, bench, gradcheck.

Everything that affects numerics lives in a YAML config file; flags only
pick the command, config path and verbosity, so a run is reproducible from
its config alone.  Unknown config keys are rejected.  The keys and defaults
of the ``step``, ``dataset``, ``train``, ``loss`` and ``net`` sections are
the fields of their dataclasses (``solver.StepConfig`` with
``euler.GasModel``, ``train.DatasetSpec``, ``train.TrainConfig``,
``train.LossWeights``, ``mlcorr.NetConfig``), plus ``dataset.dir`` and
``train.require_gradcheck``.  Every artifact directory receives a run
manifest with the config hash, and text artifacts carry the hash in a
header comment.  The ``step`` section sets the step for the dataset's
references, gradcheck, training and scoring: the references march its plain
mode and training its corrected mode (``StepConfig.plain``, ``corrected``).

Exit codes:
  0  ok
  2  config error: bad or unknown config key, a value out of its range
     (e.g. ``step.co`` not > 0, a ``dataset.mix`` not summing to 1, a
     count such as ``train.epochs``, ``train.batch_size`` or
     ``gradcheck.param_sample`` below 1, a ``simulate.n_steps`` below 0, a
     ``gradcheck.rel_tol`` not finite and > 0, a ``train.lr`` or
     ``train.weight_decay`` not finite and >= 0, a ``train.beta1`` or
     ``train.beta2`` outside [0, 1), a ``loss`` weight not finite and
     >= 0), an IC
     spec that does not parse (``simulate.ic`` or a ``bench.cases`` entry,
     e.g. ``family:f9``), a study on a ``mesh.kind`` without ``mesh.n``
     (``file``, ``forward_step``), missing config file or ``mesh.path``
     file, a ``mesh.path`` file that does not parse (empty, a bad header, a
     row of the wrong form, an unknown boundary type, fewer rows than the
     header counts), missing or corrupt
     ``--checkpoint`` (also one whose network is not sized for the Euler
     stencil: ``n_vars`` other than 4 or ``n_neighbors`` other than 3),
     dataset directory without manifest.json, corrupt dataset (a manifest
     key missing, a frame file missing, unreadable or not matching its
     manifest sha256, fewer than 2 frames, or frames of another cell count
     than the configured mesh), a dataset whose manifest records no step or
     another step, ``dataset``, ``gradcheck`` or ``train`` on a mesh with
     boundary faces (their runs march periodic initial conditions)
  3  numeric failure: rejected solver step, inadmissible state (initial or
     boundary: an inflow state or back pressure taken from the initial
     condition), mesh error (a built-in mesh, or a ``mesh.path`` file that
     parses, whose triangles the build rejects), domain error while
     recording the tape, non-finite network activation.  ``bench`` scores
     past a rejected step: it writes every CSV, lists each rejected run
     (IC spec, mesh cell count, run, step and cell) under ``rejected`` in
     the run manifest and logs it, then exits 3
  4  gradient-check failure, or a missing / stale gradcheck report (``gradcheck_hash``)
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
import dataclasses  # noqa: E402
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
from .euler import AdmissibilityError, prim_to_cons  # noqa: E402
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


def _fields(cls):
    """Schema entries key -> (type, default) of a dataclass's fields.  A
    field that holds a dataclass gives that class's fields instead, in the
    same section; a tuple field takes a YAML list."""
    out = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            out.update(_fields(f.type))
        elif f.type is tuple:
            out[f.name] = (list, list(f.default))
        else:
            out[f.name] = (f.type, f.default)
    return out


# schema: key -> (type or nested dict, default).  The step, dataset, train,
# loss and net sections are the fields of the objects built from them
# (``_build``), with each field's own type and default.
SCHEMA = {
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
    "step": _fields(solver.StepConfig),     # with GasModel's gamma
    "dataset": {**_fields(train.DatasetSpec), "dir": (str, "dataset")},
    "train": {**_fields(train.TrainConfig), "require_gradcheck": (bool, True)},
    "loss": _fields(train.LossWeights),
    "net": _fields(mlcorr.NetConfig),
    "simulate": {
        "ic": (str, "case:6"),              # case:N | family:fX | constant:r,u,v,p
        "n_steps": (int, 200),
        "ic_seed": (int, 0),
        "max_amp": (float, 6.0),
    },
    "bench": {
        "kind": (str, "gain"),              # gain (on mesh) | study (mesh.n per level)
        "cases": (list, ["case:6"]),        # IC specs as simulate.ic, family draws
                                            # with simulate.ic_seed and max_amp
        "n_steps": (int, 2000),
        "record_every": (int, 10),
        "levels": (list, [12, 16, 24]),     # study: mesh.n of each level
        "t_final": (float, 0.2),
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


def gradcheck_hash(cfg):
    """A gradcheck report's key: the hash of the sections its result reads."""
    return config_hash({s: cfg[s] for s in ("mesh", "step", "loss", "net", "gradcheck")})


def out_dir_for(cfg):
    out = Path(cfg["out_dir"])
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


def _write_manifest(out, cfg, artifacts, mesh=None, train_workers=None,
                    train_group_samples=None, skipped_steps=None, rejected=None):
    """run_manifest.json: the config and its hash, the artifacts, the numpy
    version, the OpenBLAS thread count in effect (``blas_threads``), how
    many blocks a step on the run's mesh runs in (``solver.step_workers``; null for a study, which
    steps on several), how many processes a training minibatch runs on
    (``train.workers`` of its groups), the most samples a group holds
    (``train.group_samples``) and how many optimizer steps were skipped on
    a non-finite gradient (``TrainResult.skipped_steps``; all three null for
    a command that does not train) and the runs a bench rejected
    (``bench.score``; null for another command)."""
    manifest = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "artifacts": sorted(artifacts),
        "numpy_version": np.__version__,
        "openblas_num_threads": blas_threads(),
        "step_workers": None if mesh is None else solver.step_workers(mesh.n_cells),
        "train_workers": train_workers,
        "train_group_samples": train_group_samples,
        "skipped_steps": skipped_steps,
        "rejected": rejected,
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
        except (OSError, msh.MeshFileError) as exc:
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


def build_ic(cfg, spec):
    """Initial-condition evaluator points -> primitive field for an IC spec in
    ``simulate.ic``'s syntax; a family draws with simulate.ic_seed and
    simulate.max_amp.  A malformed spec is a config error that names it."""
    sc = cfg["simulate"]
    kind, _, arg = str(spec).partition(":")
    try:
        if kind == "case":
            return benchmod.riemann_case(int(arg)).evaluate
        if kind == "family":
            params = train.draw_ic_params(arg, np.random.default_rng(sc["ic_seed"]))
            return lambda pts: train.evaluate_ic(arg, params, pts, sc["max_amp"])
        if kind == "constant":
            vals = np.array([float(v) for v in arg.split(",")])
            if vals.shape != (4,):
                raise ValueError("a constant IC needs 4 components rho,u,v,p")
            return lambda pts: np.broadcast_to(vals, (len(pts), 4)).copy()
    except ValueError as exc:
        raise ConfigError(f"IC spec {spec!r}: {exc}") from exc
    if spec == "forward_step":
        return lambda pts: np.broadcast_to(benchmod.FORWARD_STEP_STATE,
                                           (len(pts), 4)).copy()
    raise ConfigError(f"unknown IC spec {spec!r} (case:N, family:fX, "
                      f"constant:rho,u,v,p or forward_step)")


def _checked(section, make, **kwargs):
    """make(**kwargs); its checks' ValueError, or the TypeError of a value of
    the wrong element type (``bench.levels: [a]``), is a config error.  A
    numeric failure while make runs passes through unchanged."""
    try:
        return make(**kwargs)
    except NUMERIC_ERRORS:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _build(cfg, section, cls):
    """cls from config section: each field the section's key of its name (a
    dataclass field built the same way).  A value its checks reject,
    NetConfig's NetworkError included, is a config error."""
    kwargs = {f.name: _build(cfg, section, f.type) if dataclasses.is_dataclass(f.type)
              else cfg[section][f.name] for f in dataclasses.fields(cls)}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _training_setup(cfg):
    """What gradcheck and train take alike: step, loss weights and network."""
    return {"step_cfg": _build(cfg, "step", solver.StepConfig),
            "weights": _build(cfg, "loss", train.LossWeights),
            "net_config": _build(cfg, "net", mlcorr.NetConfig)}


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


def _periodic_mesh(cfg, command):
    """The configured mesh for dataset, gradcheck and train, whose runs have
    no boundary states: one with boundary faces is a config error."""
    mesh = build_mesh_from_config(cfg)
    if mesh.n_ghost:
        raise ConfigError(f"{command} requires a periodic mesh ({mesh.n_ghost} boundary faces)")
    return mesh


def cmd_dataset(cfg):
    out = out_dir_for(cfg)
    ds_dir = out / cfg["dataset"]["dir"]
    coarse = _periodic_mesh(cfg, "dataset")
    fine, pm = msh.refine_uniform(coarse)
    spec = _build(cfg, "dataset", train.DatasetSpec)
    manifest = train.generate_dataset(spec, coarse, fine, pm, ds_dir,
                                      _build(cfg, "step", solver.StepConfig))
    log.info("dataset: %d train + %d val trajectories -> %s",
             spec.count, spec.n_val, ds_dir)
    # files under out_dir are listed relative to it, the others absolute
    paths = [ds_dir / f for f in train.dataset_files(manifest)]
    _write_manifest(out, cfg, [str(p.relative_to(out)) if p.is_relative_to(out)
                               else str(p.absolute()) for p in paths], coarse)
    return EXIT_OK


def _load_checkpoint(path):
    """Network parameters from --checkpoint; a missing or corrupt file is a
    config error."""
    try:
        return mlcorr.load_params(path)
    except (OSError, mlcorr.NetworkError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}")


def cmd_gradcheck(cfg):
    out = out_dir_for(cfg)
    mesh = _periodic_mesh(cfg, "gradcheck")
    gc = cfg["gradcheck"]
    report = _checked(
        "gradcheck", train.gradient_check,
        mesh=mesh, **_training_setup(cfg),
        n_steps=gc["n_steps"], rel_tol=gc["rel_tol"],
        param_sample=gc["param_sample"], seed=gc["seed"])
    report["sections_hash"] = gradcheck_hash(cfg)
    (out / "gradcheck.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    log.info("gradcheck: pass=%s frac_ok=%.4f (report in gradcheck.json)",
             report["pass"], report["frac_ok"])
    _write_manifest(out, cfg, ["gradcheck.json"], mesh)
    return EXIT_OK if report["pass"] else EXIT_GRADCHECK


def cmd_train(cfg):
    out = out_dir_for(cfg)
    tc = cfg["train"]
    tcfg = _build(cfg, "train", train.TrainConfig)
    setup = _training_setup(cfg)
    coarse = _periodic_mesh(cfg, "train")
    if tc["require_gradcheck"]:
        gc_path = out / "gradcheck.json"
        if not gc_path.exists():
            log.error("no gradcheck report in %s; run the gradcheck command "
                      "first or set train.require_gradcheck: false", out)
            return EXIT_GRADCHECK
        report = json.loads(gc_path.read_text())
        if not report.get("pass") or report.get("sections_hash") != gradcheck_hash(cfg):
            log.error("gradcheck report is failing or stale; refusing to train")
            return EXIT_GRADCHECK
    trains, vals = _checked("dataset", train.load_dataset, ds_dir=out / cfg["dataset"]["dir"],
                            n_cells=coarse.n_cells, step_cfg=setup["step_cfg"])
    result = train.train(mesh=coarse, train_trajs=trains, val_trajs=vals, tcfg=tcfg,
                         out_dir=out, **setup)
    solver.write_csv(out / "history.csv", train.HISTORY_COLUMNS,
                     ([row[c] for c in train.HISTORY_COLUMNS] for row in result.history),
                     header_comment=f"config {config_hash(cfg)}")
    n_samples = sum(tr.n_pairs for tr in trains)
    groups = train.batch_groups(min(tcfg.batch_size, n_samples), coarse.n_cells)
    _write_manifest(out, cfg, ["history.csv", "params.gfnn"], coarse,
                    train_workers=train.workers(groups),
                    train_group_samples=train.group_samples(coarse.n_cells),
                    skipped_steps=result.skipped_steps)
    if result.aborted:
        log.error("training aborted on non-finite loss; last good checkpoint kept")
        return EXIT_NUMERIC
    log.info("training done: %d optimizer steps, final params -> params.gfnn",
             len(result.history))
    return EXIT_OK


def cmd_simulate(cfg, checkpoint=None):
    out = out_dir_for(cfg)
    mesh = build_mesh_from_config(cfg)
    ic = build_ic(cfg, cfg["simulate"]["ic"])
    bc_table = table_from_ic(mesh, ic)
    params = None
    cfg_step = _build(cfg, "step", solver.StepConfig)
    if checkpoint is not None:
        params = _load_checkpoint(checkpoint)
        cfg_step = cfg_step.corrected()
    elif cfg_step.uses_network:
        raise ConfigError(f"gradient mode '{cfg_step.gradient}' needs a checkpoint")
    w0 = prim_to_cons(ic(mesh.centroid), cfg_step.gas)
    record = _checked("simulate", solver.rollout, mesh=mesh, w0=w0,
                      n_steps=cfg["simulate"]["n_steps"], cfg=cfg_step,
                      bc_table=bc_table, params=params)
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
    params = (_load_checkpoint(checkpoint) if checkpoint
              else mlcorr.zero_params(_build(cfg, "net", mlcorr.NetConfig)))
    if not bc_cfg["cases"]:
        raise ConfigError("bench: need at least one case")
    cases = {spec: build_ic(cfg, spec) for spec in bc_cfg["cases"]}
    step_cfg = _build(cfg, "step", solver.StepConfig)
    head, mesh, rejected = f"config {config_hash(cfg)}", None, []
    if bc_cfg["kind"] == "gain":
        mesh = build_mesh_from_config(cfg)
        fine, pm = msh.refine_uniform(mesh)
        artifacts = [f"gain_{spec.replace(':', '')}.csv" for spec in cases]
        for (spec, evaluate), name in zip(cases.items(), artifacts):
            rows, stopped = _checked(
                "bench", benchmod.gain, evaluate=evaluate, coarse=mesh, fine=fine,
                pm=pm, cfg=step_cfg, params=params, n_steps=bc_cfg["n_steps"],
                record_every=bc_cfg["record_every"])
            solver.write_csv(out / name, benchmod.GAIN_COLUMNS, rows, header_comment=head)
            rejected += [{"case": spec, "cells": mesh.n_cells, **entry} for entry in stopped]
            log.info("%s: mean gain over last quarter = %.2f%%", spec,
                     np.mean([row[-1] for row in rows[-max(1, len(rows) // 4):]]))
    elif bc_cfg["kind"] == "study":
        if cfg["mesh"]["kind"] in ("file", "forward_step"):
            raise ConfigError(f"bench.kind 'study' sets mesh.n per level; "
                              f"mesh.kind '{cfg['mesh']['kind']}' has no mesh.n")
        meshes = [build_mesh_from_config({**cfg, "mesh": {**cfg["mesh"], "n": n}})
                  for n in bc_cfg["levels"]]
        rows, slopes, rejected = _checked(
            "bench", benchmod.error_cost_study, cases=cases, meshes=meshes,
            cfg=step_cfg, params=params, t_final=bc_cfg["t_final"], repeats=bc_cfg["repeats"])
        solver.write_csv(out / "study.csv", benchmod.STUDY_COLUMNS, rows,
                         header_comment=f"{head} slopes {slopes}")
        artifacts = ["study.csv"]
        log.info("convergence slopes: %s", slopes)
    else:
        raise ConfigError(f"unknown bench.kind '{bc_cfg['kind']}'")
    _write_manifest(out, cfg, artifacts, mesh, rejected=rejected)
    for entry in rejected:
        log.error("rejected: %(case)s on %(cells)s cells, run %(run)s at step %(step)s, "
                  "cell %(cell)s", entry)
    return EXIT_NUMERIC if rejected else EXIT_OK


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
