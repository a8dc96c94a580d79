import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fvgrad import autodiff as ad
from fvgrad import bench, cli, mlcorr, solver, train
from fvgrad import mesh as msh

from conftest import save_params_sized, save_params_with_offset, seeded_network_params

SMALL = {"mesh": {"kind": "structured", "n": 6, "periodic": True}}


@pytest.fixture
def run(tmp_path, monkeypatch):
    """cli.main on a YAML config written from a dict, run from tmp_path, so
    artifacts land under it."""
    monkeypatch.chdir(tmp_path)

    def _run(command, cfg, *extra):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return cli.main([command, "-c", str(path), *extra])

    return _run


def _out(tmp_path):
    return tmp_path / "runs" / "out"


def test_mesh_command_writes_mesh_and_manifest(run, tmp_path):
    assert run("mesh", SMALL) == cli.EXIT_OK
    out = _out(tmp_path)
    assert (out / "mesh.txt").is_file()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["artifacts"] == ["mesh.txt"]
    assert manifest["config"]["mesh"]["n"] == 6


@pytest.mark.parametrize("n,config_hash", [(6, "6637c827f629e1fd"), (71, "134e8cc7b2cb4f7b")],
                         ids=["6", "71"])
def test_manifest_records_step_workers_and_numpy_version(run, tmp_path, n, config_hash):
    cfg = {"mesh": {"kind": "structured", "n": n, "periodic": True}}
    assert run("mesh", cfg) == cli.EXIT_OK
    manifest = json.loads((_out(tmp_path) / "run_manifest.json").read_text())
    cells = 2 * n * n
    assert manifest["step_workers"] == solver.step_workers(cells)
    assert manifest["step_workers"] == (1 if n == 6 else min(2, solver._cpus()))
    assert manifest["numpy_version"] == np.__version__
    # the keys sit beside the config: its hash is the one recorded before them
    assert manifest["config_hash"] == cli.config_hash(manifest["config"]) == config_hash


# runs the given commands, then prints the thread count of the loaded
# OpenBLAS ("unknown" where none is found, as on a build with another BLAS)
CLI_PROBE = """
import ctypes, sys
from fvgrad import cli
config, commands = sys.argv[1], sys.argv[2:]
code = max(cli.main([command, "-c", config]) for command in commands)
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
threads = "unknown"
for lib in map(ctypes.CDLL, libs):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if threads == "unknown" and hasattr(lib, sym):
            threads = getattr(lib, sym)()
print(threads)
sys.exit(code)
"""


def _fresh_cli(tmp_path, cfg, commands, blas_threads=None):
    """The CLI in a fresh interpreter run from tmp_path, where numpy has not
    loaded yet, with OPENBLAS_NUM_THREADS unset or set to blas_threads.  Returns the loaded
    OpenBLAS's thread count and the last command's manifest."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    done = subprocess.run([sys.executable, "-c", CLI_PROBE, str(path), *commands], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == cli.EXIT_OK, done.stderr
    manifest = json.loads((_out(tmp_path) / "run_manifest.json").read_text())
    return done.stdout.split()[-1], manifest


@pytest.mark.parametrize("user_value", [None, "2"], ids=["unset", "user_set"])
def test_cli_runs_one_blas_thread_unless_the_user_sets_a_count(tmp_path, user_value):
    """The default must be set before numpy loads."""
    loaded, manifest = _fresh_cli(tmp_path, SMALL, ["mesh"], user_value)
    if loaded == "unknown":
        assert manifest["openblas_num_threads"] is None
    else:
        expect = min(int(user_value or "1"), len(os.sched_getaffinity(0)))
        assert int(loaded) == expect == manifest["openblas_num_threads"]
    assert manifest["train_workers"] is None
    assert manifest["train_group_samples"] is None
    assert manifest["skipped_steps"] is None


def test_importing_the_cli_after_numpy_leaves_the_environment_alone():
    """The default counts only before numpy loads; a caller that loaded numpy
    first keeps its environment, and that of the processes it starts."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import os, numpy, fvgrad.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["None"]


def test_manifest_records_train_workers(tmp_path):
    """A minibatch of 3 samples on 72 cells is one group, which runs on one
    process."""
    cfg = {**SMALL, "dataset": {"count": 2, "n_val": 0, "steps": 4},
           "train": {"epochs": 1, "batch_size": 3, "require_gradcheck": False}}
    _, manifest = _fresh_cli(tmp_path, cfg, ["dataset", "train"])
    assert manifest["train_group_samples"] == train.group_samples(72) == 56
    assert manifest["train_workers"] == train.workers(1) == 1
    assert manifest["skipped_steps"] == 0


def test_unknown_key_is_config_error(run):
    assert run("mesh", {**SMALL, "mesh_size": 3}) == cli.EXIT_CONFIG
    assert run("mesh", {"mesh": {"kind": "structured", "nn": 6}}) == cli.EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["mesh", "-c", str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_missing_checkpoint_is_config_error(run, tmp_path, command):
    cfg = {**SMALL, "simulate": {"n_steps": 1}, "bench": {"n_steps": 1}}
    assert run(command, cfg, "--checkpoint", str(tmp_path / "none.gfnn")) == cli.EXIT_CONFIG


@pytest.mark.parametrize("keep", [8, 40, -64, -61])
def test_truncated_checkpoint_is_config_error(run, tmp_path, keep):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(mlcorr.zero_params(), path)
    path.write_bytes(path.read_bytes()[:keep])
    cfg = {**SMALL, "simulate": {"n_steps": 1}}
    assert run("simulate", cfg, "--checkpoint", str(path)) == cli.EXIT_CONFIG


def test_checkpoint_with_a_wrong_offset_is_config_error(run, tmp_path, caplog):
    path = tmp_path / "net.gfnn"
    save_params_with_offset(mlcorr.zero_params(), path, "head_b", 10**6)
    cfg = {**SMALL, "simulate": {"n_steps": 1}}
    assert run("simulate", cfg, "--checkpoint", str(path)) == cli.EXIT_CONFIG
    assert "offsets" in caplog.text


@pytest.mark.parametrize("field", ["n_vars", "n_neighbors"])
def test_checkpoint_not_sized_for_the_stencil_is_config_error(run, tmp_path, caplog, field):
    path = tmp_path / "net.gfnn"
    value = {"n_vars": 5, "n_neighbors": 4}[field]
    save_params_sized(mlcorr.zero_params(), path, field, value)
    cfg = {**SMALL, "step": {"gradient": "ml_lsq"}, "simulate": {"n_steps": 1}}
    assert run("simulate", cfg, "--checkpoint", str(path)) == cli.EXIT_CONFIG
    assert f"{field}={value}" in caplog.text


def test_bad_alpha_max_is_config_error(run):
    cfg = {**SMALL, "net": {"alpha_max": 0.0}, "bench": {"n_steps": 1}}
    assert run("bench", cfg) == cli.EXIT_CONFIG


@pytest.mark.parametrize("net", [{"width": -1}, {"width": 0}, {"combine": 0}])
def test_a_net_size_below_one_is_config_error(run, caplog, net):
    cfg = {**SMALL, "net": net, "dataset": {"count": 1, "n_val": 1, "steps": 1},
           "train": {"epochs": 1, "require_gradcheck": False}}
    assert run("dataset", cfg) == cli.EXIT_OK
    assert run("train", cfg) == cli.EXIT_CONFIG
    assert "must be a positive integer" in caplog.text


@pytest.mark.parametrize("command,cfg", [
    ("simulate", {**SMALL, "step": {"co": 0}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"gamma": 1.0}, "simulate": {"n_steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"mix": [0.5, 0.5, 0.5], "steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"mix": ["a", "b"], "steps": 1}}),
    ("gradcheck", {**SMALL, "loss": {"tvd": -1.0}}),
    ("simulate", {**SMALL, "simulate": {"ic": "case:99", "n_steps": 1}}),
    ("simulate", {**SMALL, "simulate": {"ic": "case:six", "n_steps": 1}}),
    ("simulate", {**SMALL, "simulate": {"ic": "family:f9", "n_steps": 1}}),
    ("simulate", {**SMALL, "simulate": {"ic": "constant:a,1,1,1", "n_steps": 1}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "record_every": 0}}),
    ("bench", {**SMALL, "bench": {"n_steps": 0}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "cases": ["case:99"]}}),
    ("bench", {"mesh": {"kind": "structured", "n": 0}, "bench": {"n_steps": 1}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "cases": []}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "cases": ["family:f9"]}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "cases": ["constant:a,1,1,1"]}}),
    ("bench", {**SMALL, "bench": {"n_steps": 1, "cases": [6]}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "levels": [4, 6]}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "cases": []}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "repeats": 0}}),
    ("bench", {"mesh": {"kind": "forward_step", "h_target": 0.2},
               "bench": {"kind": "study", "levels": [4, 5, 6]}}),
    ("mesh", {"mesh": {"kind": "structured", "n": 0}}),
    ("simulate", {"mesh": {"kind": "irregular", "n": 0}, "simulate": {"n_steps": 1}}),
    ("mesh", {"mesh": {"kind": "forward_step", "h_target": 0.0}}),
    ("mesh", {"mesh": {"kind": "forward_step", "h_target": -0.1}}),
    ("simulate", {**SMALL, "step": {"save_every": 0}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"limiter_k": float("nan")}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"limiter_k": -5.0}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"co": float("nan")}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"gamma": float("nan")}, "simulate": {"n_steps": 1}}),
    ("gradcheck", {**SMALL, "gradcheck": {"param_sample": 0}}),
    ("gradcheck", {**SMALL, "gradcheck": {"n_steps": 0}}),
    ("dataset", {**SMALL, "dataset": {"count": -1, "steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"n_val": -2, "steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"mix": [1.5, -0.5, 0], "steps": 1}}),
    ("simulate", {"mesh": {"kind": "file", "path": "no_such_mesh.txt"},
                  "simulate": {"n_steps": 1}}),
    ("dataset", {**SMALL, "step": {"co": 0}, "dataset": {"steps": 1}}),
    ("dataset", {**SMALL, "step": {"co": float("nan")}, "dataset": {"steps": 1}}),
    ("train", {**SMALL, "train": {"lr": float("nan"), "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"lr": float("inf"), "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"weight_decay": float("nan"), "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"weight_decay": -0.1, "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"beta1": 1.5, "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"beta1": 1.0, "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"beta2": -1.0, "require_gradcheck": False}}),
    ("train", {**SMALL, "train": {"beta2": float("nan"), "require_gradcheck": False}}),
    ("train", {**SMALL, "loss": {"ent": float("nan")}, "train": {"require_gradcheck": False}}),
    ("train", {**SMALL, "loss": {"tvd": float("inf")}, "train": {"require_gradcheck": False}}),
    ("gradcheck", {**SMALL, "loss": {"reg": float("nan")}}),
    ("simulate", {**SMALL, "simulate": {"n_steps": -3}}),
    ("gradcheck", {**SMALL, "gradcheck": {"rel_tol": 0.0}}),
    ("gradcheck", {**SMALL, "gradcheck": {"rel_tol": -1e-5}}),
    ("gradcheck", {**SMALL, "gradcheck": {"rel_tol": float("nan")}}),
], ids=["step_co_zero", "gamma_one", "dataset_mix", "dataset_mix_not_numbers",
        "negative_loss_weight", "simulate_unknown_case", "simulate_case_not_a_number",
        "simulate_unknown_family", "simulate_constant_not_a_number",
        "bench_record_every_zero",
        "bench_n_steps_zero", "bench_unknown_case", "bench_n_zero", "bench_no_cases",
        "bench_unknown_family", "bench_constant_not_a_number", "bench_integer_case",
        "study_two_levels", "study_no_cases",
        "study_zero_repeats", "study_on_the_forward_step", "mesh_n_zero",
        "simulate_irregular_n_zero",
        "mesh_h_target_zero", "mesh_h_target_negative", "step_save_every_zero",
        "step_limiter_k_nan", "step_limiter_k_negative", "step_co_nan", "gamma_nan",
        "gradcheck_param_sample_zero", "gradcheck_n_steps_zero", "dataset_count_negative",
        "dataset_n_val_negative", "dataset_mix_negative_fraction", "mesh_path_missing",
        "dataset_co_zero", "dataset_co_nan", "train_lr_nan", "train_lr_inf",
        "train_weight_decay_nan", "train_weight_decay_negative", "train_beta1_above_one",
        "train_beta1_one", "train_beta2_negative", "train_beta2_nan", "loss_ent_nan",
        "loss_tvd_inf", "gradcheck_loss_reg_nan", "simulate_n_steps_negative",
        "gradcheck_rel_tol_zero", "gradcheck_rel_tol_negative", "gradcheck_rel_tol_nan"])
def test_out_of_range_value_is_config_error(run, caplog, command, cfg):
    assert run(command, cfg) == cli.EXIT_CONFIG
    assert "config error" in caplog.text and "unknown config key" not in caplog.text
    # a rejected training or loss setting names its key
    for section in ("train", "loss"):
        for key in set(cfg.get(section, {})) - {"require_gradcheck"}:
            assert f"{key} must" in caplog.text, key


def test_an_empty_config_builds_the_dataclass_defaults(tmp_path):
    """With no key set, the CLI builds each object its section describes
    equal to the dataclass's own default."""
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = cli.load_config(path)
    assert cli._build(cfg, "step", solver.StepConfig) == solver.StepConfig()
    assert cli._build(cfg, "dataset", train.DatasetSpec) == train.DatasetSpec()
    assert cli._build(cfg, "train", train.TrainConfig) == train.TrainConfig()
    assert cli._build(cfg, "loss", train.LossWeights) == train.LossWeights()
    assert cli._build(cfg, "net", mlcorr.NetConfig) == mlcorr.NetConfig()


def test_help_names_every_config_key_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    epilog = capsys.readouterr().out.splitlines()
    leaves = {f"{section}.{key}": spec[key] for section, spec in cli.SCHEMA.items()
              if isinstance(spec, dict) for key in spec}
    leaves |= {key: spec for key, spec in cli.SCHEMA.items() if not isinstance(spec, dict)}
    assert len(leaves) == 52
    for name, (typ, default) in leaves.items():
        assert f"  {name} ({typ.__name__}, default {default!r})" in epilog, name


def test_bad_train_config_is_config_error(run, tmp_path):
    ds = _out(tmp_path) / "dataset"
    ds.mkdir(parents=True)
    (ds / "manifest.json").write_text(json.dumps({"trajectories": []}))
    for bad in ({"decay": 0.0}, {"batch_size": 0}, {"checkpoint_every": 0}, {"epochs": 0}):
        cfg = {**SMALL, "train": {"require_gradcheck": False, **bad}}
        assert run("train", cfg) == cli.EXIT_CONFIG, bad


def test_train_without_dataset_is_config_error(run):
    cfg = {**SMALL, "train": {"require_gradcheck": False}}
    assert run("train", cfg) == cli.EXIT_CONFIG


def _flip_a_data_bit(path):
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _rehash(path):
    """Write the file's new hash into its manifest entry."""
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["trajectories"]:
        if entry["file"] == path.name:
            entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def _truncate_and_rehash(path):
    """A truncated file whose manifest entry carries its new hash: the frame
    reader, not the hash check, finds it."""
    _truncate(path)
    _rehash(path)


def _keep_one_frame(path):
    """The file's first frame alone, its manifest entry rehashed: a
    trajectory with no supervision pair."""
    times, frames = solver.read_frames(path)
    solver.write_frames(path, times[:1], frames[:1])
    _rehash(path)


def _empty_manifest(path):
    path.write_text("{}")


def _drop_a_file_key(path):
    manifest = json.loads(path.read_text())
    del manifest["trajectories"][1]["file"]
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("name,corrupt,mesh_n,key", [
    ("val_000.frames", _flip_a_data_bit, 6, None),
    ("train_000.frames", _truncate, 6, None),
    ("train_000.frames", _truncate_and_rehash, 6, None),
    ("train_000.frames", _keep_one_frame, 6, None),
    ("val_000.frames", _keep_one_frame, 6, None),
    ("train_000.frames", None, 5, None),
    ("train_001.frames", Path.unlink, 6, None),
    ("manifest.json", _empty_manifest, 6, "trajectories"),
    ("manifest.json", _drop_a_file_key, 6, "file"),
], ids=["flipped_bit", "truncated", "truncated_rehashed", "one_train_frame", "one_val_frame",
        "cell_count", "missing_file", "empty_manifest", "entry_without_file"])
def test_a_corrupt_dataset_is_config_error(run, tmp_path, caplog, name, corrupt, mesh_n, key):
    cfg = {**SMALL, "dataset": {"count": 2, "n_val": 1, "steps": 2},
           "train": {"epochs": 1, "require_gradcheck": False}}
    assert run("dataset", cfg) == cli.EXIT_OK
    assert run("train", cfg) == cli.EXIT_OK
    if corrupt is not None:
        corrupt(_out(tmp_path) / "dataset" / name)
    cfg["mesh"] = {**SMALL["mesh"], "n": mesh_n}
    caplog.clear()
    assert run("train", cfg) == cli.EXIT_CONFIG
    assert f"dataset file {name}" in caplog.text
    if key is not None:
        assert f"lacks key {key!r}" in caplog.text


def test_dataset_manifest_lists_only_the_files_of_this_run(run, tmp_path):
    # a smaller dataset written over a larger one leaves the larger one's
    # extra frame files in place, but does not list them
    cfg = {**SMALL, "dataset": {"count": 4, "n_val": 1, "steps": 2}}
    assert run("dataset", cfg) == cli.EXIT_OK
    cfg["dataset"] = {**cfg["dataset"], "count": 2}
    assert run("dataset", cfg) == cli.EXIT_OK
    out = _out(tmp_path)
    assert (out / "dataset" / "train_003.frames").is_file()
    artifacts = json.loads((out / "run_manifest.json").read_text())["artifacts"]
    assert artifacts == ["dataset/manifest.json", "dataset/train_000.frames",
                         "dataset/train_001.frames", "dataset/val_000.frames"]


def test_a_dataset_outside_out_dir_is_listed_by_absolute_path(run, tmp_path):
    ds_dir = tmp_path / "elsewhere"
    cfg = {**SMALL, "dataset": {"count": 1, "n_val": 1, "steps": 2, "dir": str(ds_dir)},
           "train": {"epochs": 1, "require_gradcheck": False}}
    assert run("dataset", cfg) == cli.EXIT_OK
    artifacts = json.loads((_out(tmp_path) / "run_manifest.json").read_text())["artifacts"]
    assert artifacts == [str(ds_dir / f) for f in
                         ("manifest.json", "train_000.frames", "val_000.frames")]
    assert run("train", cfg) == cli.EXIT_OK


# sha256 prefixes of the frame files of a small dataset at the default step,
# recorded when the dataset marched its own co (0.03, now the default step.co)
# and the default limiter
DATASET_DIGESTS = {"train_000.frames": "a066c5df49a9ce83",
                   "train_001.frames": "2bd30827e8411b13",
                   "val_000.frames": "fa2f603a954a3c88"}


def test_dataset_references_march_the_configured_plain_step(run, tmp_path):
    """Every field of the step changes every frame file, except an ml_
    prefix: the references march the plain mode."""
    def digests(step):
        cfg = {**SMALL, "step": step, "dataset": {"count": 2, "n_val": 1, "steps": 5}}
        assert run("dataset", cfg) == cli.EXIT_OK
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                for path in sorted((_out(tmp_path) / "dataset").glob("*.frames"))}

    assert digests({}) == DATASET_DIGESTS
    assert digests({"gradient": "ml_lsq"}) == DATASET_DIGESTS
    for step in ({"limiter": False}, {"limiter_k": 0.5}, {"gradient": "gg"}, {"co": 0.02},
                 {"gamma": 1.3}):
        other = digests(step)
        assert all(other[name] != DATASET_DIGESTS[name] for name in DATASET_DIGESTS), step


@pytest.mark.parametrize("made_with,field", [
    ({"limiter": False}, "limiter"), ({"limiter_k": 0.5, "co": 0.02}, "co"),
    ({"gradient": "gg"}, "gradient"), ({"gamma": 1.3, "limiter_k": 0.5}, "limiter_k")],
    ids=["limiter", "co", "gradient", "limiter_k"])
def test_train_rejects_a_dataset_of_another_step(run, tmp_path, caplog, made_with, field):
    """The manifest records the plain step; train names the first field
    that differs from the configured one and exits 2."""
    cfg = {**SMALL, "dataset": {"count": 1, "n_val": 1, "steps": 2},
           "train": {"epochs": 1, "require_gradcheck": False}}
    assert run("dataset", {**cfg, "step": made_with}) == cli.EXIT_OK
    manifest = json.loads((_out(tmp_path) / "dataset" / "manifest.json").read_text())
    assert manifest["step"] == {"co": 0.03, "gradient": "lsq", "limiter": True,
                                "limiter_k": 5.0, "gamma": 1.4, **made_with}
    assert run("train", cfg) == cli.EXIT_CONFIG
    assert f"step.{field} " in caplog.text and "re-run the dataset command" in caplog.text
    # its corrected mode is the same step
    corrected = {**made_with, "gradient": f"ml_{made_with.get('gradient', 'lsq')}"}
    assert run("train", {**cfg, "step": corrected}) == cli.EXIT_OK


def test_train_rejects_a_dataset_that_records_no_step(run, tmp_path, caplog):
    cfg = {**SMALL, "dataset": {"count": 1, "n_val": 1, "steps": 2},
           "train": {"epochs": 1, "require_gradcheck": False}}
    assert run("dataset", cfg) == cli.EXIT_OK
    path = _out(tmp_path) / "dataset" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["step"]
    path.write_text(json.dumps(manifest))
    assert run("train", cfg) == cli.EXIT_CONFIG
    assert "records no step" in caplog.text and "re-run the dataset command" in caplog.text


BOUNDED_MESHES = {"structured_4": {"kind": "structured", "n": 4, "periodic": False},
                  "forward_step": {"kind": "forward_step", "h_target": 0.2}}


@pytest.mark.parametrize("mesh", sorted(BOUNDED_MESHES))
@pytest.mark.parametrize("command", ["dataset", "gradcheck", "train"])
def test_a_command_of_periodic_runs_on_a_bounded_mesh_is_config_error(run, caplog, command,
                                                                      mesh):
    """dataset, gradcheck and train march periodic initial conditions with
    no boundary states.  On a mesh with boundary faces each exits 2 naming
    itself; train does so before it reads the gradcheck report or the
    dataset, here one made on the periodic mesh of 4 x 4 quads."""
    cfg = {"dataset": {"count": 1, "n_val": 1, "steps": 2}, "gradcheck": {"param_sample": 4},
           "train": {"epochs": 1, "require_gradcheck": False}}
    periodic = {**cfg, "mesh": {"kind": "structured", "n": 4, "periodic": True}}
    assert run("dataset", periodic) == cli.EXIT_OK
    bounded = {**cfg, "mesh": BOUNDED_MESHES[mesh]}
    caplog.clear()
    assert run(command, bounded) == cli.EXIT_CONFIG
    assert f"config error: {command} requires a periodic mesh" in caplog.text
    if command == "train":
        assert run(command, {**bounded, "train": {"epochs": 1}}) == cli.EXIT_CONFIG


def test_every_command_steps_at_step_co(run, monkeypatch):
    """The dataset, gradcheck, train, simulate and bench take their time
    step from step.co alone."""
    seen = []
    compute_dt = solver.compute_dt

    def spy(mesh, cfg):
        seen.append(cfg.co)
        return compute_dt(mesh, cfg)

    monkeypatch.setattr(solver, "compute_dt", spy)
    cfg = {**SMALL, "step": {"co": 0.02}, "dataset": {"count": 1, "n_val": 1, "steps": 2},
           "train": {"epochs": 1}, "simulate": {"n_steps": 2}, "bench": {"n_steps": 2},
           "gradcheck": {"param_sample": 4}}
    for command in ("dataset", "gradcheck", "train", "simulate", "bench"):
        seen.clear()
        assert run(command, cfg) == cli.EXIT_OK, command
        assert seen and set(seen) == {0.02}, (command, seen)


def test_step_gradient_gg_trains_ml_gg_against_gg_references(run, tmp_path, monkeypatch):
    """On one CPU every step of the pipeline runs in this process: the
    references march gg, gradcheck and train step ml_gg."""
    monkeypatch.setattr(solver, "_cpus", lambda: 1)
    modes = []
    step = solver.step_explicit_euler

    def spy(mesh, w, dt, cfg, *args, **kwargs):
        modes.append(cfg.gradient)
        return step(mesh, w, dt, cfg, *args, **kwargs)

    monkeypatch.setattr(solver, "step_explicit_euler", spy)
    cfg = {**SMALL, "step": {"gradient": "gg"}, "dataset": {"count": 2, "n_val": 1, "steps": 3},
           "train": {"epochs": 1}, "gradcheck": {"param_sample": 8}}
    expect = {"dataset": {"gg"}, "gradcheck": {"gg", "ml_gg"}, "train": {"ml_gg"}}
    for command, used in expect.items():
        modes.clear()
        assert run(command, cfg) == cli.EXIT_OK, command
        assert set(modes) == used, command
    assert json.loads((_out(tmp_path) / "gradcheck.json").read_text())["pass"]


def test_a_gradcheck_report_is_keyed_by_the_sections_it_reads(run, caplog):
    """Another train.seed or dataset.count leaves the report valid; another
    step.co makes it stale."""
    cfg = {**SMALL, "dataset": {"count": 1, "n_val": 0, "steps": 2}, "train": {"epochs": 1},
           "gradcheck": {"param_sample": 4}}
    assert run("dataset", cfg) == cli.EXIT_OK
    assert run("gradcheck", cfg) == cli.EXIT_OK
    assert run("train", cfg) == cli.EXIT_OK
    assert run("train", {**cfg, "train": {"epochs": 1, "seed": 1}}) == cli.EXIT_OK
    more = {**cfg, "dataset": {"count": 2, "n_val": 0, "steps": 2}}
    assert run("dataset", more) == cli.EXIT_OK
    assert run("train", more) == cli.EXIT_OK
    caplog.clear()
    assert run("train", {**cfg, "step": {"co": 0.02}}) == cli.EXIT_GRADCHECK
    assert "failing or stale" in caplog.text


@pytest.mark.parametrize("exc", [
    ad.TraceError("sqrt of non-positive value", "sqrt", 7),
    mlcorr.NetworkError("non-finite activation", layer="head"),
], ids=["trace", "network"])
def test_numeric_errors_exit_numeric(run, monkeypatch, exc):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "cmd_mesh", fail)
    assert run("mesh", SMALL) == cli.EXIT_NUMERIC


def test_nan_initial_state_exits_numeric(run):
    cfg = {**SMALL, "simulate": {"ic": "constant:nan,0,0,1", "n_steps": 1}}
    assert run("simulate", cfg) == cli.EXIT_NUMERIC


BOUNDED = {"mesh": {"kind": "structured", "n": 6, "periodic": False, "bc": "subsonic_out"}}


@pytest.mark.parametrize("ic", ["constant:1,0,0,-1", "constant:1,0,0,nan"])
def test_inadmissible_boundary_state_exits_numeric(run, ic):
    """The back pressure of the default subsonic_out tag comes from the IC."""
    cfg = {**BOUNDED, "simulate": {"ic": ic, "n_steps": 1}}
    assert run("simulate", cfg) == cli.EXIT_NUMERIC


def test_default_mesh_bc_simulates(run):
    cfg = {"mesh": {"periodic": False}, "simulate": {"n_steps": 2}}
    assert run("simulate", cfg) == cli.EXIT_OK


def test_forward_step_mesh_file_simulates_like_the_built_in_mesh(run, tmp_path):
    """Each tag's BC states come from the IC at that tag's own faces, on the
    built-in mesh too: its inflow follows simulate.ic, not the step's state."""
    mesh_cfg = {"kind": "forward_step", "h_target": 0.2}
    assert run("mesh", {"mesh": mesh_cfg}) == cli.EXIT_OK
    mesh_file = tmp_path / "step_mesh.txt"
    (_out(tmp_path) / "mesh.txt").rename(mesh_file)
    runs = {}
    for ic in ("forward_step", "case:6"):
        built_in = {"mesh": mesh_cfg, "simulate": {"ic": ic, "n_steps": 3}}
        assert run("simulate", built_in) == cli.EXIT_OK
        runs[ic] = (_out(tmp_path) / "frames.bin").read_bytes()
        from_file = {**built_in, "mesh": {"kind": "file", "path": str(mesh_file)}}
        assert run("simulate", from_file) == cli.EXIT_OK
        assert (_out(tmp_path) / "frames.bin").read_bytes() == runs[ic], ic
    assert runs["forward_step"] != runs["case:6"]


MESH_FILE = "nodes 4 cells 2\n0 0\n1 0\n1 1\n0 1\n0 1 2 0\n0 2 3 0\n"


@pytest.mark.parametrize("text,line", [
    ("", None),
    ("nodes x cells 2\n", 1),
    ("nodes 4\n", 1),
    ("nodes -4 cells 2\n", 1),
    (MESH_FILE.replace("0 2 3 0", "0 1"), 7),
    (MESH_FILE.replace("1 1\n", "1.0 abc\n"), 4),
    (MESH_FILE.replace("1 1\n", "1 1 1\n"), 4),
    (MESH_FILE + "0 0 1 WOBBLY\n", 8),
    (MESH_FILE + "0 0 1 SLIP_WALL x\n", 8),
    (MESH_FILE.replace("cells 2", "cells 3"), 1),
    (MESH_FILE.replace("nodes 4", "nodes 3"), 5),
    ("\n\n" + MESH_FILE.replace("nodes 4", "nodes 5"), 3),
    (MESH_FILE + "0 1 2 0\n", 8),
    (MESH_FILE + "0 0 1 SLIP_WALL\n1 1 0 SUPERSONIC_IN\n", 9),
    (MESH_FILE + "0 0 2 SUPERSONIC_IN\n", 8),
    (MESH_FILE + "0 1 3 SUPERSONIC_IN\n", 8),
], ids=["empty", "bad_count", "short_header", "negative_count", "short_triangle",
        "bad_coordinate", "long_node_row", "unknown_bc", "bad_group", "too_few_rows",
        "too_few_nodes", "too_many_nodes", "extra_triangle", "repeated_boundary_edge",
        "interior_boundary_edge", "boundary_row_for_no_edge"])
def test_a_mesh_file_that_does_not_parse_is_config_error(run, tmp_path, caplog, text, line):
    """Each names the file and the line; the CLI exits 2, as for a corrupt
    checkpoint or dataset."""
    path = tmp_path / "bad_mesh.txt"
    path.write_text(text)
    with pytest.raises(msh.MeshFileError, match=f"{path}:{line}:" if line else str(path)):
        msh.read_mesh_ascii(path)
    assert run("mesh", {"mesh": {"kind": "file", "path": str(path)}}) == cli.EXIT_CONFIG
    assert "cannot read mesh.path" in caplog.text


@pytest.mark.parametrize("text", [MESH_FILE, MESH_FILE.replace("0 2 3 0", "0 1 2 0"),
                                  MESH_FILE.replace("1 1\n", "nan 1\n")],
                         ids=["well_formed", "duplicate_triangle", "nan_node"])
def test_a_mesh_file_the_build_rejects_exits_numeric(run, tmp_path, text):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    code = run("mesh", {"mesh": {"kind": "file", "path": str(path)}})
    assert code == (cli.EXIT_OK if text == MESH_FILE else cli.EXIT_NUMERIC)


def test_bench_bc_takes_the_mesh_bc_tag_names(run, caplog):
    cfg = {"mesh": {"n": 4, "periodic": False, "bc": "subsonic_out"}, "bench": {"n_steps": 1}}
    assert run("bench", cfg) == cli.EXIT_OK
    cfg["mesh"]["bc"] = "subsonic_outflow"
    assert run("bench", cfg) == cli.EXIT_CONFIG
    assert "unknown mesh.bc tag 'subsonic_outflow'" in caplog.text


@pytest.mark.parametrize("command,spec", [
    ("simulate", "family:f9"), ("simulate", "constant:a,1,1,1"),
    ("bench", "family:f9"), ("bench", "constant:a,1,1,1"), ("bench", 6)])
def test_a_malformed_ic_spec_is_named(run, caplog, command, spec):
    section = {"simulate": {"ic": spec, "n_steps": 1},
               "bench": {"cases": ["case:6", spec], "n_steps": 1}}[command]
    assert run(command, {**SMALL, command: section}) == cli.EXIT_CONFIG
    assert f"IC spec {spec!r}" in caplog.text


@pytest.mark.parametrize("key,cfg", [("seed", {"seed": 0}), ("bench.n", {"bench": {"n": 27}}),
                                     ("bench.bc", {"bench": {"bc": "periodic"}}),
                                     ("dataset.co", {"dataset": {"co": 0.03}})],
                         ids=["seed", "bench_n", "bench_bc", "dataset_co"])
def test_removed_keys_are_unknown(run, caplog, key, cfg):
    assert run("bench", cfg) == cli.EXIT_CONFIG
    assert f"unknown config key '{key}'" in caplog.text


def test_diagnostics_csv_has_cfl_and_bc_clamps(run, tmp_path):
    cfg = {**BOUNDED, "step": {"save_every": 2}, "simulate": {"n_steps": 3}}
    assert run("simulate", cfg) == cli.EXIT_OK
    header, columns, *rows = (_out(tmp_path) / "diagnostics.csv").read_text().splitlines()
    columns = columns.split(",")
    assert columns[-2:] == ["cfl", "bc_clamps"]
    rows = [dict(zip(columns, row.split(","))) for row in rows]
    assert [row["step"] for row in rows] == ["0", "2", "3"]
    assert (rows[0]["cfl"], rows[0]["bc_clamps"]) == ("nan", "0")
    assert all(0.0 < float(row["cfl"]) < 1.0 for row in rows[1:])


def test_limiter_k_zero_is_legal(run):
    cfg = {**SMALL, "step": {"limiter_k": 0.0}, "simulate": {"n_steps": 2}}
    assert run("simulate", cfg) == cli.EXIT_OK


def test_numeric_error_inside_a_bench_run_exits_numeric(run, monkeypatch):
    # the run goes through the config-value check, which must let it pass
    def fail(*args, **kwargs):
        raise mlcorr.NetworkError("non-finite activation", layer="head")

    monkeypatch.setattr(cli.benchmod, "score", fail)
    assert run("bench", {**SMALL, "bench": {"n_steps": 1}}) == cli.EXIT_NUMERIC


def test_bench_takes_the_step_config(run, tmp_path):
    """The gain scores step.gradient (less any ml_ prefix) and ml_<that>, with
    the configured limiter."""
    mesh_cfg = {"kind": "structured", "n": 5, "periodic": False}
    bench_cfg = {"cases": ["case:6"], "n_steps": 6, "record_every": 3}

    def rows(step):
        cfg = {"mesh": mesh_cfg, "step": step, "bench": bench_cfg}
        assert run("bench", cfg) == cli.EXIT_OK
        return (_out(tmp_path) / "gain_case6.csv").read_text().splitlines()[2:]

    default, gg = rows({}), rows({"gradient": "ml_gg"})
    assert rows({"limiter": False}) != default
    assert gg != default
    coarse = msh.structured_mesh(5, boundary_spec=msh.BoundarySpec.uniform(msh.SUBSONIC_OUT))
    fine, pm = msh.refine_uniform(coarse)
    runs = {"gg": (solver.StepConfig(gradient="gg"), None),
            "ml_gg": (solver.StepConfig(gradient="ml_gg"), mlcorr.zero_params())}
    direct, rejected = bench.score(bench.riemann_case(6).evaluate, coarse, fine, pm,
                                   runs["gg"][0], runs, 6, 3)
    assert rejected == []
    assert [[float(v) for v in row.split(",")[2:4]] for row in gg] == [
        [errors["gg"], errors["ml_gg"]] for _, errors in direct]


def test_a_rejected_run_is_a_result(run, tmp_path, caplog):
    """At co 0.2 on 72 cells, case 11's reference and both coarse runs are
    rejected; case 6 is still scored, every file is written, and the command
    exits 3 naming each rejected run."""
    cfg = {"mesh": {"kind": "structured", "n": 6, "periodic": False}, "step": {"co": 0.2},
           "bench": {"cases": ["case:11", "case:6"], "n_steps": 20, "record_every": 5}}
    assert run("bench", cfg) == cli.EXIT_NUMERIC
    out = _out(tmp_path)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["artifacts"] == ["gain_case11.csv", "gain_case6.csv"]
    assert [(e["case"], e["cells"], e["run"]) for e in manifest["rejected"]] == [
        ("case:11", 72, "reference"), ("case:11", 72, "lsq"), ("case:11", 72, "ml_lsq")]
    steps = {e["run"]: e["step"] for e in manifest["rejected"]}
    assert 5 < steps["reference"] < steps["lsq"] == steps["ml_lsq"] <= 20
    assert all(isinstance(e["cell"], int) for e in manifest["rejected"])
    for e in manifest["rejected"]:
        assert f"case:11 on 72 cells, run {e['run']} at step {e['step']}, cell {e['cell']}" \
            in caplog.text
    for cid in (11, 6):
        _, columns, *rows = (out / f"gain_case{cid}.csv").read_text().splitlines()
        rows = [dict(zip(columns.split(","), row.split(","))) for row in rows]
        assert [row["step"] for row in rows] == ["5", "10", "15", "20"]
        for row in rows:
            values = [float(row[c]) for c in ("L_coarse", "L_ML", "gain_pct")]
            # the reference stops between steps 10 and 15, and with it every error
            assert np.isnan(values).all() == (cid == 11 and int(row["step"]) > 10)
            assert not np.isnan(values).any() or np.isnan(values).all()


def test_a_rejected_study_run_is_a_result(run, tmp_path):
    """At co 0.3 every level above n=4 rejects a reference: its errors and
    the slopes read NaN, a rejected coarse run has no wall time, and the
    command exits 3 after writing study.csv."""
    cfg = {**SMALL, "step": {"co": 0.3},
           "bench": {"kind": "study", "cases": ["case:11", "case:6"], "levels": [4, 5, 6],
                     "t_final": 0.1, "repeats": 1}}
    assert run("bench", cfg) == cli.EXIT_NUMERIC
    out = _out(tmp_path)
    rejected = json.loads((out / "run_manifest.json").read_text())["rejected"]
    assert {(e["case"], e["cells"]) for e in rejected if e["run"] == "reference"} == {
        (spec, 2 * n * n) for spec in ("case:11", "case:6") for n in (5, 6)}
    assert any(e["run"] != "reference" for e in rejected)
    header, _, *rows = (out / "study.csv").read_text().splitlines()
    assert header.endswith("slopes {'lsq': nan, 'ml_lsq': nan}")
    stopped = {(e["run"], e["case"], e["cells"]) for e in rejected}
    for row in rows:
        mode, spec, _, cells, wall_s, error = row.split(",")
        assert np.isnan(float(error)) == (cells != "32")
        assert np.isnan(float(wall_s)) == ((mode, spec, int(cells)) in stopped)


def _rows(path):
    _, columns, *rows = path.read_text().splitlines()
    return [dict(zip(columns.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize("mesh_cfg,spec", [
    ({"kind": "irregular", "n": 8}, "family:f3"),
    ({"kind": "forward_step", "h_target": 0.2}, "forward_step"),
], ids=["irregular_family", "forward_step"])
def test_bench_gain_runs_on_any_configured_mesh_and_ic(run, tmp_path, mesh_cfg, spec):
    cfg = {"mesh": mesh_cfg, "bench": {"cases": [spec], "n_steps": 6, "record_every": 3}}
    assert run("bench", cfg) == cli.EXIT_OK
    name = f"gain_{spec.replace(':', '')}.csv"
    assert json.loads((_out(tmp_path) / "run_manifest.json").read_text())["artifacts"] == [name]
    rows = _rows(_out(tmp_path) / name)
    assert [row["step"] for row in rows] == ["3", "6"]
    assert all(np.isfinite(float(v)) for row in rows for v in row.values())
    assert all(float(row["L_coarse"]) > 0 for row in rows)


def test_bench_study_runs_on_irregular_levels(run, tmp_path):
    cfg = {"mesh": {"kind": "irregular"},
           "bench": {"kind": "study", "cases": ["case:6", "family:f3"], "levels": [4, 5, 6],
                     "t_final": 0.005, "repeats": 1}}
    assert run("bench", cfg) == cli.EXIT_OK
    rows = _rows(_out(tmp_path) / "study.csv")
    assert sorted({row["cells"] for row in rows}) == ["32", "50", "72"]
    assert {row["case"] for row in rows} == {"case:6", "family:f3"}
    assert all(np.isfinite(float(row["error"])) and float(row["error"]) > 0 for row in rows)


def test_every_command_runs_on_a_small_periodic_config(run, tmp_path):
    cfg = {**SMALL,
           "dataset": {"count": 4, "n_val": 1, "steps": 4},
           "train": {"epochs": 1},
           "simulate": {"ic": "family:f3", "n_steps": 10},
           "bench": {"n_steps": 20},
           "gradcheck": {"param_sample": 8}}
    codes = {command: run(command, cfg) for command in
             ("mesh", "dataset", "gradcheck", "train", "simulate", "bench")}
    assert codes == dict.fromkeys(codes, cli.EXIT_OK)
    out = _out(tmp_path)
    for name in ("mesh.txt", "dataset/manifest.json", "gradcheck.json", "history.csv",
                 "params.gfnn", "frames.bin", "diagnostics.csv", "gain_case6.csv"):
        assert (out / name).is_file(), name
    study = {"kind": "study", "cases": ["case:6", "case:3"], "levels": [4, 5, 6], "t_final": 0.005,
             "repeats": 1}
    assert run("bench", {**cfg, "bench": study}) == cli.EXIT_OK
    header, columns, *rows = (out / "study.csv").read_text().splitlines()
    assert header.startswith("# config ") and "slopes {'lsq': " in header
    assert columns == ",".join(bench.STUDY_COLUMNS) == "mode,case,h,cells,wall_s,error"
    assert len(rows) == 3 * 2 * 2
    assert json.loads((out / "run_manifest.json").read_text())["artifacts"] == ["study.csv"]


class _ReadKeys(dict):
    """A config section that adds the dotted name of every key read from it
    to ``read``.  Hashing or writing the config reads none."""

    def __init__(self, data, read, path=""):
        super().__init__((k, _ReadKeys(v, read, f"{path}{k}.") if isinstance(v, dict) else v)
                         for k, v in data.items())
        self._read, self._path = read, path

    def __getitem__(self, key):
        self._read.add(self._path + key)
        return super().__getitem__(key)


def test_every_config_key_is_read(run, tmp_path, monkeypatch):
    """Every command, and mesh once per mesh.kind, under configs that record
    the keys read: each leaf of SCHEMA must be read by some run."""
    read, load = set(), cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: _ReadKeys(load(path), read))
    cfg = {"mesh": {"n": 4}, "dataset": {"count": 1, "n_val": 1, "steps": 2},
           "train": {"epochs": 1}, "simulate": {"ic": "family:f3", "n_steps": 2},
           "gradcheck": {"param_sample": 4}, "bench": {"n_steps": 2}}
    for command in ("dataset", "gradcheck", "train", "simulate", "bench"):
        assert run(command, cfg) == cli.EXIT_OK, command
    study = {"kind": "study", "levels": [3, 4, 5], "t_final": 0.005, "repeats": 1}
    assert run("bench", {**cfg, "bench": study}) == cli.EXIT_OK
    mesh_file = tmp_path / "mesh_file.txt"
    mesh_file.write_text(MESH_FILE)
    for mesh in ({"kind": "structured", "periodic": False}, {"kind": "irregular"},
                 {"kind": "forward_step", "h_target": 0.5},
                 {"kind": "file", "path": str(mesh_file)}):
        assert run("mesh", {"mesh": mesh}) == cli.EXIT_OK, mesh
    leaves = set()
    for section, spec in cli.SCHEMA.items():
        leaves |= {f"{section}.{key}" for key in spec} if isinstance(spec, dict) else {section}
    assert leaves - read == set()


# Outputs of `bench`, pinned bitwise: sha256 prefixes of the body (column line
# and rows) of each gain CSV and of the error column of study.csv.  The
# checkpoints are none (zero parameters), the seeded initialisation, whose
# output head is zero, and a network with every entry non-zero.  The runs
# set step.co 0.01, at which they were recorded (the default step.co was
# 0.01 until it became the one co of every command, at 0.03).
BENCH_GAIN = {"cases": ["case:6", "case:3"], "n_steps": 12, "record_every": 4}
BENCH_STEP = {"co": 0.01}
BENCH_RUNS = {
    "gain_periodic": {**SMALL, "step": BENCH_STEP, "bench": BENCH_GAIN},
    "gain_subsonic_out": {"mesh": {"kind": "structured", "n": 6, "periodic": False,
                                   "bc": "subsonic_out"}, "step": BENCH_STEP,
                          "bench": BENCH_GAIN},
    "study": {**SMALL, "step": BENCH_STEP,
              "bench": {"kind": "study", "cases": ["case:6", "case:3"],
                        "levels": [4, 5, 6], "t_final": 0.01, "repeats": 1}},
}
BENCH_CHECKPOINTS = {"zero": None, "init": lambda: mlcorr.init_params(seed=0),
                     "seeded": seeded_network_params}
BENCH_DIGESTS = {
    ("gain_periodic", "zero"): {"gain_case3.csv": "dec4aaf4fc8cc18f",
                                "gain_case6.csv": "f1457e5dd214875a"},
    ("gain_periodic", "init"): {"gain_case3.csv": "dec4aaf4fc8cc18f",
                                "gain_case6.csv": "f1457e5dd214875a"},
    ("gain_periodic", "seeded"): {"gain_case3.csv": "ba9a1321667b6220",
                                  "gain_case6.csv": "9db0721b10a5e1b3"},
    ("gain_subsonic_out", "zero"): {"gain_case3.csv": "ef0152fd02826ea2",
                                    "gain_case6.csv": "dfe3f98e9cc573d6"},
    ("gain_subsonic_out", "init"): {"gain_case3.csv": "ef0152fd02826ea2",
                                    "gain_case6.csv": "dfe3f98e9cc573d6"},
    ("gain_subsonic_out", "seeded"): {"gain_case3.csv": "a223a20eea0602e7",
                                      "gain_case6.csv": "8c234a0e31269827"},
    ("study", "zero"): {"study.csv": "85f1dea2dd2c8aaf"},
    ("study", "init"): {"study.csv": "85f1dea2dd2c8aaf"},
    ("study", "seeded"): {"study.csv": "304b6e8f9c71cabf"},
}


def _bench_digests(out):
    digests = {}
    for path in sorted(out.glob("*.csv")):
        header, *body = path.read_text().splitlines()
        assert header.startswith("# config ")
        if path.name == "study.csv":
            error = body[0].split(",").index("error")
            body = [row.split(",")[error] for row in body[1:]]
        digests[path.name] = hashlib.sha256("\n".join(body).encode()).hexdigest()[:16]
    return digests


@pytest.mark.parametrize("checkpoint", BENCH_CHECKPOINTS)
@pytest.mark.parametrize("kind", BENCH_RUNS)
def test_bench_outputs_are_pinned(run, tmp_path, kind, checkpoint):
    extra = []
    if BENCH_CHECKPOINTS[checkpoint] is not None:
        path = tmp_path / "net.gfnn"
        mlcorr.save_params(BENCH_CHECKPOINTS[checkpoint](), path)
        extra = ["--checkpoint", str(path)]
    assert run("bench", BENCH_RUNS[kind], *extra) == cli.EXIT_OK
    assert _bench_digests(_out(tmp_path)) == BENCH_DIGESTS[kind, checkpoint]
