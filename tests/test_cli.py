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

SMALL = {"mesh": {"kind": "structured", "n": 6, "periodic": True}}


@pytest.fixture
def run(tmp_path, monkeypatch):
    """cli.main on a YAML config written from a dict, artifacts under tmp_path."""
    monkeypatch.setenv("FVGRAD_OUT_ROOT", str(tmp_path))

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


@pytest.mark.parametrize("n,config_hash", [(6, "57e8ee8355a06caf"), (71, "324467b8b1a505e8")])
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
    """The CLI in a fresh interpreter, where numpy has not loaded yet, with
    OPENBLAS_NUM_THREADS unset or set to blas_threads.  Returns the loaded
    OpenBLAS's thread count and the last command's manifest."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["FVGRAD_OUT_ROOT"] = str(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    done = subprocess.run([sys.executable, "-c", CLI_PROBE, str(path), *commands], env=env,
                          capture_output=True, text=True, timeout=300)
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
    cfg = {**SMALL, "dataset": {"count": 2, "n_val": 0, "steps": 4},
           "train": {"epochs": 1, "batch_size": 3, "require_gradcheck": False}}
    _, manifest = _fresh_cli(tmp_path, cfg, ["dataset", "train"])
    assert manifest["train_workers"] == train.workers(3) == min(3, solver._cpus())


def test_unknown_key_is_config_error(run):
    assert run("mesh", {**SMALL, "mesh_size": 3}) == cli.EXIT_CONFIG
    assert run("mesh", {"mesh": {"kind": "structured", "nn": 6}}) == cli.EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["mesh", "-c", str(tmp_path / "nope.yaml")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_missing_checkpoint_is_config_error(run, tmp_path, command):
    cfg = {**SMALL, "simulate": {"n_steps": 1}, "bench": {"n": 4, "n_steps": 1}}
    assert run(command, cfg, "--checkpoint", str(tmp_path / "none.gfnn")) == cli.EXIT_CONFIG


@pytest.mark.parametrize("keep", [8, 40, -64, -61])
def test_truncated_checkpoint_is_config_error(run, tmp_path, keep):
    path = tmp_path / "net.gfnn"
    mlcorr.save_params(mlcorr.zero_params(), path)
    path.write_bytes(path.read_bytes()[:keep])
    cfg = {**SMALL, "simulate": {"n_steps": 1}}
    assert run("simulate", cfg, "--checkpoint", str(path)) == cli.EXIT_CONFIG


def test_bad_alpha_max_is_config_error(run):
    cfg = {**SMALL, "net": {"alpha_max": 0.0}, "bench": {"n": 4, "n_steps": 1}}
    assert run("bench", cfg) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command,cfg", [
    ("simulate", {**SMALL, "step": {"co": 0}, "simulate": {"n_steps": 1}}),
    ("simulate", {**SMALL, "step": {"gamma": 1.0}, "simulate": {"n_steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"mix": [0.5, 0.5, 0.5], "steps": 1}}),
    ("dataset", {**SMALL, "dataset": {"mix": ["a", "b"], "steps": 1}}),
    ("gradcheck", {**SMALL, "loss": {"tvd": -1.0}}),
    ("simulate", {**SMALL, "simulate": {"ic": "case:99", "n_steps": 1}}),
    ("simulate", {**SMALL, "simulate": {"ic": "case:six", "n_steps": 1}}),
    ("bench", {**SMALL, "bench": {"n": 4, "n_steps": 1, "record_every": 0}}),
    ("bench", {**SMALL, "bench": {"n": 4, "n_steps": 0}}),
    ("bench", {**SMALL, "bench": {"n": 4, "n_steps": 1, "cases": [99]}}),
    ("bench", {**SMALL, "bench": {"n": 0, "n_steps": 1}}),
    ("bench", {**SMALL, "bench": {"n": 4, "n_steps": 1, "cases": []}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "levels": [4, 6]}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "cases": []}}),
    ("bench", {**SMALL, "bench": {"kind": "study", "repeats": 0}}),
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
], ids=["step_co_zero", "gamma_one", "dataset_mix", "dataset_mix_not_numbers",
        "negative_loss_weight", "simulate_unknown_case", "simulate_case_not_a_number",
        "bench_record_every_zero",
        "bench_n_steps_zero", "bench_unknown_case", "bench_n_zero", "bench_no_cases",
        "study_two_levels", "study_no_cases",
        "study_zero_repeats", "mesh_n_zero", "simulate_irregular_n_zero",
        "mesh_h_target_zero", "mesh_h_target_negative", "step_save_every_zero",
        "step_limiter_k_nan", "step_limiter_k_negative", "step_co_nan", "gamma_nan",
        "gradcheck_param_sample_zero", "gradcheck_n_steps_zero", "dataset_count_negative",
        "dataset_n_val_negative", "dataset_mix_negative_fraction", "mesh_path_missing"])
def test_out_of_range_value_is_config_error(run, command, cfg):
    assert run(command, cfg) == cli.EXIT_CONFIG


def test_bad_train_config_is_config_error(run, tmp_path):
    ds = _out(tmp_path) / "dataset"
    ds.mkdir(parents=True)
    (ds / "manifest.json").write_text(json.dumps({"trajectories": []}))
    for bad in ({"decay": 0.0}, {"batch_size": 0}, {"checkpoint_every": 0}):
        cfg = {**SMALL, "train": {"require_gradcheck": False, **bad}}
        assert run("train", cfg) == cli.EXIT_CONFIG, bad


def test_train_without_dataset_is_config_error(run):
    cfg = {**SMALL, "train": {"require_gradcheck": False}}
    assert run("train", cfg) == cli.EXIT_CONFIG


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


def test_bench_bc_takes_the_mesh_bc_tag_names(run, caplog):
    cfg = {**SMALL, "bench": {"n": 4, "n_steps": 1, "bc": "subsonic_out"}}
    assert run("bench", cfg) == cli.EXIT_OK
    cfg["bench"]["bc"] = "subsonic_outflow"
    assert run("bench", cfg) == cli.EXIT_CONFIG
    assert "'subsonic_out' or 'periodic'" in caplog.text


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
    def fail(**kwargs):
        raise mlcorr.NetworkError("non-finite activation", layer="head")

    monkeypatch.setattr(cli.benchmod, "run_gain", fail)
    assert run("bench", {**SMALL, "bench": {"n": 4, "n_steps": 1}}) == cli.EXIT_NUMERIC


def test_every_command_runs_on_a_small_periodic_config(run, tmp_path):
    cfg = {**SMALL,
           "dataset": {"count": 4, "n_val": 1, "steps": 4},
           "train": {"epochs": 1},
           "simulate": {"ic": "family:f3", "n_steps": 10},
           "bench": {"n": 6, "n_steps": 20},
           "gradcheck": {"param_sample": 8}}
    codes = {command: run(command, cfg) for command in
             ("mesh", "dataset", "gradcheck", "train", "simulate", "bench")}
    assert codes == dict.fromkeys(codes, cli.EXIT_OK)
    out = _out(tmp_path)
    for name in ("mesh.txt", "dataset/manifest.json", "gradcheck.json", "history.csv",
                 "params.gfnn", "frames.bin", "diagnostics.csv", "gain_case6.csv"):
        assert (out / name).is_file(), name
    study = {"kind": "study", "cases": [6, 3], "levels": [4, 5, 6], "t_final": 0.005,
             "repeats": 1}
    assert run("bench", {**cfg, "bench": study}) == cli.EXIT_OK
    header, columns, *rows = (out / "study.csv").read_text().splitlines()
    assert header.startswith("# config ") and "slopes {'lsq': " in header
    assert columns == ",".join(bench.STUDY_COLUMNS) == "mode,case,h,cells,wall_s,error"
    assert len(rows) == 3 * 2 * 2
    assert json.loads((out / "run_manifest.json").read_text())["artifacts"] == ["study.csv"]
