"""Line trace of the package under the runs that are not tests: which
statement lines of ``src/fvgrad`` no run reaches.

    python studies/traffic/run.py OUT

from the root of the repository (``runs/`` is ignored by git, e.g.
``runs/traffic``).  It takes no options.  In this one process, with
``sys.settrace`` and ``threading.settrace`` limited to the files of
``src/fvgrad``, it runs:

1. ``perfbench/run.py --smoke``;
2. 1 s full-size benchmark runs (``--seconds 1 --trace 0``) of sim-20k and
   channel-12k on up to two CPUs, so their large steps run in blocks on the
   step's thread pool;
3. a 1 s run of train-1k5 on one CPU;
4. ``studies/claim-288/run.py`` on one CPU, into OUT/claim-288;
5. the CLI runs of ``CLI_RUNS`` on one CPU, each into OUT/cli/<name>: every
   mesh kind; periodic, slip-wall, subsonic-in, subsonic-out,
   supersonic-in and supersonic-out boundaries; ``case:``, ``family:``,
   ``constant:`` and ``forward_step`` initial conditions; dataset,
   gradcheck and train; simulate and a gain bench with ``--checkpoint``; a
   gain bench without one and a study bench.

A pass that trains runs pinned to one CPU (``os.sched_setaffinity`` on this
process), so ``train``'s process pool forks no child: the trace cannot
follow a child.  The benchmark's sim-20k and channel-12k runs train on two
CPUs; the caller runs the first share of every map, so a child runs no line
that the caller does not.

It writes OUT/unreached.txt: each statement line of a function of the
package that no run reached, as ``file:line<TAB>function<TAB>source``, and
prints the count per file.  The trace starts before the package is
imported; only lines inside functions are listed, since module and class
bodies hold definitions.  It is not a test: a line it lists is a candidate for removal, and error handling and
input validation appear there by design.  It takes a few minutes.
"""

import os

# one BLAS thread, as the benchmark and the CLI set it, before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import inspect  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "fvgrad"
sys.path.insert(0, str(ROOT / "src"))

PERIODIC = {"kind": "structured", "n": 6, "periodic": True}
SHORT = {"n_steps": 3}
GAIN = {"kind": "gain", "n_steps": 8, "record_every": 4}

# (name, command, config, checkpoint run or None).  A name's output
# directory is OUT/cli/<name>; "train" holds the dataset, the gradcheck
# report and the checkpoint, and "mesh" the mesh file that a mesh of kind
# file reads.
CLI_RUNS = [
    ("mesh", "mesh", {"mesh": PERIODIC}, None),
    ("mesh_irregular", "mesh", {"mesh": {"kind": "irregular", "n": 6}}, None),
    ("mesh_forward_step", "mesh", {"mesh": {"kind": "forward_step", "h_target": 0.2}}, None),
    ("mesh_file", "mesh", {"mesh": {"kind": "file"}}, None),
    ("sim_case", "simulate", {"mesh": PERIODIC, "simulate": {"ic": "case:6", **SHORT}}, None),
    ("sim_family", "simulate", {"mesh": {"kind": "irregular", "n": 6},
                                "simulate": {"ic": "family:f1", **SHORT}}, None),
    ("sim_file", "simulate", {"mesh": {"kind": "file"},
                              "simulate": {"ic": "family:f2", **SHORT}}, None),
    ("sim_slip_wall", "simulate", {"mesh": {**PERIODIC, "periodic": False, "bc": "slip_wall"},
                                   "simulate": {"ic": "constant:1,0.1,0.05,1", **SHORT}}, None),
    ("sim_subsonic_in", "simulate", {"mesh": {**PERIODIC, "periodic": False,
                                              "bc": "subsonic_in"},
                                     "simulate": {"ic": "constant:1,0.2,0,1", **SHORT}}, None),
    ("sim_subsonic_out", "simulate", {"mesh": {**PERIODIC, "periodic": False},
                                      "simulate": {"ic": "case:3", **SHORT}}, None),
    ("sim_supersonic_in", "simulate", {"mesh": {**PERIODIC, "periodic": False,
                                                "bc": "supersonic_in"},
                                       "simulate": {"ic": "constant:1,2,0,1", **SHORT}}, None),
    ("sim_supersonic_out", "simulate", {"mesh": {"kind": "irregular", "n": 6, "periodic": False,
                                                 "bc": "supersonic_out"},
                                        "simulate": {"ic": "family:f3", **SHORT}}, None),
    ("sim_forward_step", "simulate", {"mesh": {"kind": "forward_step", "h_target": 0.2},
                                      "simulate": {"ic": "forward_step", "n_steps": 2}}, None),
    ("sim_gg_unlimited", "simulate", {"mesh": PERIODIC, "step": {"gradient": "gg",
                                                                 "limiter": False},
                                      "simulate": {"ic": "case:6", **SHORT}}, None),
    ("train", "dataset", {"mesh": PERIODIC, "dataset": {"count": 2, "n_val": 1, "steps": 4}},
     None),
    ("train", "gradcheck", {"mesh": PERIODIC, "dataset": {"count": 2, "n_val": 1, "steps": 4}},
     None),
    ("train", "train", {"mesh": PERIODIC, "dataset": {"count": 2, "n_val": 1, "steps": 4},
                        "train": {"epochs": 1}}, None),
    ("sim_checkpoint", "simulate", {"mesh": PERIODIC, "simulate": {"ic": "case:6", **SHORT}},
     "train"),
    ("sim_checkpoint_gg", "simulate", {"mesh": PERIODIC, "step": {"gradient": "gg"},
                                       "simulate": {"ic": "family:f2", **SHORT}}, "train"),
    ("bench_checkpoint", "bench", {"mesh": PERIODIC,
                                   "bench": {**GAIN, "cases": ["family:f1", "case:6"]}},
     "train"),
    ("bench_bounded", "bench", {"mesh": {**PERIODIC, "periodic": False},
                                "bench": {**GAIN, "cases": ["case:6", "constant:1,0.1,0,1"]}},
     None),
    ("bench_study", "bench", {"mesh": PERIODIC, "step": {"co": 0.01},
                              "bench": {"kind": "study", "cases": ["case:6"],
                                        "levels": [4, 6, 8], "t_final": 0.02, "repeats": 1}},
     None),
]


class LineTrace:
    """The (file, line) pairs that ran in the package's files, on every
    thread started after ``start``."""

    def __init__(self, files):
        self.files = set(files)
        self.reached = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.files else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def function_lines(path):
    """{line: qualified name of the innermost function} of every statement
    line inside a function of the file at path."""
    out = {}

    def walk(code):
        # a class body runs on import like the module's: only functions
        # have their own locals (CO_NEWLOCALS)
        if code.co_flags & inspect.CO_NEWLOCALS:
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    out[line] = code.co_qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return out


def _pinned(cpus, fn, *args):
    """fn(*args) with this process allowed only the given CPUs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return fn(*args)
    finally:
        os.sched_setaffinity(0, allowed)


def _cli_runs(out):
    """Every run of CLI_RUNS into out/<name>; raises on an unexpected exit."""
    from fvgrad import cli

    for name, command, cfg, checkpoint in CLI_RUNS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg = {**cfg, "out_dir": str(run_dir)}
        if cfg["mesh"]["kind"] == "file":
            cfg["mesh"] = {**cfg["mesh"], "path": str(out / "mesh" / "mesh.txt")}
        path = run_dir / f"{command}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv = [command, "-c", str(path)]
        if checkpoint:
            argv += ["--checkpoint", str(out / checkpoint / "params.gfnn")]
        code = cli.main(argv)
        print(f"traffic: fvgrad {command} ({name}) exited {code}", flush=True)
        # a bench that rejects a run exits 3 and still scores the others
        if code not in ({cli.EXIT_OK, cli.EXIT_NUMERIC} if command == "bench" else {cli.EXIT_OK}):
            raise SystemExit(f"traffic: fvgrad {command} ({name}) exited {code}")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    one, two = {cpus[0]}, set(cpus[:2])
    files = sorted(PACKAGE.glob("*.py"))
    trace = LineTrace(str(f) for f in files)

    # traced from the package's import on, so the functions that run only
    # on import (the schema's _fields) count as reached
    trace.start()
    try:
        perfbench = runpy.run_path(str(ROOT / "perfbench" / "run.py"), run_name="perfbench")
        claim = runpy.run_path(str(ROOT / "studies" / "claim-288" / "run.py"), run_name="claim")
        perfbench["main"](["--smoke"])
        for workload in ("sim-20k", "channel-12k"):
            _pinned(two, perfbench["main"], ["--workload", workload, "--seconds", "1"])
        _pinned(one, perfbench["main"], ["--workload", "train-1k5", "--seconds", "1"])
        _pinned(one, claim["main"], [str(out / "claim-288"), str(out / "claim-288.json")])
        _pinned(one, _cli_runs, out / "cli")
    finally:
        trace.stop()

    rows = []
    for path in files:
        src = path.read_text().splitlines()
        name = path.relative_to(ROOT).as_posix()
        missed = sorted((line, fn) for line, fn in function_lines(path).items()
                        if (str(path), line) not in trace.reached)
        print(f"traffic: {name}: {len(missed)} statement lines unreached")
        rows += [f"{name}:{line}\t{fn}\t{src[line - 1].strip()}" for line, fn in missed]
    (out / "unreached.txt").write_text("".join(r + "\n" for r in rows))
    print(f"traffic: {len(rows)} lines -> {out / 'unreached.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
