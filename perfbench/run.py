#!/usr/bin/env python3
"""fvgrad benchmark: timed solver steps and training calls on three workloads.

    python3 perfbench/run.py --workload sim-20k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a run that alternates traced and untraced op
cycles, and writes its spans to ``.perfbench/``.  The last line of standard
output is the result object; the lines before it give the environment,
each timing's median, high percentile and sample count, and the unscaled
wall-time medians (the end-to-end timings are scaled to a fixed host speed;
see ``workloads``).  ``--smoke`` runs every workload on n=6 class meshes,
traced and untraced, and checks that every metric of BENCHMARK.json is
produced and mapped in ``expectations.json``.  The exit code is 1 when a
correctness check fails.
"""

import os

# one BLAS thread: a plain single-threaded baseline, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
EXPECTATIONS = HERE / "expectations.json"
TRACE_DIR = ROOT / ".perfbench"
SMOKE_SECONDS = 1.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed):
    nproc = len(os.sched_getaffinity(0))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        raise SystemExit(f"perfbench: BLAS uses {threads} threads on {nproc} CPUs")
    return {
        "cpu": _cpu_model(), "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "commit": _git_commit(), "seed": seed,
    }


def _emit(obj):
    print(json.dumps(obj), flush=True)


def _result(report, counts, metric_specs):
    metrics = {}
    for spec in metric_specs:
        value = report[spec["name"]]
        if isinstance(value, dict):
            value = value["median"]
        if not math.isfinite(value):
            raise SystemExit(f"perfbench: metric {spec['name']} is not finite")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"correct": True, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def run_once(workloads, spec, name, seed, seconds, trace, smoke=False):
    report, counts, tracer = workloads.run(name, seed, seconds, trace, smoke)
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in metric_specs} - set(report)
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {sorted(missing)}")
    if tracer is not None and not smoke:
        tracer.write(TRACE_DIR / f"trace-{name}-seed{seed}.json")
    return report, counts, metric_specs


def smoke(workloads, spec):
    expect = json.loads(EXPECTATIONS.read_text())
    unmapped = {m["name"] for m in spec["per_layer"]} - set(expect["per_layer"])
    if unmapped:
        raise SystemExit(f"perfbench: per-layer metrics missing from expectations.json: "
                         f"{sorted(unmapped)}")
    for name in workloads.WORKLOADS:
        if name not in expect["expected_baseline_failures"]:
            raise SystemExit(f"perfbench: no expected baseline failures for {name}")
        for trace in (0, 1):
            report, counts, metric_specs = run_once(workloads, spec, name, 1,
                                                    SMOKE_SECONDS, trace, smoke=True)
            result = _result(report, counts, metric_specs)
            for m in metric_specs:
                got = result["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    raise SystemExit(f"perfbench: {m['name']} has unit {got['unit']}")
            print(f"smoke {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{counts['attempted']} ops, {counts['failed']} failed", flush=True)
    _emit({"smoke": "ok"})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length at the nominal round time; default: run_seconds "
                         "of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "fvgrad" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fvgrad package under {SRC.name}/; "
                         "run from the root of a checkout of the repository")
    if not SPEC.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found at the checkout root")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    spec = json.loads(SPEC.read_text())
    if args.smoke:
        smoke(workloads, spec)
        return 0
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    _emit({"env": environment(args.seed)})
    try:
        report, counts, metric_specs = run_once(workloads, spec, args.workload,
                                                args.seed, seconds, args.trace)
    except workloads.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        counts = exc.counts
        _emit({"correct": False, "attempted": max(1, counts["attempted"]),
               "failed": counts["failed"], "metrics": {}})
        return 1
    _emit({"report": report, "ops": counts["by_kind"],
           "failed_frac": counts["failed"] / counts["attempted"]})
    _emit(_result(report, counts, metric_specs))
    return 0

if __name__ == "__main__":
    sys.exit(main())
