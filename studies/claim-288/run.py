"""The claim study: train the correction on three seeds and score each
trained network's gain over the plain scheme, on 288 cells.

    python studies/claim-288/run.py OUT_DIR RECORD [--config CONFIG]

e.g. ``python studies/claim-288/run.py runs/claim-288 CLAIM_<n>.json`` from
the root of the repository (``runs/`` is ignored by git).

CONFIG (default: config.yaml beside this file) holds every setting but the
four this script sets per command: ``out_dir``, ``dataset.dir``,
``train.seed`` and ``simulate.ic_seed``.  The script runs the package's
commands in this process, in this order:

1. ``dataset`` once, into OUT_DIR/dataset;
2. ``gradcheck`` once, into OUT_DIR/gradcheck.  Its report is keyed by the
   sections it reads, which no training seed changes, so it is copied into
   each training run's directory, where ``train.require_gradcheck`` finds it;
3. ``train`` for each of TRAIN_SEEDS, into OUT_DIR/seed<s>;
4. ``bench`` with each trained checkpoint for each of IC_SEEDS, into
   OUT_DIR/seed<s>/ic<i>: one gain run per ``bench.cases`` family.

It stops at the first command of steps 1-3 that fails.  A bench that rejects
a run exits 3 and still writes its rows; the script counts the rejected runs.
RECORD receives the gain at every recorded step for each training seed,
family and IC seed (null from the step a run was rejected at on), the
median, quartiles, min, max and count of positive gains at SUMMARY_STEPS
over all of them and per training seed, the counts of rejected plain,
corrected and reference runs and each rejected run, the gradcheck result,
the configuration's hash and the commit, with whether ``src/`` differed from
it.
"""

import argparse
import csv
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fvgrad import cli  # noqa: E402  (sets the BLAS thread count before numpy loads)
from fvgrad import bench  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

TRAIN_SEEDS = (0, 1, 2)
IC_SEEDS = (100, 101, 102)
SUMMARY_STEPS = (10, 20, 50, 100)


def _run(command, base, out_dir, checkpoint=None, **sections):
    """cli.main(command) on base with out_dir and the given sections'
    keys set; returns its exit code."""
    cfg = {**base, "out_dir": str(out_dir)}
    for section, values in sections.items():
        cfg[section] = {**base.get(section, {}), **values}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{command}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    argv = [command, "-c", str(path)] + (["--checkpoint", str(checkpoint)] if checkpoint else [])
    return cli.main(argv)


def _read_gains(path):
    """{step: gain_pct, or None where it is NaN} of a gain CSV."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    gains = {}
    for row in csv.DictReader(lines):
        g = float(row["gain_pct"])
        gains[row["step"]] = None if np.isnan(g) else g
    return gains


def _kind(run):
    """The kind of a bench run by its name: the reference, or the plain or
    the corrected (``ml_``) mode of the step."""
    return ("reference" if run == bench.REFERENCE
            else "corrected" if run.startswith("ml_") else "plain")


def _summaries(runs):
    """{step: n, median, quartiles, min, max and positive count of the
    finite gains} at SUMMARY_STEPS over runs, each {family: {ic_seed:
    {step: gain}}}."""
    out = {}
    for k in map(str, SUMMARY_STEPS):
        v = np.array([by_step[k] for families in runs for ics in families.values()
                      for by_step in ics.values() if by_step.get(k) is not None])
        if v.size:
            q1, median, q3 = np.percentile(v, [25, 50, 75])
            out[k] = {"n": int(v.size), "median": median, "q1": q1, "q3": q3,
                      "min": float(v.min()), "max": float(v.max()),
                      "positive": int((v > 0).sum())}
    return out


def run_study(config_path, out):
    """Run the study into out; returns the record."""
    base = yaml.safe_load(Path(config_path).read_text())
    start = time.perf_counter()
    dataset = out / "dataset"
    data = {"dir": str(dataset)}
    for command, out_dir in (("dataset", out), ("gradcheck", out / "gradcheck")):
        code = _run(command, base, out_dir, dataset=data)
        if code:
            raise SystemExit(f"{command} exited {code}")
    gradcheck = json.loads((out / "gradcheck" / "gradcheck.json").read_text())

    gains, rejected_runs = {}, []
    rejected = {"plain": 0, "corrected": 0, "reference": 0}
    for seed in TRAIN_SEEDS:
        run = out / f"seed{seed}"
        run.mkdir(parents=True, exist_ok=True)
        shutil.copy(out / "gradcheck" / "gradcheck.json", run)
        code = _run("train", base, run, dataset=data, train={"seed": seed})
        if code:
            raise SystemExit(f"train seed {seed} exited {code}")
        for ic_seed in IC_SEEDS:
            bench_dir = run / f"ic{ic_seed}"
            code = _run("bench", base, bench_dir, run / "params.gfnn",
                        simulate={"ic_seed": ic_seed})
            if code not in (cli.EXIT_OK, cli.EXIT_NUMERIC):
                raise SystemExit(f"bench seed {seed} ic_seed {ic_seed} exited {code}")
            manifest = json.loads((bench_dir / "run_manifest.json").read_text())
            for entry in manifest["rejected"]:
                rejected[_kind(entry["run"])] += 1
                rejected_runs.append({"seed": seed, "ic_seed": ic_seed, "case": entry["case"],
                                      "run": entry["run"], "step": entry["step"]})
            for spec in manifest["config"]["bench"]["cases"]:
                family = spec.split(":", 1)[1]
                gains.setdefault(f"seed{seed}", {}).setdefault(family, {})[str(ic_seed)] = (
                    _read_gains(bench_dir / f"gain_{spec.replace(':', '')}.csv"))

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    src = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode
    return {
        "commit": head.stdout.strip(),
        "src_modified": src != 0,
        "configs_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "config": base,
        "train_seeds": list(TRAIN_SEEDS),
        "ic_seeds": list(IC_SEEDS),
        "gradcheck": {key: gradcheck[key] for key in ("pass", "n_checked", "frac_ok",
                                                      "max_rel_err")},
        "gains": gains,
        "summary": _summaries(gains.values()),
        "summary_by_seed": {seed: _summaries([families]) for seed, families in gains.items()},
        "rejected": rejected,
        "rejected_runs": rejected_runs,
        "wall_s": round(time.perf_counter() - start, 1),
        "numpy": np.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for every command's output")
    parser.add_argument("record", type=Path, help="the record, a JSON file")
    parser.add_argument("--config", type=Path, default=HERE / "config.yaml")
    args = parser.parse_args(argv)
    record = run_study(args.config, args.out.resolve())
    args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
