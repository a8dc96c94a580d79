"""The claim study's script (``studies/claim-288/run.py``) and the schema of
its committed records, ``CLAIM_*.json`` at the root of the repository."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
STUDY = ROOT / "studies" / "claim-288"
RECORDS = sorted(ROOT.glob("CLAIM_*.json"))
SUMMARY_STEPS = ("10", "20", "50", "100")


def _check_gains(rec):
    """Every run's gain is finite up to the step its plain or corrected run
    was rejected at, and null from there on; a run without a rejection has
    no null gain."""
    first = {}
    for entry in rec["rejected_runs"]:
        key = (f"seed{entry['seed']}", entry["case"].split(":", 1)[1], str(entry["ic_seed"]))
        first[key] = min(first.get(key, entry["step"]), entry["step"])
    assert sorted(rec["gains"]) == [f"seed{s}" for s in rec["train_seeds"]]
    for seed, families in rec["gains"].items():
        for family, ics in families.items():
            assert sorted(ics) == sorted(str(i) for i in rec["ic_seeds"])
            for ic, by_step in ics.items():
                assert set(SUMMARY_STEPS) <= set(by_step), (seed, family, ic)
                stop = first.get((seed, family, ic), float("inf"))
                for step, gain in by_step.items():
                    if int(step) < stop:
                        assert isinstance(gain, float), (seed, family, ic, step)
                    else:
                        assert gain is None, (seed, family, ic, step)


def _check_summary(summary):
    assert set(summary) == set(SUMMARY_STEPS)
    for q in summary.values():
        assert q["min"] <= q["q1"] <= q["median"] <= q["q3"] <= q["max"]
        assert 0 <= q["positive"] <= q["n"]


def test_there_is_a_claim_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claim_record_schema(path):
    rec = json.loads(path.read_text())
    assert len(rec["commit"]) == 40 and len(rec["configs_sha256"]) == 64
    assert rec["gradcheck"]["pass"]
    _check_gains(rec)
    _check_summary(rec["summary"])
    for summary in rec["summary_by_seed"].values():
        _check_summary(summary)
    assert set(rec["rejected"]) == {"plain", "corrected", "reference"}
    assert sum(rec["rejected"].values()) == len(rec["rejected_runs"])


def test_the_study_script_runs_on_72_cells_for_one_epoch(tmp_path):
    """The whole protocol on n=6 for one epoch: it runs, and its record has
    a finite gain at every recorded step before a run's rejection.  It
    checks that the pipeline runs, not what it measures."""
    cfg = yaml.safe_load((STUDY / "config.yaml").read_text())
    cfg["mesh"]["n"] = 6
    cfg["train"]["epochs"] = 1
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(cfg))
    done = subprocess.run([sys.executable, str(STUDY / "run.py"), str(tmp_path / "out"),
                           str(tmp_path / "claim.json"), "--config", str(tmp_path / "config.yaml")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    rec = json.loads((tmp_path / "claim.json").read_text())
    assert rec["config"] == cfg
    _check_gains(rec)
    _check_summary(rec["summary"])
