"""Schema check of the committed benchmark records, ``BENCH_*.json`` at the
root of the repository, against the workloads and end-to-end metrics that
``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    rec = json.loads(path.read_text())
    for key in ("parent_commit", "change_commit", "env"):
        assert rec.get(key), f"{path.name}: no {key}"
    for name in WORKLOADS:
        wl = rec["workloads"][name]
        assert wl["seeds"], f"{path.name} {name}: no seeds"
        for side in ("parent", "change"):
            assert isinstance(wl["failed_ops"][side], int), (path.name, name, side)
        for metric in METRICS:
            for side in ("parent", "change"):
                q = wl["metrics"][metric][side]
                assert q["q1"] <= q["median"] <= q["q3"], (path.name, name, metric, side)
    claim = rec["claim"]
    assert claim["metric"] in METRICS, f"{path.name}: unknown claim metric"
    assert claim["workload"] in WORKLOADS, f"{path.name}: unknown claim workload"
