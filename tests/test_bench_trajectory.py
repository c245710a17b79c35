"""Each committed BENCH_<n>.json records one performance change as
parent/change pairs of `bench/run.py` runs.  A file that misses a
workload or a gated metric, or pairs fewer runs than it names seeds,
cannot show a regression, so every one is checked against the
workloads and end-to-end metrics that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GATED = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _check_pairs(section: dict, seeds: list) -> None:
    assert seeds, "no seeds named"
    for name in WORKLOADS:
        assert name in section, f"workload {name} missing"
        row = section[name]
        assert row["correct"] is True and row["failed"] == 0, name
        for metric in GATED:
            entry = row[metric]
            for side in ("parent", "change"):
                median = entry[side]["median"]
                assert type(median) in (int, float), (name, metric, side)
            assert entry["pairs"] == len(seeds), (name, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_covers_every_gated_metric(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    _check_pairs(doc["end_to_end"], doc["seeds"])
    if "confirm" in doc:
        _check_pairs(doc["confirm"], doc["confirm_seeds"])
