"""The committed benchmark records: every ``BENCH_*.json`` at the repo root.

Each records paired ``perfbench/run.py`` runs: the commit measured and its
parent, the Python and numpy versions, the command, each run's last result
line and slowness, and a summary of every end-to-end metric.  A file may
also hold one ``--trace 1`` run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
END_TO_END = {f"{w}.{m['name']}" for w in WORKLOADS for m in BENCHMARK["end_to_end"]}
SIDES = {"parent", "change"}


def known_metric(name):
    workload, _, metric = name.partition(".")
    return workload in WORKLOADS and metric in METRICS


def check_result(result):
    """The last line of a run: correct, nothing failed, known metrics."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert all(map(known_metric, result["metrics"]))


def test_some_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file(path):
    doc = json.loads(path.read_text())
    assert {"sha", "parent", "python", "numpy", "command", "runs", "summary"} <= set(doc)
    assert doc["runs"]
    for run in doc["runs"]:
        assert {"side", "pair", "slowness", "result"} <= set(run)
        assert run["side"] in SIDES and set(run["slowness"]) == WORKLOADS
        check_result(run["result"])
    if "trace" in doc:
        check_result(doc["trace"]["result"])
    assert set(doc["summary"]) == END_TO_END
    for sides in doc["summary"].values():
        for side in SIDES:
            assert {"median", "q1", "q3"} <= set(sides[side])
        assert 0 <= sides["wins"] <= sides["pairs"]
