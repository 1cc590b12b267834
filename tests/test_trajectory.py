"""The committed benchmark trajectory files (BENCH_*.json at the repository root)
are well-formed: each names its commits and environment, and each run names a
workload and metrics that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_trajectory():
    assert TRAJECTORY


@pytest.mark.parametrize("path", TRAJECTORY, ids=lambda p: p.name)
def test_trajectory_file_is_well_formed(path):
    doc = json.loads(path.read_text())
    assert {"what", "parent", "change", "environment", "runs"} <= set(doc)
    assert doc["runs"]
    for i, run in enumerate(doc["runs"]):
        where = f"{path.name} run {i}"
        assert run["workload"] in WORKLOADS, where
        assert run["side"] in ("parent", "change"), where
        assert run["metrics"], where
        for group in ("metrics", "unscaled"):
            unknown = set(run.get(group, {})) - METRICS
            assert not unknown, f"{where}: {group} {sorted(unknown)} not in BENCHMARK.json"
