"""The committed benchmark trajectory.

Each `BENCH_*.json` at the root of the repository is a copy of a
`perfbench/results/<workload>.trace0.json` file: one run of one workload
of `BENCHMARK.json`, with the commit it measured, so a speed claim can
cite runs of both sides that anyone can read back.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_committed_bench_files_name_a_workload_and_a_commit():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["workload"] in workloads, path.name
        commit = data["metadata"]["commit"]
        assert isinstance(commit, str) and commit, path.name
