"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Tracing must not touch certificate bytes, and the deterministic counters
a later change may cite must repeat exactly from one traced run to the
next.  The p~300 workload is left out: one traced pass takes over ten
seconds and its layers are the same ones the flagship exercises.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["verify_flagship", "search_pool"])
def test_traced_counters_repeat_and_bytes_match(name, tmp_path):
    w = run.WORKLOADS[name]
    rng = random.Random(0)
    plain = run.run_pass(w, 1, False, tmp_path, rng, 0)
    traced = [run.run_pass(w, threads, True, tmp_path, rng, i) for i, threads in ((1, 1), (2, 1), (3, 2))]
    for p in [plain, *traced]:
        assert p.problems == []
        assert p.stdout == plain.stdout
    layers = [run.layer_metrics(p, w) for p in traced]
    for m in layers[1:]:
        assert {k: m[k] for k in run.DETERMINISTIC} == {k: layers[0][k] for k in run.DETERMINISTIC}
    assert layers[0]["linking_form.points"] > 0
    assert layers[0]["kernels.pairs_evaluated"] > 0
    assert set(layers[0]) | {"setup.import_s", "setup.numpy_import_s", "trace.overhead_frac"} == set(run.UNITS)


def test_covered_merges_overlaps_and_clips():
    assert run.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert run.covered([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert run.covered([], 0, 1) == 0


def test_fails_without_the_program(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    argv = json.loads((root / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        [sys.executable, *argv[1:], "--workload", "verify_flagship", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
