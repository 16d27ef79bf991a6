"""Smoke runs of every workload, and that exact counters repeat."""

import json
import subprocess
import sys
import time

import pytest

from bench.runner import ROOT, SPEC
from bench.suite import WORKLOADS, run_once

#: Per-layer metrics that are counts of the program's work: they must
#: repeat exactly for a seed and change with it.
EXACT = ["rtree.nodes", "join.pairs", "join.na", "join.da",
         "join.comparisons", "join.batch.frontier_pairs",
         "model.err_na_pct", "model.err_da_pct"]


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all("bound" not in m for m in SPEC["per_layer"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size < 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    result = run_once(workload, seed=3, seconds=2, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    json.dumps(result)


def test_exact_counters_repeat_for_a_seed_and_change_with_it():
    def exact(seed):
        result = run_once("paper-point", seed, seconds=2, trace=1)
        assert result["correct"]
        assert list(result["metrics"]) == [m["name"]
                                           for m in SPEC["per_layer"]]
        spans = ROOT / "bench" / "out" / f"spans-paper-point-{seed}.jsonl"
        assert spans.stat().st_size > 0
        metrics = result["metrics"]
        assert metrics["join.batch.levels"]["value"] > 0
        assert metrics["bench.span_coverage_frac"]["value"] >= 0.9
        assert (metrics["rtree.insert_ms"]["value"]
                >= 0.9 * metrics["op.raw_ms"]["value"])
        return [metrics[name]["value"] for name in EXACT]
    first = exact(21)
    assert exact(21) == first
    assert exact(22) != first


#: Makes itself a sub-reaper the way ``python3 -m bench`` does, orphans a
#: grandchild, and reaps with no grace.
ORPHAN = """
import ctypes, subprocess, sys
from bench.__main__ import _descendants, _reap
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
subprocess.run(["sh", "-c", "sleep 60 & sleep 60 &"], check=True)
assert len(_descendants()) == 2, _descendants()
_reap(0.0)
sys.exit(len(_descendants()))
"""


def test_no_process_outlives_a_run():
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", ORPHAN], cwd=ROOT, check=True)
    assert time.monotonic() - start < 30
