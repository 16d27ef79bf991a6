"""Benchmark: the PBSM partition engine against the SJ traversal.

The partition engine's pitch is an I/O profile — one charged scan of
each tree, ``NA == DA`` — at a CPU cost competitive with the
vectorized synchronized traversal.  This bench verifies both halves on
the same trees: the pair sets must be identical and PBSM's NA must not
exceed the traversal's (that inequality is the whole reason the
optimizer ever picks it), and with NumPy the arena engine must not
lose to the vectorized traversal on the wall clock
(:data:`MIN_PBSM_RATIO` — PBSM slower than the traversal means the
arena scatter/probe has regressed toward the per-candidate scalar
loop).  Under ``REPRO_PURE_PYTHON=1`` the scalar
fallback is correctness-only: the numbers are recorded with
``assert_skipped: true`` and the parity assertion is skipped, exactly
as the other entries of ``BENCH_join.json`` handle their NumPy-less
leg.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.estimator import have_numpy
from repro.exec import ExecutionConfig
from repro.geometry import Rect
from repro.join import partition_spatial_join, spatial_join
from repro.rtree import RStarTree

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_join.json"

BENCH_SIZE = 6_000
REPS = 3
#: Required wall-clock ratio sj/pbsm on the NumPy leg: PBSM may not be
#: slower than the vectorized traversal (measured ~2.8x at BENCH_SIZE;
#: the floor leaves CI headroom without letting the arena probe
#: silently regress to the scalar loop (0.26x without NumPy).
MIN_PBSM_RATIO = 1.0


def _update_bench(key: str, payload: dict) -> None:
    """Merge one bench's numbers into the shared JSON document."""
    doc = {}
    if OUTPUT.exists():
        try:
            doc = json.loads(OUTPUT.read_text(encoding="utf-8"))
        except ValueError:
            doc = {}
    doc[key] = payload
    OUTPUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _bench_tree(n: int, seed: int) -> RStarTree:
    rng = random.Random(seed)
    tree = RStarTree(2, 16)
    for oid in range(n):
        lo = (rng.random() * 0.98, rng.random() * 0.98)
        tree.insert(Rect(lo, (lo[0] + 0.02, lo[1] + 0.02)), oid)
    return tree


def test_pbsm_parity_with_traversal(emit):
    t1 = _bench_tree(BENCH_SIZE, seed=45)
    t2 = _bench_tree(BENCH_SIZE, seed=46)
    sj_cfg = ExecutionConfig(pair_enumeration="vectorized")

    # The acceptance bar before any timing: identical pair sets, and
    # the one-scan I/O profile (NA == DA, never above the traversal's).
    sj = spatial_join(t1, t2, config=sj_cfg)
    pbsm = partition_spatial_join(t1, t2)
    assert sorted(pbsm.pairs) == sorted(sj.pairs)
    assert pbsm.na_total == pbsm.da_total
    assert pbsm.na_total <= sj.na_total

    def timed(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(REPS):
            fn()
        return time.perf_counter() - t0

    sj_seconds = timed(lambda: spatial_join(
        t1, t2, collect_pairs=False, config=sj_cfg))
    pbsm_seconds = timed(lambda: partition_spatial_join(
        t1, t2, collect_pairs=False))

    ratio = sj_seconds / pbsm_seconds if pbsm_seconds else 0.0
    backend = "numpy" if have_numpy() else "python"
    _update_bench("pbsm", {
        "tree_size": len(t1),
        "reps": REPS,
        "backend": backend,
        "sj_seconds": sj_seconds,
        "pbsm_seconds": pbsm_seconds,
        "ratio_sj_over_pbsm": ratio,
        "pairs": pbsm.pair_count,
        "pbsm_na": pbsm.na_total,
        "sj_na": sj.na_total,
        "sj_da": sj.da_total,
        "assert_skipped": not have_numpy(),
    })
    emit(f"pbsm join: N={len(t1)} x {len(t2)} x {REPS} reps, "
         f"backend={backend}, sj={sj_seconds:.3f}s, "
         f"pbsm={pbsm_seconds:.3f}s, ratio={ratio:.2f}x, "
         f"NA pbsm={pbsm.na_total} vs sj={sj.na_total} "
         f"-> {OUTPUT.name}")

    if not have_numpy():
        pytest.skip("NumPy unavailable; the scalar tile probe is for "
                    "correctness, not speed (pair-set and NA checks "
                    "above were still enforced)")
    assert ratio >= MIN_PBSM_RATIO, (
        f"PBSM must not be slower than the vectorized "
        f"traversal at N={len(t1)}: got {ratio:.2f}x "
        f"(sj {sj_seconds:.3f}s vs pbsm {pbsm_seconds:.3f}s) — the "
        f"arena tile probe has regressed")
