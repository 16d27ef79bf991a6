"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest

from repro.estimator import have_numpy
from repro.exec import ExecutionConfig
from repro.geometry import Rect
from repro.rtree import GuttmanRTree, RStarTree

#: One config per pair enumeration, for the tests that compare the stack
#: machine's kernels (``NESTED_LOOP`` is the paper's Fig. 2, the oracle).
NESTED_LOOP = ExecutionConfig(traversal="stack",
                              pair_enumeration="nested-loop")
PLANE_SWEEP = NESTED_LOOP.with_options(pair_enumeration="plane-sweep")
VECTORIZED = NESTED_LOOP.with_options(pair_enumeration="vectorized")
VECTORIZED_SWEEP = NESTED_LOOP.with_options(
    pair_enumeration="vectorized-sweep")


#: For tests of the arena and the kernels that read it: there is none
#: without NumPy (not installed, or ``REPRO_PURE_PYTHON`` set).
needs_numpy = pytest.mark.skipif(not have_numpy(),
                                 reason="no arena without NumPy")


@contextmanager
def backend(pure_python: bool):
    """Force the scalar engine (or allow the NumPy one) for a block.

    The switch is read per call, so plain env manipulation is enough
    and plays well with ``@given``; the previous value is restored, so
    the ``REPRO_PURE_PYTHON=1`` leg stays on its leg afterwards.
    """
    previous = os.environ.get("REPRO_PURE_PYTHON")
    if pure_python:
        os.environ["REPRO_PURE_PYTHON"] = "1"
    else:
        os.environ.pop("REPRO_PURE_PYTHON", None)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_PURE_PYTHON", None)
        else:
            os.environ["REPRO_PURE_PYTHON"] = previous


#: ``backend(pure_python=...)`` arguments for a test that runs under both.
BOTH_BACKENDS = [pytest.param(True, id="scalar"),
                 pytest.param(False, id="numpy", marks=needs_numpy)]


def arena_segments() -> list[str]:
    """Shared-memory arena segments currently present in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):    # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm")
            if f.startswith("repro_arena_")]


def make_items(n: int, ndim: int = 2, seed: int = 0,
               side: float = 0.02) -> list[tuple[Rect, int]]:
    """Random square rectangles fully inside the unit workspace."""
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        lo = [rng.uniform(0.0, 1.0 - side) for _ in range(ndim)]
        items.append((Rect(lo, [a + side for a in lo]), oid))
    return items


def build_rstar(items, ndim: int = 2, max_entries: int = 8) -> RStarTree:
    tree = RStarTree(ndim, max_entries)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def build_guttman(items, ndim: int = 2, max_entries: int = 8,
                  split: str = "quadratic") -> GuttmanRTree:
    tree = GuttmanRTree(ndim, max_entries, split=split)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


@pytest.fixture
def items_200():
    return make_items(200, ndim=2, seed=7)


@pytest.fixture
def rstar_200(items_200):
    return build_rstar(items_200)
