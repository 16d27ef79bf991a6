"""Shared fixtures for the benchmark suite.

Tree builds are the expensive part (R*-tree insertion: 0.2-0.25 ms per
rectangle with NumPy at this scale, 1.4-2.2 ms without), so datasets and
trees are built once per session and shared across benches.
Each bench prints the table/series it reproduces through ``emit`` so that
``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records the
reproduced figures alongside pytest-benchmark's timing tables.
"""

from __future__ import annotations

import pytest

from repro.datasets import uniform_rectangles
from repro.experiments import BENCH_SCALE, TreeCache


@pytest.fixture(scope="session")
def tree_cache():
    """One shared tree cache for the whole bench session."""
    return TreeCache()


@pytest.fixture(scope="session")
def scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def uniform_grid_1d(scale):
    """The Figure-5a data grids: per cardinality, one data set for each
    join role (a grid combo joins two *distinct* random data sets, as in
    the paper — never a self-join)."""
    return {
        "R1": {n: uniform_rectangles(n, scale.density, 1, seed=100 + n)
               for n in scale.cardinalities},
        "R2": {n: uniform_rectangles(n, scale.density, 1, seed=150 + n)
               for n in scale.cardinalities},
    }


@pytest.fixture(scope="session")
def uniform_grid_2d(scale):
    """The Figure-5b data grids (two role-distinct sets per size)."""
    return {
        "R1": {n: uniform_rectangles(n, scale.density, 2, seed=200 + n)
               for n in scale.cardinalities},
        "R2": {n: uniform_rectangles(n, scale.density, 2, seed=250 + n)
               for n in scale.cardinalities},
    }


@pytest.fixture
def emit(capsys):
    """Print to the real stdout (past pytest's capture)."""
    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _emit
