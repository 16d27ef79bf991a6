"""The vectorized enumerator and the sweeps, on named inputs.

The properties over random inputs, every predicate and every buffer are
``test_conformance.py``'s; these run its contract
(``conftest.assert_conforms``) on fixed trees, and pin the sweep's
emission order as a pure function of the entry sets.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import uniform_rectangles
from repro.exec import ExecutionConfig
from repro.join import OVERLAP, WithinDistance, spatial_join
from repro.join.plane_sweep import sweep_pairs
from repro.rtree import Entry, str_pack

from .conftest import (NESTED_LOOP, PLANE_SWEEP, VECTORIZED,
                       KernelLessOverlap, StrictOverlap, assert_conforms,
                       build_rstar, items, lattice_squares)

#: ``vectorized`` on both traversals.
BOTH = [VECTORIZED, VECTORIZED.with_options(traversal="level-batch")]


def _trees():
    return (build_rstar(lattice_squares(0), max_entries=6),
            build_rstar(lattice_squares(1), max_entries=6))


def test_vectorized_join_bit_identical():
    for predicate in (OVERLAP, StrictOverlap(), KernelLessOverlap()):
        assert_conforms(_trees(), BOTH, predicate)


def test_vectorized_distance_join_bit_identical():
    for distance in (0.0, 0.05, 0.15):
        assert_conforms(_trees(), BOTH, WithinDistance(distance))


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
@given(items(max_size=60), items(max_size=60), st.randoms())
def test_sweep_order_is_permutation_invariant(items1, items2, rng):
    e1 = [Entry(r, i) for r, i in items1]
    e2 = [Entry(r, i) for r, i in items2]
    reference = [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)]
    rng.shuffle(e1)
    rng.shuffle(e2)
    assert [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)] \
        == reference


@pytest.fixture(scope="module")
def str_trees():
    return tuple(str_pack(uniform_rectangles(n, 0.5, 2, seed=seed).items,
                          2, 16) for n, seed in ((2000, 1), (1800, 2)))


@pytest.mark.parametrize("predicate,pairs",
                         [(StrictOverlap(), 1840), (KernelLessOverlap(), 3761)],
                         ids=["strict-overlap", "kernel-less"])
def test_custom_predicates_give_the_fig2_pair_set(str_trees, predicate,
                                                  pairs):
    """Every engine that batches the tests, held to Fig. 2's nested loops
    on a predicate the built-in kernels do not describe exactly (of the
    3 761 overlapping pairs, the strict one keeps 1 840)."""
    assert spatial_join(*str_trees, predicate=predicate,
                        config=NESTED_LOOP).pair_count == pairs
    assert_conforms(str_trees, BOTH + [
        PLANE_SWEEP, ExecutionConfig(strategy="pbsm")], predicate)
