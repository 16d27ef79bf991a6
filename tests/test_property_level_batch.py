"""Level-batch ≡ the stack machine, on named inputs.

The property over random inputs is ``test_conformance.py``'s; these run
its contracts (``conftest.assert_*``) on fixed trees of random squares,
with equal and skewed capacities: the pair list in emission order,
NA/DA and comparisons under every buffer, governed checkpoint bytes and
sampled events on every budget axis, resumption, and a cancellation at
every poll.
"""

import pytest

from repro.exec import ExecutionConfig
from repro.join import WithinDistance
from repro.join.batch import BATCH_PAIR_ENUMERATIONS
from repro.join.predicates import Overlap

from .conftest import (BUFFERS, assert_cancellations_conform,
                       assert_conforms, assert_governed_conforms,
                       build_rstar, make_items)

# The planner pads its tiles with NaN: NaN or overflow arithmetic in its
# kernels must fail here, not pass as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LEVEL_BATCH = [ExecutionConfig(pair_enumeration=e)
               for e in BATCH_PAIR_ENUMERATIONS]


def _trees(capacities=(6, 6), sizes=(120, 90)):
    return tuple(build_rstar(make_items(n, seed=seed, side=0.06),
                             max_entries=m)
                 for n, seed, m in zip(sizes, (41, 42), capacities))


def test_batch_join_bit_identical():
    for predicate in (Overlap(), WithinDistance(0.03)):
        assert_conforms(_trees(), LEVEL_BATCH, predicate)


def test_batch_join_unequal_heights():
    """Skewed capacities skew the heights, so the r1leaf / r2leaf mixed
    frontiers run, under both predicates: a within-distance mixed level
    also needs the exact confirm of the leaf MBR's candidates."""
    t1, t2 = _trees((8, 3))
    assert t1.height != t2.height
    for trees in ((t1, t2), (t2, t1)):
        for predicate in (Overlap(), WithinDistance(0.03)):
            assert_conforms(trees, LEVEL_BATCH, predicate)


def test_batch_join_any_buffer_manager():
    for buffer in BUFFERS.values():
        assert_conforms(_trees(), LEVEL_BATCH, buffer=buffer)


def test_governed_checkpoint_bytes_identical():
    trees = _trees((3, 8))
    for enum in BATCH_PAIR_ENUMERATIONS:
        for axis in ("max_na", "max_da", "max_results"):
            for bucket in (False, True):
                assert_governed_conforms(trees, enum, axis, 0.4,
                                         sample_pairs=3, bucket=bucket)


def test_resume_after_batch_cut():
    trees = _trees()
    for frac in (0.0, 0.3, 0.9):
        assert_governed_conforms(trees, "nested-loop", "max_na", frac)


def test_cancellation_at_any_poll():
    assert_cancellations_conform(_trees((8, 3), (50, 40)), "vectorized")
