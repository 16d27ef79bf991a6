"""A wrong output is a failed operation, never a number."""

import pytest

from repro import (MetricsRegistry, PathBuffer, OVERLAP, spatial_join,
                   str_pack, uniform_rectangles)

from bench.calib import Kernel
from bench.oracle import (LEVEL_BATCH, PBSM, batch_levels, reference_join,
                          same_join, same_pbsm)
from bench.runner import Timer
from bench.spans import Recorder


@pytest.fixture(scope="module")
def trees():
    return [str_pack(uniform_rectangles(n, 0.5, 2, seed=s).items, 2, 8)
            for n, s in ((400, 1), (350, 2))]


@pytest.fixture(scope="module")
def ref(trees):
    return reference_join(*trees, PathBuffer, OVERLAP)


def test_the_engines_reproduce_the_stack_machine(trees, ref):
    metrics = MetricsRegistry()
    assert same_join(spatial_join(*trees, config=LEVEL_BATCH,
                                  metrics=metrics), ref)
    assert batch_levels(metrics) > 0
    assert batch_levels(MetricsRegistry()) == 0
    assert same_pbsm(spatial_join(*trees, config=PBSM), ref)


def test_a_wrong_pair_list_is_counted_as_a_failed_operation(trees, ref):
    timer = Timer(Kernel(), Recorder(False))
    good = spatial_join(*trees, config=LEVEL_BATCH)
    timer.check(same_join(good, ref), "good")
    assert (timer.attempted, timer.failed) == (1, 0)
    for tamper in (lambda p: p[:-1],                    # a pair missing
                   lambda p: p[1:] + p[:1],             # same set, other order
                   lambda p: p + [(10 ** 6, 10 ** 6)]):  # a pair too many
        bad = spatial_join(*trees, config=LEVEL_BATCH)
        bad.pairs = tamper(bad.pairs)
        timer.check(same_join(bad, ref), "tampered")
    assert (timer.attempted, timer.failed) == (4, 3)
    assert timer.failures == ["tampered"] * 3


def test_wrong_counters_and_duplicates_fail_too(trees, ref):
    miscounted = spatial_join(*trees, config=LEVEL_BATCH)
    miscounted.stats.record("R1", 1, buffer_hit=False)
    assert not same_join(miscounted, ref)
    doubled = spatial_join(*trees, config=PBSM)
    doubled.pairs = doubled.pairs + doubled.pairs[:1]
    assert not same_pbsm(doubled, ref)
    # PBSM must read every non-root page once: the traversal's NA is not it.
    assert not same_pbsm(spatial_join(*trees, config=LEVEL_BATCH), ref)
