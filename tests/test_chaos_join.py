"""Chaos suite: the measured SJ join under injected storage faults.

The acceptance bar for the reliability layer: with deterministic fault
injection on every page read, the join must return the *bit-identical*
result set and the *exact* NA/DA counters of a fault-free run, with the
retry overhead bounded and separately accounted.  Deselect with
``-m "not chaos"``.
"""

import pytest

from repro.exec import ExecutionConfig
from repro.join import spatial_join
from repro.reliability import (FaultInjector, FaultyPager,
                               RetryExhaustedError, RetryPolicy)
from repro.storage import NoBuffer, PathBuffer

from .conftest import build_rstar, make_items

pytestmark = pytest.mark.chaos

TRANSIENT_RATE = 0.08    # >= 5% per the acceptance criteria
RETRY_POLICY = RetryPolicy(max_attempts=12)


@pytest.fixture
def tree_pair():
    t1 = build_rstar(make_items(300, seed=21), max_entries=8)
    t2 = build_rstar(make_items(250, seed=22), max_entries=8)
    return t1, t2


def inject(tree, injector):
    tree.pager = FaultyPager(tree.pager, injector)


class TestChaosJoin:
    def test_results_identical_under_transient_faults(self, tree_pair):
        t1, t2 = tree_pair
        baseline = spatial_join(t1, t2, buffer=PathBuffer())

        injector = FaultInjector(seed=99, transient_rate=TRANSIENT_RATE,
                                 latency_rate=0.05)
        inject(t1, injector)
        inject(t2, injector)
        # The default config and an explicit level-batch: neither may
        # probe for an arena through the faulty pagers — a probe eats
        # injector draws that no retry accounts for.
        for config in (None, ExecutionConfig(traversal="level-batch")):
            before = injector.counts.transients
            chaotic = spatial_join(t1, t2, buffer=PathBuffer(),
                                   retry_policy=RETRY_POLICY,
                                   config=config)
            injected = injector.counts.transients - before

            assert (chaotic.engine, chaotic.fallback) == (
                "stack", "no-arena")
            # Bit-identical result set.
            assert sorted(chaotic.pairs) == sorted(baseline.pairs)
            # NA/DA counts excluding retries match exactly, per
            # tree+level.
            assert dict(chaotic.stats.node_accesses) == \
                dict(baseline.stats.node_accesses)
            assert dict(chaotic.stats.disk_accesses) == \
                dict(baseline.stats.disk_accesses)
            # Faults actually happened and were absorbed as recorded
            # retries.
            assert injected > 0
            assert chaotic.stats.retry_count() == injected
            assert baseline.stats.retry_count() == 0
            # Bounded overhead: at ~8% per-read failure the expected
            # retry ratio is ~0.09; 0.25 leaves deterministic-seed
            # headroom.
            reads = chaotic.na_total
            assert chaotic.stats.retry_count() <= 0.25 * reads
            # Latency and backoff are accounted, never slept.
            assert injector.counts.accounted_latency > 0.0
            assert chaotic.stats.accounted_backoff > 0.0

    def test_na_regime_also_exact(self, tree_pair):
        t1, t2 = tree_pair
        baseline = spatial_join(t1, t2, buffer=NoBuffer(),
                                collect_pairs=False)
        injector = FaultInjector(seed=7, transient_rate=TRANSIENT_RATE)
        inject(t1, injector)
        inject(t2, injector)
        chaotic = spatial_join(t1, t2, buffer=NoBuffer(),
                               collect_pairs=False,
                               retry_policy=RETRY_POLICY)
        assert chaotic.pair_count == baseline.pair_count
        assert (chaotic.na_total, chaotic.da_total) == \
            (baseline.na_total, baseline.da_total)
        assert chaotic.stats.retry_count() > 0

    def test_deterministic_replay(self, tree_pair):
        t1, t2 = tree_pair
        injector = FaultInjector(seed=1234,
                                 transient_rate=TRANSIENT_RATE)
        inject(t1, injector)
        inject(t2, injector)
        first = spatial_join(t1, t2, buffer=PathBuffer(),
                             retry_policy=RETRY_POLICY)
        retries_first = first.stats.retry_count()
        injector.reset()
        second = spatial_join(t1, t2, buffer=PathBuffer(),
                              retry_policy=RETRY_POLICY)
        assert sorted(first.pairs) == sorted(second.pairs)
        assert second.stats.retry_count() == retries_first

    def test_exhaustion_surfaces_as_transient_error(self, tree_pair):
        t1, t2 = tree_pair
        injector = FaultInjector(seed=5, transient_rate=1.0)
        inject(t1, injector)
        inject(t2, injector)
        with pytest.raises(RetryExhaustedError):
            spatial_join(t1, t2,
                         retry_policy=RetryPolicy(max_attempts=3))

    def test_without_policy_faults_propagate(self, tree_pair):
        t1, t2 = tree_pair
        injector = FaultInjector(seed=5, transient_rate=1.0)
        inject(t1, injector)
        inject(t2, injector)
        from repro.reliability import TransientPageError
        with pytest.raises(TransientPageError):
            spatial_join(t1, t2)
