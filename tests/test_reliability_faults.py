"""The fault injector and the fault-injecting pager wrapper."""

import pytest

from repro.reliability import (CorruptPageError, FaultInjector, FaultyPager,
                               TransientPageError)
from repro.storage import Pager


def filled_pager(n_pages: int = 20) -> Pager:
    pager = Pager()
    for i in range(n_pages):
        pager.allocate(payload=f"node-{i}")
    return pager


class TestFaultInjector:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="transient_rate"):
            FaultInjector(transient_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_rate"):
            FaultInjector(corrupt_rate=-0.1)
        with pytest.raises(ValueError, match="latency"):
            FaultInjector(latency=-1.0)

    def test_zero_rates_never_fault(self):
        inj = FaultInjector(seed=1)
        for page in range(1000):
            inj.on_read(page)
        assert inj.counts.transients == 0
        assert inj.counts.corruptions == 0
        assert inj.counts.accounted_latency == 0.0

    def test_deterministic_for_equal_seed(self):
        def decisions(seed):
            inj = FaultInjector(seed=seed, transient_rate=0.3)
            out = []
            for page in range(500):
                try:
                    inj.on_read(page)
                    out.append(False)
                except TransientPageError:
                    out.append(True)
            return out

        assert decisions(42) == decisions(42)
        assert decisions(42) != decisions(43)

    def test_reset_replays_identically(self):
        inj = FaultInjector(seed=9, transient_rate=0.5)
        first = []
        for page in range(200):
            try:
                inj.on_read(page)
                first.append(False)
            except TransientPageError:
                first.append(True)
        transients = inj.counts.transients
        inj.reset()
        assert inj.counts.transients == 0
        second = []
        for page in range(200):
            try:
                inj.on_read(page)
                second.append(False)
            except TransientPageError:
                second.append(True)
        assert first == second
        assert inj.counts.transients == transients

    def test_rate_roughly_respected(self):
        inj = FaultInjector(seed=3, transient_rate=0.2)
        for page in range(5000):
            try:
                inj.on_read(page)
            except TransientPageError:
                pass
        assert 0.15 < inj.counts.transients / 5000 < 0.25

    def test_latency_accounted_not_slept(self):
        inj = FaultInjector(seed=5, latency_rate=1.0, latency=0.01)
        for page in range(10):
            inj.on_read(page)
        assert inj.counts.latency_events == 10
        assert inj.counts.accounted_latency == pytest.approx(0.1)


class TestFaultyPager:
    def test_transient_raises_then_recovers(self):
        pager = FaultyPager(filled_pager(),
                            FaultInjector(seed=7, transient_rate=0.5))
        failures = successes = 0
        for _ in range(200):
            try:
                assert pager.read(3) == "node-3"
                successes += 1
            except TransientPageError as exc:
                assert exc.page_id == 3
                failures += 1
        assert failures > 0 and successes > 0

    def test_corruption_raises_corrupt_page_error(self):
        pager = FaultyPager(filled_pager(),
                            FaultInjector(seed=7, corrupt_rate=1.0))
        with pytest.raises(CorruptPageError):
            pager.read(0)

    def test_delegates_everything_else(self):
        inner = filled_pager(2)
        pager = FaultyPager(inner, FaultInjector(seed=1))
        pid = pager.allocate("fresh")
        assert pager.read(pid) == "fresh"
        pager.write(pid, "rewritten")
        assert inner.read(pid) == "rewritten"
        pager.put(99, "explicit")
        assert 99 in pager
        assert len(pager) == len(inner)
        assert pager.page_size == inner.page_size
        pager.free(99)
        assert 99 not in inner

    def test_peek_is_not_a_read_page(self):
        # Catalog and maintenance reads pass through without a draw.
        inj = FaultInjector(seed=2, transient_rate=1.0, corrupt_rate=1.0)
        pager = FaultyPager(filled_pager(), inj)
        assert pager.peek(1) == "node-1"
        assert inj.counts.reads == 0

    def test_counts_reads(self):
        inj = FaultInjector(seed=2)
        pager = FaultyPager(filled_pager(), inj)
        for _ in range(7):
            pager.read(1)
        assert inj.counts.reads == 7
