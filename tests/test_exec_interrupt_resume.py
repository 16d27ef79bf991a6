"""The resume invariant: interrupted + resumed == uninterrupted, bit for bit.

The acceptance property of the execution governor.  For any cut point —
any NA budget at which a partial-mode join stops — resuming from the
checkpoint must reproduce the uninterrupted run exactly: the same sorted
pair set, the same per-(tree, level) NA and DA counters, the same
comparison count.  Checked over 20+ random cut points, under injected
transient faults, across enumeration/predicate/buffer variants, and
through chains of repeated interruptions.
"""

import random

import pytest

from repro.exec import Budget, ExecutionGovernor
from repro.join import OVERLAP, PartialJoinResult, SpatialJoin, WithinDistance
from repro.reliability import FaultInjector, FaultyPager, RetryPolicy
from repro.storage import LRUBuffer, PathBuffer

from .conftest import PLANE_SWEEP, build_rstar, make_items

RETRY_POLICY = RetryPolicy(max_attempts=12)


def _signature(result):
    """Everything that must be bit-identical after a resume."""
    return {
        "pairs": sorted(result.pairs) if result.pairs is not None else None,
        "pair_count": result.pair_count,
        "comparisons": result.comparisons,
        "na": dict(result.stats.node_accesses),
        "da": dict(result.stats.disk_accesses),
    }


def _join(t1, t2, *, buffer_factory=PathBuffer, governor=None, **kw):
    return SpatialJoin(t1, t2, buffer_factory(), governor=governor, **kw)


def _run_with_cut(t1, t2, cut, *, collect_pairs=True,
                  buffer_factory=PathBuffer, **kw):
    """Run to an NA budget of ``cut``, then resume to completion."""
    gov = ExecutionGovernor(Budget(max_na=cut), partial=True)
    first = _join(t1, t2, buffer_factory=buffer_factory,
                  governor=gov, **kw).run(collect_pairs=collect_pairs)
    if first.complete:
        return first, False              # cut landed past the total work
    assert isinstance(first, PartialJoinResult)
    # One drain step fetches at most one node *pair*, so the cut can
    # overshoot the NA budget by at most one read.
    assert cut <= first.na_total <= cut + 1
    final = _join(t1, t2, buffer_factory=buffer_factory,
                  **kw).resume(first.checkpoint)
    assert final.complete
    return final, True


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(400, seed=31), max_entries=8)
    t2 = build_rstar(make_items(350, seed=32), max_entries=8)
    return t1, t2


class TestResumeInvariant:
    def test_twenty_plus_random_cut_points(self, trees):
        t1, t2 = trees
        baseline = _signature(_join(t1, t2).run())
        total_na = sum(baseline["na"].values())
        assert total_na > 25
        rng = random.Random(20260806)
        cuts = {rng.randrange(1, total_na) for _ in range(40)}
        cuts |= {1, 2, total_na - 1}     # edges: first read, last read
        assert len(cuts) >= 20
        interrupted = 0
        for cut in sorted(cuts):
            final, was_cut = _run_with_cut(t1, t2, cut)
            interrupted += was_cut
            assert _signature(final) == baseline, f"cut at NA={cut}"
        assert interrupted >= 20

    def test_under_injected_faults(self, trees):
        # >= 5% transient fault rate on every page read, on both legs
        # (before and after the cut).  Retries are absorbed by the
        # retry policy and must not disturb the NA/DA accounting.
        t1, t2 = trees
        baseline = _signature(_join(t1, t2).run())
        total_na = sum(baseline["na"].values())
        injector = FaultInjector(seed=77, transient_rate=0.08)
        t1.pager = FaultyPager(t1.pager, injector)
        t2.pager = FaultyPager(t2.pager, injector)
        try:
            rng = random.Random(42)
            for cut in sorted(rng.randrange(1, total_na)
                              for _ in range(8)):
                final, _ = _run_with_cut(t1, t2, cut,
                                         retry_policy=RETRY_POLICY)
                assert _signature(final) == baseline, f"cut at NA={cut}"
            assert injector.counts.transients > 0
        finally:
            t1.pager = t1.pager.inner
            t2.pager = t2.pager.inner

    def test_multi_cut_chain(self, trees):
        # Interrupt, resume, interrupt the resumed run, resume again...
        # until done.  Each leg gets a fresh small NA allowance.
        t1, t2 = trees
        baseline = _signature(_join(t1, t2).run())
        step = 7
        gov = ExecutionGovernor(Budget(max_na=step), partial=True)
        result = _join(t1, t2, governor=gov).run()
        legs = 1
        while not result.complete:
            assert legs * step <= result.na_total <= legs * step + 1
            gov = ExecutionGovernor(Budget(max_na=(legs + 1) * step),
                                    partial=True)
            result = _join(t1, t2, governor=gov).resume(result.checkpoint)
            legs += 1
            assert legs < 1000
        assert legs > 3                  # genuinely chained
        assert _signature(result) == baseline

    def test_da_budget_cuts(self, trees):
        # The invariant holds when the cut lands on a disk-access
        # budget rather than a node-access budget.
        t1, t2 = trees
        baseline = _signature(_join(t1, t2).run())
        total_da = sum(baseline["da"].values())
        for cut in (1, total_da // 3, 2 * total_da // 3):
            if cut < 1:
                continue
            gov = ExecutionGovernor(Budget(max_da=cut), partial=True)
            first = _join(t1, t2, governor=gov).run()
            assert not first.complete
            final = _join(t1, t2).resume(first.checkpoint)
            assert _signature(final) == baseline, f"cut at DA={cut}"


class TestResumeVariants:
    def _invariant_at_cuts(self, t1, t2, cuts, **kw):
        baseline = _signature(_join(t1, t2, **kw).run())
        for cut in cuts:
            final, was_cut = _run_with_cut(t1, t2, cut, **kw)
            assert was_cut
            assert _signature(final) == baseline, f"cut at NA={cut}"

    def test_plane_sweep_enumeration(self, trees):
        t1, t2 = trees
        self._invariant_at_cuts(t1, t2, (5, 17, 41), config=PLANE_SWEEP)

    def test_within_distance_predicate(self, trees):
        t1, t2 = trees
        self._invariant_at_cuts(t1, t2, (5, 17, 41),
                                predicate=WithinDistance(0.03))

    def test_lru_buffer(self, trees):
        t1, t2 = trees
        self._invariant_at_cuts(
            t1, t2, (5, 17, 41),
            buffer_factory=lambda: LRUBuffer(16))

    def test_collect_pairs_false(self, trees):
        t1, t2 = trees
        baseline = _signature(_join(t1, t2).run(collect_pairs=False))
        assert baseline["pairs"] == []   # nothing collected
        assert baseline["pair_count"] > 0
        for cut in (5, 17, 41):
            final, was_cut = _run_with_cut(t1, t2, cut,
                                           collect_pairs=False)
            assert was_cut
            assert _signature(final) == baseline

    def test_mixed_height_trees(self):
        # The shorter tree's leaf re-fetch regime must also survive the
        # cut: charged re-reads happen on resume exactly as they would
        # have in one run.
        big = build_rstar(make_items(900, seed=35), max_entries=8)
        small = build_rstar(make_items(40, seed=36), max_entries=8)
        assert big.height > small.height
        baseline = _signature(_join(big, small).run())
        total_na = sum(baseline["na"].values())
        rng = random.Random(7)
        for cut in sorted(rng.randrange(1, total_na) for _ in range(6)):
            final, _ = _run_with_cut(big, small, cut)
            assert _signature(final) == baseline, f"cut at NA={cut}"

    def test_overlap_is_default_predicate(self, trees):
        t1, t2 = trees
        a = _join(t1, t2).run()
        b = _join(t1, t2, predicate=OVERLAP).run()
        assert sorted(a.pairs) == sorted(b.pairs)
