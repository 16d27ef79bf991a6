"""The resume invariant: interrupted + resumed == uninterrupted, bit for bit.

The acceptance property of the execution governor.  For any cut point —
any NA budget at which a partial-mode join stops — resuming from the
checkpoint must reproduce the uninterrupted run exactly: the same sorted
pair set, the same per-(tree, level) NA and DA counters, the same
comparison count.  Checked over 20+ random cut points, under injected
transient faults, across enumeration/predicate/buffer variants, and
through chains of repeated interruptions.
"""

import dataclasses
import random

import pytest

from repro.exec import Budget, CheckpointMismatch, ExecutionGovernor
from repro.join import OVERLAP, PartialJoinResult, SpatialJoin, WithinDistance
from repro.reliability import FaultInjector, FaultyPager, RetryPolicy
from repro.serve import JoinService, encode_resume_token
from repro.serve.http import _error_status
from repro.storage import LRUBuffer, PathBuffer

from .conftest import PLANE_SWEEP, build_rstar, make_items, signature

RETRY_POLICY = RetryPolicy(max_attempts=12)


def _join(t1, t2, *, buffer_factory=PathBuffer, governor=None, **kw):
    return SpatialJoin(t1, t2, buffer_factory(), governor=governor, **kw)


def _run_with_cut(t1, t2, cut, *, collect_pairs=True,
                  buffer_factory=PathBuffer, **kw):
    """Run to an NA budget of ``cut``, then resume to completion:
    ``(final, first)``, ``first`` the interrupted leg (``None`` when
    the cut landed past the total work)."""
    gov = ExecutionGovernor(Budget(max_na=cut), partial=True)
    first = _join(t1, t2, buffer_factory=buffer_factory,
                  governor=gov, **kw).run(collect_pairs=collect_pairs)
    if first.complete:
        return first, None
    assert isinstance(first, PartialJoinResult)
    # One drain step fetches at most one node *pair*, so the cut can
    # overshoot the NA budget by at most one read.
    assert cut <= first.na_total <= cut + 1
    final = _join(t1, t2, buffer_factory=buffer_factory,
                  **kw).resume(first.checkpoint)
    assert final.complete
    return final, first


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(400, seed=31), max_entries=8)
    t2 = build_rstar(make_items(350, seed=32), max_entries=8)
    return t1, t2


class TestResumeInvariant:
    def test_twenty_plus_random_cut_points(self, trees):
        t1, t2 = trees
        baseline = signature(_join(t1, t2).run())
        total_na = sum(baseline["stats"]["node_accesses"].values())
        assert total_na > 25
        rng = random.Random(20260806)
        cuts = {rng.randrange(1, total_na) for _ in range(40)}
        cuts |= {1, 2, total_na - 1}     # edges: first read, last read
        assert len(cuts) >= 20
        interrupted = 0
        for cut in sorted(cuts):
            final, first = _run_with_cut(t1, t2, cut)
            interrupted += first is not None
            assert signature(final) == baseline, f"cut at NA={cut}"
        assert interrupted >= 20

    def test_under_injected_faults(self, trees):
        # >= 5% transient fault rate on every page read, on both legs
        # (before and after the cut).  Retries are absorbed by the
        # retry policy and must not disturb the NA/DA accounting, and
        # the faults do not change the engine: level-batch takes the
        # cut, the stack machine resumes it.
        t1, t2 = trees
        baseline = signature(_join(t1, t2).run())
        total_na = sum(baseline["stats"]["node_accesses"].values())
        injector = FaultInjector(seed=77, transient_rate=0.08)
        t1.pager = FaultyPager(t1.pager, injector)
        t2.pager = FaultyPager(t2.pager, injector)
        try:
            rng = random.Random(42)
            for cut in sorted(rng.randrange(1, total_na)
                              for _ in range(8)):
                final, first = _run_with_cut(t1, t2, cut,
                                             retry_policy=RETRY_POLICY)
                # Retries are recorded beside NA/DA, not in them.
                got = signature(final)
                got["stats"] = dict(got["stats"], retries={},
                                    accounted_backoff=0.0)
                assert got == baseline, f"cut at NA={cut}"
                assert (first.engine, first.fallback) == ("level-batch",
                                                          None)
                assert (final.engine, final.fallback) == ("stack",
                                                          "resume")
            assert injector.counts.transients > 0
        finally:
            t1.pager = t1.pager.inner
            t2.pager = t2.pager.inner

    def test_multi_cut_chain(self, trees):
        # Interrupt, resume, interrupt the resumed run, resume again...
        # until done.  Each leg gets a fresh small NA allowance.
        t1, t2 = trees
        baseline = signature(_join(t1, t2).run())
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
        assert signature(result) == baseline

    def test_da_budget_cuts(self, trees):
        # The invariant holds when the cut lands on a disk-access
        # budget rather than a node-access budget.
        t1, t2 = trees
        baseline = signature(_join(t1, t2).run())
        total_da = sum(baseline["stats"]["disk_accesses"].values())
        for cut in (1, total_da // 3, 2 * total_da // 3):
            if cut < 1:
                continue
            gov = ExecutionGovernor(Budget(max_da=cut), partial=True)
            first = _join(t1, t2, governor=gov).run()
            assert not first.complete
            final = _join(t1, t2).resume(first.checkpoint)
            assert signature(final) == baseline, f"cut at DA={cut}"


class TestResumeVariants:
    def _invariant_at_cuts(self, t1, t2, cuts, **kw):
        baseline = signature(_join(t1, t2, **kw).run())
        for cut in cuts:
            final, first = _run_with_cut(t1, t2, cut, **kw)
            assert first is not None
            assert signature(final) == baseline, f"cut at NA={cut}"

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
        baseline = signature(_join(t1, t2).run(collect_pairs=False))
        assert baseline["pairs"] == []   # nothing collected
        assert baseline["pair_count"] > 0
        for cut in (5, 17, 41):
            final, first = _run_with_cut(t1, t2, cut,
                                         collect_pairs=False)
            assert first is not None
            assert signature(final) == baseline

    def test_mixed_height_trees(self):
        # The shorter tree's leaf re-fetch regime must also survive the
        # cut: charged re-reads happen on resume exactly as they would
        # have in one run.
        big = build_rstar(make_items(900, seed=35), max_entries=8)
        small = build_rstar(make_items(40, seed=36), max_entries=8)
        assert big.height > small.height
        baseline = signature(_join(big, small).run())
        total_na = sum(baseline["stats"]["node_accesses"].values())
        rng = random.Random(7)
        for cut in sorted(rng.randrange(1, total_na) for _ in range(6)):
            final, _ = _run_with_cut(big, small, cut)
            assert signature(final) == baseline, f"cut at NA={cut}"

    def test_overlap_is_default_predicate(self, trees):
        t1, t2 = trees
        a = _join(t1, t2).run()
        b = _join(t1, t2, predicate=OVERLAP).run()
        assert sorted(a.pairs) == sorted(b.pairs)


def _first_id_as(kind):
    return lambda pairs: [[kind(pairs[0][0]), pairs[0][1]], *pairs[1:]]


class TestResumeRefusesEditedPairs:
    """A partial's ``pairs`` are the cut's own or the resume is refused:
    ``pair_count`` ``[oid1, oid2]`` lists of non-bool ``int``, or
    ``None`` when no pairs were collected.  Each edit leaves an
    otherwise valid checkpoint, as a crafted resume token would (its
    CRC is recomputed over the edited document, not keyed)."""

    EDITS = {
        "one-pair-dropped": lambda pairs: pairs[:-1],
        "triples": lambda pairs: [[a, b, 7] for a, b in pairs],
        "string-id": _first_id_as(str),
        "bool-id": lambda pairs: [[True, pairs[0][1]], *pairs[1:]],
        "tuples": lambda pairs: [tuple(p) for p in pairs],
        "missing": lambda pairs: None,
    }

    @pytest.fixture(scope="class")
    def partial(self, trees):
        gov = ExecutionGovernor(Budget(max_na=60), partial=True)
        first = _join(*trees, governor=gov).run()
        assert not first.complete and first.checkpoint.pairs
        return first.checkpoint

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edited_pairs_are_refused(self, trees, partial, edit):
        edited = dataclasses.replace(
            partial, pairs=self.EDITS[edit](partial.pairs))
        with pytest.raises(CheckpointMismatch, match="pairs"):
            _join(*trees).resume(edited)

    def test_pairs_without_collect_pairs_are_refused(self, trees, partial):
        edited = dataclasses.replace(partial, collect_pairs=False)
        with pytest.raises(CheckpointMismatch, match="pairs"):
            _join(*trees).resume(edited)

    def test_the_checkpoint_as_cut_still_resumes(self, trees, partial):
        final = _join(*trees).resume(partial)
        assert signature(final) == signature(_join(*trees).run())

    def test_the_daemon_answers_400(self, trees, partial):
        service = JoinService()
        service.register_tree("a", trees[0])
        service.register_tree("b", trees[1])
        token = encode_resume_token(dataclasses.replace(
            partial, pairs=partial.pairs[:-1]))
        with pytest.raises(CheckpointMismatch) as refused:
            service.execute({"tree1": "a", "tree2": "b",
                             "collect_pairs": True, "resume_token": token})
        assert _error_status(refused.value)[0] == 400
