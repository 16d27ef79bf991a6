"""Columnar MBR kernels and the vectorized pair enumerators.

The contract under test is the one ``docs/performance.md`` documents:
``pair_enumeration="vectorized"`` must produce the *identical* pair
list, NA, and DA as the paper's nested loops — the batching is a pure
CPU optimisation, invisible to the I/O model — whatever the predicate's
kernel: exact, inexact or the default of a predicate without one.
"""

import numpy as np
import pytest

from repro.exec import Budget, ExecutionGovernor
from repro.geometry import Rect, TreeArena
from repro.join import (OVERLAP, SpatialJoin, WithinDistance, naive_join,
                        spatial_join, vectorized_pairs)
from repro.join.predicates import JoinPredicate
from repro.rtree import Entry, Node
from repro.storage import PathBuffer

from .conftest import (NESTED_LOOP, VECTORIZED, assert_conforms, build_rstar,
                       make_items)


def node_of(rects, page_id=0, level=1):
    return Node(page_id, level,
                [Entry(r, i) for i, r in enumerate(rects)])


def kernel_pairs(predicate, r1, r2):
    """``(i, j)`` pairs ``predicate.pair_mask`` keeps, and its ``exact``
    flag, read in both call shapes a consumer uses: one node's slice as
    a row against the other's as a column (the Fig. 2 block — the
    mask's row-major ``nonzero()`` is the j-major order), and aligned
    columns gathered j-major over the full cross product (the
    level-batch planner, the PBSM probe).  The shapes must agree."""
    nodes = [node_of(r1, page_id=0), node_of(r2, page_id=1)]
    arena = TreeArena.build(nodes, 2)
    cols1, cols2 = (arena.slice(node.page_id) for node in nodes)
    mask, exact = predicate.pair_mask(
        cols1.lo.T[:, None, :], cols1.hi.T[:, None, :],
        cols2.lo.T[:, :, None], cols2.hi.T[:, :, None])
    assert mask.shape == (len(r2), len(r1))
    jj, ii = mask.nonzero()
    broadcast = list(zip(ii.tolist(), jj.tolist()))

    t = np.arange(len(r1) * len(r2))
    gi, gj = t % len(r1), t // len(r1)
    aligned, aligned_exact = predicate.pair_mask(
        cols1.lo.T[:, gi], cols1.hi.T[:, gi],
        cols2.lo.T[:, gj], cols2.hi.T[:, gj])
    q = aligned.nonzero()[0]
    assert list(zip(gi[q].tolist(), gj[q].tolist())) == broadcast
    assert aligned_exact == exact
    return broadcast, exact


class TestOverlapPairs:
    """``Overlap.pair_mask`` is ``Rect.intersects``, exactly."""

    def brute(self, r1, r2):
        return [(i, j) for j, b in enumerate(r2)
                for i, a in enumerate(r1) if a.intersects(b)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_in_j_major_order(self, seed):
        r1 = [r for r, _o in make_items(40, seed=seed)]
        r2 = [r for r, _o in make_items(35, seed=seed + 50)]
        assert kernel_pairs(OVERLAP, r1, r2) == (self.brute(r1, r2), True)

    def test_touching_edges_count_as_overlap(self):
        # Closed boxes: sharing a boundary is an intersection, exactly
        # like Rect.intersects.
        r1 = [Rect((0.0, 0.0), (0.5, 0.5))]
        r2 = [Rect((0.5, 0.0), (1.0, 0.5)),   # shares the x=0.5 edge
              Rect((0.5, 0.5), (1.0, 1.0))]   # shares only the corner
        assert kernel_pairs(OVERLAP, r1, r2)[0] == [(0, 0), (0, 1)]

    def test_degenerate_rectangles(self):
        point = Rect((0.3, 0.3), (0.3, 0.3))
        box = Rect((0.0, 0.0), (1.0, 1.0))
        away = Rect((0.5, 0.5), (0.9, 0.9))
        assert kernel_pairs(OVERLAP, [point], [box, away])[0] == [(0, 0)]


class TestDistanceCandidatePairs:
    """``WithinDistance.pair_mask`` is a superset of ``min_distance <=
    d`` (it tests the L-inf box) and says so: ``exact`` is False."""

    def test_superset_of_true_within_distance(self):
        r1 = [r for r, _o in make_items(40, seed=6)]
        r2 = [r for r, _o in make_items(40, seed=7)]
        d = 0.05
        cand, exact = kernel_pairs(WithinDistance(d), r1, r2)
        truly = [(i, j) for j, b in enumerate(r2)
                 for i, a in enumerate(r1) if a.min_distance(b) <= d]
        assert not exact
        assert set(truly) < set(cand), "fixture has no corner candidate"
        # The survivors, in order, are the scalar test's pairs.
        assert [p for p in cand if p in set(truly)] == truly

    def test_prunes_far_pairs(self):
        r1 = [Rect((0.0, 0.0), (0.1, 0.1))]
        r2 = [Rect((0.9, 0.9), (1.0, 1.0))]
        assert kernel_pairs(WithinDistance(0.1), r1, r2)[0] == []


class _NoKernel(JoinPredicate):
    """Overlap without a batched kernel of its own: the default mask
    passes every pair, the scalar test decides."""

    def node_test(self, r1, r2):
        return r1.intersects(r2)

    leaf_test = node_test


class TestVectorizedPairs:
    """The kernel over arena slices: yields, order and costs."""

    def reference(self, n1, n2, predicate, leaf):
        test = predicate.leaf_test if leaf else predicate.node_test
        return [(a.ref, b.ref) for b in n2.entries for a in n1.entries
                if test(a.rect, b.rect)]

    def yields(self, n1, n2, predicate, leaf):
        """``[(ref1, ref2, cost), ...]``."""
        arena = TreeArena.build([n1, n2], 2)
        return [(a.ref, b.ref, c) for a, b, c in vectorized_pairs(
            n1, n2, predicate, leaf,
            arena.slice(n1.page_id), arena.slice(n2.page_id))]

    @pytest.mark.parametrize("predicate", [
        OVERLAP, WithinDistance(0.05), WithinDistance(0.0), _NoKernel()])
    @pytest.mark.parametrize("leaf", [True, False])
    def test_same_pairs_as_nested_loop(self, predicate, leaf):
        n1 = node_of([r for r, _o in make_items(30, seed=12)])
        n2 = node_of([r for r, _o in make_items(25, seed=13)], page_id=1)
        got = [(r1, r2) for r1, r2, _c
               in self.yields(n1, n2, predicate, leaf)]
        assert got == self.reference(n1, n2, predicate, leaf)

    def test_block_cost_charged_once(self):
        n1 = node_of([r for r, _o in make_items(12, seed=14, side=0.3)])
        n2 = node_of([r for r, _o in make_items(9, seed=15, side=0.3)],
                     page_id=1)
        costs = [c for _r1, _r2, c in self.yields(n1, n2, OVERLAP, True)]
        assert costs, "fixture produced no overlapping pairs"
        assert costs[0] == 12 * 9
        assert all(c == 0 for c in costs[1:])

    def test_no_qualifying_pairs_costs_nothing(self):
        n1 = node_of([Rect((0.0, 0.0), (0.1, 0.1))])
        n2 = node_of([Rect((0.8, 0.8), (0.9, 0.9))], page_id=1)
        assert self.yields(n1, n2, OVERLAP, True) == []

    def test_empty_side_yields_nothing(self):
        full = node_of([Rect((0.0, 0.0), (1.0, 1.0))])
        empty = Node(1, 1, [])
        cols = TreeArena.build([full], 2).slice(full.page_id)
        assert list(vectorized_pairs(full, empty, OVERLAP, True,
                                     cols, None)) == []
        assert list(vectorized_pairs(empty, full, OVERLAP, True,
                                     None, cols)) == []


class TestVectorizedJoinIdentity:
    """End-to-end: identical pairs, NA and DA, per-tree and per-level,
    on both traversals (the contract of ``conftest.assert_conforms``)."""

    BOTH = [VECTORIZED, VECTORIZED.with_options(traversal="level-batch")]

    @pytest.mark.parametrize("predicate", [OVERLAP, WithinDistance(0.04)])
    def test_bit_identical_to_nested_loop(self, predicate):
        assert_conforms((build_rstar(make_items(300, seed=16)),
                         build_rstar(make_items(280, seed=17))),
                        self.BOTH, predicate)

    def test_matches_naive_reference(self):
        a = make_items(200, seed=18)
        b = make_items(200, seed=19)
        t1, t2 = build_rstar(a), build_rstar(b)
        vec = spatial_join(t1, t2, config=VECTORIZED)
        assert sorted(vec.pairs) == sorted(naive_join(a, b))

    def test_mixed_heights(self):
        small = build_rstar(make_items(25, seed=20))
        large = build_rstar(make_items(400, seed=21))
        assert small.height != large.height
        for trees in ((small, large), (large, small)):
            assert_conforms(trees, self.BOTH)

    def test_height_one_trees(self):
        t1 = build_rstar(make_items(5, seed=22))
        t2 = build_rstar(make_items(5, seed=23))
        assert t1.height == t2.height == 1
        assert_conforms((t1, t2), self.BOTH)

    def test_empty_tree(self):
        from repro.rtree import RStarTree
        empty = RStarTree(2, 8)
        other = build_rstar(make_items(40, seed=24))
        assert spatial_join(empty, other, config=VECTORIZED).pairs == []


class TestVectorizedCheckpointResume:
    def test_resume_completes_bit_identically(self):
        t1 = build_rstar(make_items(300, seed=27))
        t2 = build_rstar(make_items(300, seed=28))
        full = SpatialJoin(t1, t2, PathBuffer(), config=VECTORIZED).run()

        gov = ExecutionGovernor(Budget(max_na=25), partial=True)
        partial = SpatialJoin(t1, t2, PathBuffer(), governor=gov,
                              config=VECTORIZED).run()
        assert not partial.complete
        resumed = SpatialJoin(
            t1, t2, PathBuffer(), config=VECTORIZED).resume(partial.checkpoint)
        assert resumed.complete
        assert resumed.pairs == full.pairs
        assert resumed.na_total == full.na_total
        assert resumed.da_total == full.da_total

    def test_checkpoint_enumeration_mismatch_refused(self):
        from repro.exec import CheckpointMismatch
        t1 = build_rstar(make_items(150, seed=29))
        t2 = build_rstar(make_items(150, seed=30))
        gov = ExecutionGovernor(Budget(max_na=20), partial=True)
        partial = SpatialJoin(t1, t2, PathBuffer(), governor=gov,
                              config=VECTORIZED).run()
        assert not partial.complete
        with pytest.raises(CheckpointMismatch):
            SpatialJoin(t1, t2, PathBuffer(),
                        config=NESTED_LOOP).resume(partial.checkpoint)
