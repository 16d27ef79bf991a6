"""Insertion behaviour of the dynamic R-tree variants."""

import pytest

from repro.geometry import Rect
from repro.rtree import (Entry, GuttmanRTree, Node, RStarTree, check,
                         rstar, validate)

from .conftest import (INSERT_PATHS, build_guttman, build_rstar,
                       least_overlap_enlargement, make_items,
                       reference_insert, rstar_split)


class TestConstructorValidation:
    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            RStarTree(0, 8)

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            RStarTree(2, 1)

    def test_rejects_bad_min_fill(self):
        with pytest.raises(ValueError):
            RStarTree(2, 8, min_fill=0.9)

    def test_guttman_rejects_unknown_split(self):
        with pytest.raises(ValueError):
            GuttmanRTree(2, 8, split="magic")

    def test_min_entries_capped_at_half(self):
        tree = RStarTree(2, 10, min_fill=0.5)
        assert tree.min_entries == 5
        tree2 = RStarTree(2, 9, min_fill=0.5)
        assert tree2.min_entries <= 4


class TestBasicInsertion:
    def test_empty_tree(self):
        tree = RStarTree(2, 8)
        assert len(tree) == 0
        assert tree.height == 1

    def test_single_insert(self):
        tree = RStarTree(2, 8)
        tree.insert(Rect((0.1, 0.1), (0.2, 0.2)), 1)
        assert len(tree) == 1
        check(tree)

    def test_insert_wrong_ndim_rejected(self):
        tree = RStarTree(2, 8)
        with pytest.raises(ValueError):
            tree.insert(Rect((0.0,), (1.0,)), 1)

    def test_root_split_grows_height(self):
        tree = RStarTree(2, 4)
        for rect, oid in make_items(5, seed=1):
            tree.insert(rect, oid)
        assert tree.height == 2
        check(tree)

    def test_extend(self):
        tree = RStarTree(2, 8)
        tree.extend(make_items(20, seed=2))
        assert len(tree) == 20
        check(tree)

    def test_size_tracks_inserts(self):
        tree = RStarTree(2, 8)
        items = make_items(37, seed=3)
        for i, (rect, oid) in enumerate(items, start=1):
            tree.insert(rect, oid)
            assert len(tree) == i


@pytest.mark.parametrize("builder", [
    build_rstar,
    lambda items: build_guttman(items, split="quadratic"),
    lambda items: build_guttman(items, split="linear"),
], ids=["rstar", "guttman-quadratic", "guttman-linear"])
class TestInvariantsAcrossVariants:
    def test_structural_invariants(self, builder):
        tree = builder(make_items(300, seed=11))
        assert validate(tree) == []

    def test_all_objects_retrievable(self, builder):
        items = make_items(150, seed=12)
        tree = builder(items)
        found = sorted(tree.range_query(Rect((0, 0), (1, 1))))
        assert found == sorted(oid for _r, oid in items)

    def test_height_grows_logarithmically(self, builder):
        tree = builder(make_items(300, seed=13))
        # M = 8: 300 objects need at least ceil(log_8(300/8)) + 1 = 3
        # levels and certainly no more than 5.
        assert 3 <= tree.height <= 5

    def test_duplicate_rects_allowed(self, builder):
        rect = Rect((0.4, 0.4), (0.5, 0.5))
        tree = builder([(rect, i) for i in range(30)])
        assert sorted(tree.range_query(rect)) == list(range(30))
        assert validate(tree) == []


class TestRStarSpecific:
    def test_fill_factor_near_paper_c(self):
        tree = build_rstar(make_items(800, seed=21), max_entries=16)
        # Forced reinsertion drives utilisation to roughly 60-75%;
        # this is the basis for the model's c = 0.67.
        assert 0.55 <= tree.average_fill() <= 0.85

    def test_reinsertion_happens_once_per_level_per_insert(self):
        # Indirect: inserting clustered data into a small tree must
        # terminate (no reinsertion loop) and stay valid.
        tree = RStarTree(2, 4)
        for i in range(60):
            x = 0.5 + (i % 7) * 1e-4
            tree.insert(Rect((x, x), (x + 1e-4, x + 1e-4)), i)
        check(tree)
        assert len(tree) == 60

    def test_point_data(self):
        tree = RStarTree(2, 6)
        for i in range(50):
            p = Rect.point((i / 50.0, (i * 7 % 50) / 50.0))
            tree.insert(p, i)
        check(tree)
        assert len(tree.range_query(Rect((0, 0), (1, 1)))) == 50

    def test_one_dimensional(self):
        tree = RStarTree(1, 8)
        tree.extend(make_items(120, ndim=1, seed=5))
        check(tree)
        assert tree.ndim == 1

    def test_three_dimensional(self):
        tree = RStarTree(3, 8)
        tree.extend(make_items(120, ndim=3, seed=6))
        check(tree)
        got = sorted(tree.range_query(Rect((0, 0, 0), (1, 1, 1))))
        assert got == list(range(120))


class TestGuttmanSpecific:
    def test_linear_and_quadratic_agree_on_contents(self):
        items = make_items(100, seed=31)
        lin = build_guttman(items, split="linear")
        quad = build_guttman(items, split="quadratic")
        window = Rect((0.2, 0.2), (0.6, 0.6))
        assert sorted(lin.range_query(window)) == \
            sorted(quad.range_query(window))

    def test_split_respects_min_fill(self):
        tree = build_guttman(make_items(200, seed=32), max_entries=10)
        for node in tree.nodes():
            if node.page_id != tree.root_id:
                assert len(node.entries) >= tree.min_entries


def _node(level, rects):
    return Node(0, level, [Entry(r, i) for i, r in enumerate(rects)])


class TestKernelAnswersTheScalarLoop:
    """ChooseSubtree above the leaves against the scalar reference, on
    nodes built to part them: the lead on (area enlargement, area)
    answers when it holds the rectangle or its growth keeps every
    overlap, and the O(n^2) pass answers otherwise."""

    @staticmethod
    def both_paths(node, rect):
        kernel = RStarTree(rect.ndim, 4)._choose_subtree(node, rect)
        return kernel, least_overlap_enlargement(node, rect)

    @staticmethod
    def decide(node, rect):
        """``(answer, reference answer, whether the O(n^2) pass ran)``."""
        passes = []
        kernel = rstar.least_overlap_enlargement
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rstar, "least_overlap_enlargement",
                          lambda *args: passes.append(args) or kernel(*args))
            answer = RStarTree(rect.ndim, 4)._choose_subtree(node, rect)
        return answer, least_overlap_enlargement(node, rect), bool(passes)

    def test_a_container_answers_without_the_pass(self):
        node = _node(2, [Rect((0.0, 0.0), (0.5, 0.5)),
                         Rect((0.25, 0.25), (1.0, 1.0))])
        assert self.decide(node, Rect((0.25, 0.25), (0.375, 0.375))) == \
            (0, 0, False)

    def test_a_non_container_that_adds_no_overlap(self):
        # Entry 0 grows upwards into empty space.  Its overlap with
        # entry 1, below the growth, stays 0.25 * 0.25: equal, not 0.0.
        node = _node(2, [Rect((0.0, 0.0), (0.5, 0.5)),
                         Rect((0.25, 0.0), (0.75, 0.25)),
                         Rect((0.625, 0.75), (1.0, 1.0))])
        rect = Rect((0.0, 0.5), (0.125, 0.625))
        assert self.decide(node, rect) == (0, 0, False)

    def test_growth_into_the_last_sibling_only(self):
        # Entry 1 leads on area enlargement.  Its overlap with entry 0,
        # which it holds, does not change; grown down, it overlaps the
        # last entry more, so a scan that stops early answers 1.
        node = _node(2, [Rect((0.125, 0.625), (0.25, 0.875)),
                         Rect((0.125, 0.375), (0.25, 1.0)),
                         Rect((0.375, 0.625), (0.875, 0.875)),
                         Rect((0.125, 0.25), (0.875, 0.5))])
        rect = Rect((0.125, 0.125), (0.25, 0.125))
        assert self.decide(node, rect) == (3, 3, True)

    def test_a_zero_area_candidate(self):
        # Entry 0, a segment, grows along its line to the point: area
        # and enlargement 0.0, every overlap 0.0, so it leads entry 1,
        # which holds the point but has an area.
        node = _node(2, [Rect((0.0, 0.5), (0.25, 0.5)),
                         Rect((0.25, 0.25), (0.75, 0.75))])
        assert self.decide(node, Rect.point((0.375, 0.5))) == (0, 0, False)
        # Entry 1, a segment, grows into a box that overlaps entry 2.
        node = _node(2, [Rect((1.0, 0.125), (1.0, 0.5)),
                         Rect((0.125, 0.5), (0.75, 0.5)),
                         Rect((0.5, 0.0), (0.875, 0.5)),
                         Rect((0.625, 0.875), (1.0, 0.875))])
        assert self.decide(node, Rect((0.25, 0.375), (0.75, 0.5))) == \
            (2, 2, True)

    def test_tied_keys(self):
        # Entries 1 and 2 tie on (area enlargement, area) at (0.1875,
        # 0.09375).  Entry 1 grows into entry 3 and entry 2 does not.
        node = _node(2, [Rect((0.125, 0.375), (0.875, 0.375)),
                         Rect((0.125, 0.625), (0.375, 1.0)),
                         Rect((0.75, 0.25), (1.0, 0.625)),
                         Rect((0.125, 0.5), (1.0, 1.0))])
        rect = Rect((0.25, 0.25), (0.5, 0.625))
        assert self.decide(node, rect) == (2, 2, True)

    def test_signed_zero_corners(self):
        # -0.0 == 0.0: entry 0 holds the rectangle ...
        node = _node(2, [Rect((-0.0, -0.0), (0.5, 0.5)),
                         Rect((0.0, 0.0), (1.0, 1.0))])
        assert self.decide(node, Rect((0.0, 0.0), (0.25, 0.25))) == \
            (0, 0, False)
        # ... and grown upwards, still only touches entry 1 at x = 0
        # (a side of -0.0 - 0.0): no overlap before or after.
        node = _node(2, [Rect((-0.5, 0.0), (-0.0, 0.5)),
                         Rect((0.0, 0.0), (0.5, 0.5))])
        assert self.decide(node, Rect((-0.25, 0.5), (-0.0, 0.75))) == \
            (0, 0, False)

    def test_a_nan_enlargement_before_the_lead(self):
        # Entry 1, a segment at y = 0.5, grows to width inf and height
        # 0: enlargement inf * 0 = NaN, overlaps 0.0.  Entry 2 leads on
        # (area enlargement, area) and keeps its overlaps, but the
        # scalar loop seats entry 1 over entry 0 on overlap enlargement
        # (0.0 < 0.5), and entry 2, tied there, cannot displace a NaN.
        node = _node(2, [Rect((-1.0, 0.0), (1.0, 1.0)),
                         Rect((0.0, 0.5), (1e308, 0.5)),
                         Rect((-1e308, 0.0), (-1e308, 0.25)),
                         Rect((-2.0, 0.0), (-1.5, 1.0))])
        assert self.decide(node, Rect.point((-1e308, 0.5))) == (1, 1, True)

    def test_an_overflowing_area_before_the_lead(self):
        # Entry 1's area is inf, so its enlargement is inf - inf = NaN;
        # as above, it takes the seat from entry 0 and keeps it.
        node = _node(2, [Rect((-3.0, 2.0), (-2.0, 3.0)),
                         Rect((0.0, 0.0), (1e200, 1e200)),
                         Rect((-1.0, 0.0), (-1.0, 0.25)),
                         Rect((-2.5, 1.0), (-1.5, 1.5))])
        assert self.decide(node, Rect.point((-1.0, 0.5))) == (1, 1, True)

    def test_sum_over_siblings_is_a_left_fold(self):
        # Entries 2 and 3 tie but for the rounding of their overlap
        # sums: added pairwise (ndarray.sum over these nine siblings),
        # entry 3 comes out ahead; added in index order, entry 2 does.
        lo = [9, 4, 2, 3, 0, 7, 3, 7, 8]
        extent = [3, 3, 3, 3, 3, 3, 2, 2, 3]
        node = _node(2, [Rect((a / 10,), ((a + e) / 10,))
                         for a, e in zip(lo, extent)])
        rect = Rect((1 / 10 + 0.05,), (1 / 10 + 0.05 + 16 / 20,))
        assert self.both_paths(node, rect) == (2, 2)

    def test_ties_go_to_the_first_entry(self):
        box = Rect((0.25, 0.25), (0.5, 0.5))
        node = _node(2, [Rect((0.0, 0.0), (0.125, 0.125)), box, box, box])
        assert self.both_paths(node, Rect((0.3, 0.3), (0.4, 0.4))) == (1, 1)

    def test_overflowing_areas(self):
        node = _node(2, [Rect((k * 1e199, 0.0), (k * 1e199 + 9e199, 9e199))
                         for k in range(3)])
        kernel, scalar = self.both_paths(
            node, Rect((5e199, 5e199), (1.5e200, 1.5e200)))
        assert kernel == scalar
        assert kernel in range(3)

    def test_a_container_of_infinite_area(self):
        # Both entries contain the rectangle; the first one's area
        # enlargement is inf - inf = NaN, a key no comparison displaces.
        node = _node(2, [Rect((0.0, 0.0), (1e200, 1e200)),
                         Rect((0.0, 0.0), (1.0, 1.0))])
        rect = Rect((0.25, 0.25), (0.5, 0.5))
        assert self.both_paths(node, rect) == (0, 0)

    def test_a_nan_enlargement_before_the_container(self):
        # Entry 1 contains the point.  Entry 0, a segment at y = 0.5,
        # grows to a box of width inf and height 0: area inf * 0 = NaN,
        # an enlargement that holds the lead it is seeded with.
        node = _node(2, [Rect((0.0, 0.5), (1e308, 0.5)),
                         Rect((-1e308, 0.0), (0.0, 1.0))])
        assert self.both_paths(node, Rect.point((-1e308, 0.5))) == (0, 0)

    def test_an_absorbed_enlargement_outside_the_container(self):
        # Entry 2 does not contain the point, yet 0.4 * 1.5 absorbs its
        # growth to 0.4 * (1.5 + 2**-52): enlargement 0.0, as for the
        # container, entry 0.  Entry 2's overlap with entry 1 grows by a
        # sliver, so entry 0 wins although entry 2's area is smaller.
        eps = 2.0 ** -52
        assert 0.4 * (1.5 + eps) == 0.4 * 1.5
        node = _node(2, [Rect((-1.0, -1.0), (2.0, 3.0)),
                         Rect((0.0, 1.5), (0.1, 2.0)),
                         Rect((0.0, 0.0), (0.4, 1.5))])
        assert self.both_paths(node, Rect.point((0.2, 1.5 + eps))) == (0, 0)


class TestSplitAnswersTheScalarLoop:
    """The R* split off one column block against the scalar loop over
    ``Rect`` unions of ``conftest.rstar_split``."""

    def test_margin_sums_are_a_left_fold(self):
        # Summed in cut order, the margins of axis 0 come to
        # 21.200000000000003 and those of axis 1 to 21.2, so the split
        # runs along axis 1; summed pairwise, both read 21.2 and the tie
        # goes to axis 0.
        tenths = [((1, 2), (2, 2)), ((3, 3), (2, 2)), ((0, 6), (3, 2)),
                  ((6, 8), (2, 1)), ((6, 8), (3, 2)), ((0, 9), (1, 3)),
                  ((2, 7), (2, 1)), ((5, 3), (2, 2)), ((5, 5), (3, 1))]
        entries = [Entry(Rect([a / 10 for a in lo],
                              [a / 10 + e / 10 for a, e in zip(lo, ext)]), i)
                   for i, (lo, ext) in enumerate(tenths)]
        tree = RStarTree(2, 8)
        groups = tree._split_entries(entries, 1)
        assert groups == rstar_split(tree, entries, 1)
        assert [e.ref for e in groups[0]] == [0, 1, 7]


class TestOverflowingAreas:
    """Finite rectangles whose area is ``inf``: enlargements come out
    ``inf - inf = NaN``, which no ``<`` orders.  Every argmin is seeded
    from its first candidate, so each still has an answer."""

    HUGE = Rect((0.0, 0.0), (1e200, 1e200))

    @pytest.mark.parametrize("scalar", INSERT_PATHS)
    def test_five_huge_copies_split(self, scalar):
        tree = RStarTree(2, 4)
        with reference_insert(scalar):
            for oid in range(5):
                tree.insert(self.HUGE, oid)
        assert validate(tree) == []
        assert sorted(tree.range_query(self.HUGE)) == list(range(5))

    @pytest.mark.parametrize("scalar", INSERT_PATHS)
    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("tree", [
        RStarTree(2, 4), GuttmanRTree(2, 4, split="linear")],
        ids=["rstar", "guttman"])
    def test_choose_subtree_answers_an_entry(self, tree, level, scalar):
        node = _node(level, [self.HUGE] * 3)
        with reference_insert(scalar):
            assert tree._choose_subtree(node, self.HUGE) == 0
