"""The plane-sweep pair enumerator and its SJ integration."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionConfig
from repro.geometry import Rect
from repro.join import (PAIR_ENUMERATIONS, WithinDistance, naive_join,
                        spatial_join)
from repro.join.plane_sweep import nested_loop_pairs, sweep_pairs
from repro.rtree import Entry

from .conftest import (NESTED_LOOP, PLANE_SWEEP, assert_conforms,
                       build_rstar, items, make_items, rects)

SLOW = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def entries(rects):
    return [Entry(r, i) for i, r in enumerate(rects)]


class TestSweepPairs:
    def test_finds_all_axis_overlapping_pairs(self):
        e1 = entries([Rect((0.0, 0.0), (0.3, 1.0)),
                      Rect((0.5, 0.0), (0.8, 1.0))])
        e2 = entries([Rect((0.2, 0.0), (0.6, 1.0))])
        pairs = {(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)}
        assert pairs == {(0, 0), (1, 0)}

    def test_skips_axis_disjoint_pairs(self):
        e1 = entries([Rect((0.0, 0.0), (0.1, 1.0))])
        e2 = entries([Rect((0.5, 0.0), (0.6, 1.0))])
        assert list(sweep_pairs(e1, e2)) == []

    def test_superset_of_true_intersections(self):
        items1 = make_items(60, seed=1)
        items2 = make_items(60, seed=2)
        e1 = entries([r for r, _o in items1])
        e2 = entries([r for r, _o in items2])
        swept = {(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)}
        truly = {(i, j) for i, (r1, _a) in enumerate(items1)
                 for j, (r2, _b) in enumerate(items2)
                 if r1.intersects(r2)}
        assert truly <= swept

    def test_never_more_than_cross_product(self):
        e1 = entries([r for r, _o in make_items(40, seed=3)])
        e2 = entries([r for r, _o in make_items(40, seed=4)])
        assert sum(1 for _p in sweep_pairs(e1, e2)) <= 1600

    def test_empty_sides(self):
        e = entries([Rect((0, 0), (1, 1))])
        assert list(sweep_pairs([], e)) == []
        assert list(sweep_pairs(e, [])) == []

    def test_alternate_axis(self):
        e1 = entries([Rect((0.0, 0.0), (1.0, 0.1))])
        e2 = entries([Rect((0.0, 0.5), (1.0, 0.6))])
        assert list(sweep_pairs(e1, e2, axis=1)) == []
        assert len(list(sweep_pairs(e1, e2, axis=0))) == 1


def tied_entries():
    """Entries engineered to collide on every sort key component but ref:
    identical lo, several identical (lo, hi) combinations."""
    rects = [Rect((0.1, 0.0), (0.5, 1.0)),
             Rect((0.1, 0.0), (0.5, 1.0)),   # exact duplicate extent
             Rect((0.1, 0.0), (0.7, 1.0)),   # tied lo, longer
             Rect((0.3, 0.0), (0.5, 1.0)),
             Rect((0.3, 0.0), (0.5, 1.0))]
    return [Entry(r, i) for i, r in enumerate(rects)]


class TestSweepDeterminism:
    def test_emission_order_is_permutation_invariant(self):
        # Tied lower boundaries used to make the order depend on input
        # order (Python's sort is stable); the (lo, hi, ref) key is a
        # total order, so any shuffle must emit the same sequence.
        e1, e2 = tied_entries(), tied_entries()
        reference = [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)]
        rng = random.Random(42)
        for _ in range(10):
            s1, s2 = list(e1), list(e2)
            rng.shuffle(s1)
            rng.shuffle(s2)
            got = [(a.ref, b.ref) for a, b, _c in sweep_pairs(s1, s2)]
            assert got == reference

    def test_entries1_opens_on_exact_key_tie(self):
        # Equal (lo, hi, ref) on both sides: the documented order says
        # entries1's entry opens first.
        r = Rect((0.2, 0.0), (0.4, 1.0))
        e1 = [Entry(r, 7)]
        e2 = [Entry(r, 7)]
        assert [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)] \
            == [(7, 7)]


class TestNestedLoopPairs:
    def test_full_cross_product_in_paper_order(self):
        e1 = entries([Rect((0, 0), (1, 1)), Rect((0, 0), (1, 1))])
        e2 = entries([Rect((0, 0), (1, 1))])
        out = [(a.ref, b.ref) for a, b, _c in nested_loop_pairs(e1, e2)]
        assert out == [(0, 0), (1, 0)]


class TestSweepInSpatialJoin:
    def test_same_pairs_as_nested_loop(self):
        a = make_items(200, seed=5)
        b = make_items(200, seed=6)
        t1, t2 = build_rstar(a), build_rstar(b)
        assert_conforms((t1, t2), [PLANE_SWEEP])
        assert sorted(spatial_join(t1, t2, config=PLANE_SWEEP).pairs) \
            == sorted(naive_join(a, b))

    def test_fewer_comparisons(self):
        a = make_items(400, seed=7)
        b = make_items(400, seed=8)
        t1, t2 = build_rstar(a, max_entries=16), \
            build_rstar(b, max_entries=16)
        nl = spatial_join(t1, t2, config=NESTED_LOOP)
        ps = spatial_join(t1, t2, config=PLANE_SWEEP)
        assert ps.comparisons < nl.comparisons

    def test_na_unchanged(self):
        # The sweep changes the order pairs are found in, not which node
        # pairs qualify — total ReadPage count is identical.
        assert_conforms((build_rstar(make_items(300, seed=9)),
                         build_rstar(make_items(300, seed=10))),
                        [PLANE_SWEEP])

    def test_unknown_enumeration_rejected(self):
        t = build_rstar(make_items(10, seed=11))
        with pytest.raises(ValueError, match="pair_enumeration"):
            spatial_join(t, t,
                         config=ExecutionConfig(pair_enumeration="quantum"))

    def test_vectorized_sweep_identical_to_plane_sweep(self):
        a = make_items(250, seed=12)
        b = make_items(250, seed=13)
        t1, t2 = build_rstar(a), build_rstar(b)
        ps = spatial_join(t1, t2, config=PLANE_SWEEP)
        vs = spatial_join(t1, t2, config=PLANE_SWEEP.with_options(
            pair_enumeration="vectorized-sweep"))
        assert vs.pairs == ps.pairs
        assert vs.stats.as_dict() == ps.stats.as_dict()


# Degenerate tie machinery for the slack regressions: coordinates from
# a tiny discrete pool, so draws collide on exact lower bounds and
# collapse to zero extent constantly.
_tied_items = items(max_size=40, rect=rects(
    coord=st.integers(0, 4).map(lambda k: k / 4.0),
    extent=st.sampled_from([0.0, 0.25])))
_tied_entries = _tied_items.map(lambda its: [Entry(r, i) for r, i in its])

_slacks = st.sampled_from([0.0, 0.125, 0.25, 0.5])


class TestSweepSlackRegressions:
    """Tie handling for degenerate rectangles sharing a lower bound.

    The sweep used to drop qualifying ``WithinDistance`` pairs whose
    rectangles do not overlap on the sweep axis (zero-width rectangles
    a positive distance apart being the sharpest case); predicates now
    declare the axis slack the sweep must apply.  These regressions pin
    the fix over duplicate/degenerate inputs.
    """

    @SLOW
    @given(_tied_entries, _tied_entries, _slacks)
    def test_slack_widens_monotonically(self, e1, e2, slack):
        base = {(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)}
        widened = {(a.ref, b.ref)
                   for a, b, _c in sweep_pairs(e1, e2, slack=slack)}
        assert base <= widened

    @SLOW
    @given(_tied_items, _tied_items,
           st.sampled_from([0.0, 0.2, 0.35]))
    def test_distance_join_agrees_across_enumerations(self, items1,
                                                      items2, d):
        assert_conforms((build_rstar(items1), build_rstar(items2)), [
            ExecutionConfig(pair_enumeration=enum)
            for enum in PAIR_ENUMERATIONS], WithinDistance(d))

    def test_degenerate_gap_pair_not_dropped(self):
        # The named failure: two zero-extent rectangles 0.25 apart on
        # the sweep axis qualify under WithinDistance(0.25) but never
        # overlap on any axis — without slack every sweep enumeration
        # silently dropped the pair.
        items1 = [(Rect((0.25, 0.25), (0.25, 0.25)), 0)]
        items2 = [(Rect((0.5, 0.25), (0.5, 0.25)), 0)]
        pred = WithinDistance(0.25)
        for enum in PAIR_ENUMERATIONS:
            result = spatial_join(
                build_rstar(items1), build_rstar(items2), predicate=pred,
                config=ExecutionConfig(pair_enumeration=enum))
            assert list(result.pairs) == [(0, 0)], enum

    def test_shared_lower_bound_zero_width_ties(self):
        # Several zero-width rectangles on one shared lower bound: the
        # sweep pairs them all, with or without slack.
        p = (0.5, 0.0)
        e1 = [Entry(Rect(p, p), i) for i in range(3)]
        e2 = [Entry(Rect(p, (0.5, 1.0)), i) for i in range(3)]
        for slack in (0.0, 0.1):
            assert len(list(sweep_pairs(e1, e2, slack=slack))) == 9
