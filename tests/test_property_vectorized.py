"""Property-based equivalence of the vectorized pair enumerators.

The ISSUE-level guarantee: for *any* input — degenerate (zero-extent)
rectangles, exactly touching edges, duplicate geometry — the vectorized
enumerators produce the identical pair list and identical NA/DA as
their scalar references, over the kernels and — for a tree without an
arena — scalar-side.  Coordinates are drawn from a small float grid so
that tied and touching boundaries are common, not measure-zero.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.join import OVERLAP, WithinDistance, spatial_join
from repro.join.plane_sweep import sweep_pairs, sweep_pairs_batch
from repro.rtree import Entry, RStarTree

from .conftest import NESTED_LOOP, VECTORIZED

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

#: A coarse grid: 21 distinct coordinates make ties, touching edges and
#: zero-extent rectangles routine instead of vanishingly rare.
grid_coord = st.integers(0, 20).map(lambda k: k / 20.0)


def rect_strategy():
    def build(args):
        x1, y1, x2, y2 = args
        return Rect((min(x1, x2), min(y1, y2)),
                    (max(x1, x2), max(y1, y2)))
    return st.tuples(grid_coord, grid_coord,
                     grid_coord, grid_coord).map(build)


items_strategy = st.lists(rect_strategy(), min_size=0, max_size=60).map(
    lambda rs: [(r, i) for i, r in enumerate(rs)])

def build(items):
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def assert_vectorized_matches(items1, items2, predicate=OVERLAP):
    """The ``vectorized`` block against nested loops, over the arena
    kernels and then scalar-side: ``t1`` loses its arena, as a tree
    whose pager may fault does."""
    t1, t2 = build(items1), build(items2)
    nl = spatial_join(t1, t2, predicate=predicate, config=NESTED_LOOP)
    want = nl.stats.as_dict()
    for arena in (True, False):
        if not arena:
            t1.arena = None              # shadows the builder
        vec = spatial_join(t1, t2, predicate=predicate, config=VECTORIZED)
        assert vec.fallback == (None if arena else "no-arena")
        assert vec.pairs == nl.pairs
        got = vec.stats.as_dict()
        assert got["node_accesses"] == want["node_accesses"]
        assert got["disk_accesses"] == want["disk_accesses"]


@SLOW
@given(items_strategy, items_strategy)
def test_vectorized_join_bit_identical(items1, items2):
    assert_vectorized_matches(items1, items2)


@SLOW
@given(items_strategy, items_strategy,
       st.floats(min_value=0.0, max_value=0.4))
def test_vectorized_distance_join_bit_identical(items1, items2,
                                                distance):
    assert_vectorized_matches(items1, items2, WithinDistance(distance))


@SLOW
@given(items_strategy, items_strategy)
def test_batched_sweep_identical_yields(items1, items2):
    e1 = [Entry(r, i) for i, (r, _o) in enumerate(items1)]
    e2 = [Entry(r, i) for i, (r, _o) in enumerate(items2)]
    scalar = [(a.ref, b.ref, c) for a, b, c in sweep_pairs(e1, e2)]
    batch = [(a.ref, b.ref, c)
             for a, b, c in sweep_pairs_batch(e1, e2)]
    assert batch == scalar


@SLOW
@given(items_strategy, items_strategy, st.randoms())
def test_sweep_order_is_permutation_invariant(items1, items2, rng):
    e1 = [Entry(r, i) for i, (r, _o) in enumerate(items1)]
    e2 = [Entry(r, i) for i, (r, _o) in enumerate(items2)]
    reference = [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)]
    rng.shuffle(e1)
    rng.shuffle(e2)
    assert [(a.ref, b.ref) for a, b, _c in sweep_pairs(e1, e2)] \
        == reference
    assert [(a.ref, b.ref)
            for a, b, _c in sweep_pairs_batch(e1, e2)] == reference
