"""Property-based tests: R-tree invariants under random workloads."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.join import naive_join, spatial_join
from repro.rtree import Entry, GuttmanRTree, Node, RStarTree, \
    hilbert_pack, str_pack, validate

from .conftest import (items, least_overlap_enlargement, rects,
                       reference_insert)

SLOW = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


@SLOW
@given(items(max_size=120), st.sampled_from([4, 8, 16]))
def test_rstar_insert_keeps_invariants(items, m):
    tree = RStarTree(2, m)
    for rect, oid in items:
        tree.insert(rect, oid)
    assert validate(tree) == []


@SLOW
@given(items(max_size=120))
def test_guttman_insert_keeps_invariants(items):
    tree = GuttmanRTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    assert validate(tree) == []


@SLOW
@given(items(max_size=120), rects())
def test_range_query_equals_brute_force(items, window):
    tree = RStarTree(2, 8)
    for rect, oid in items:
        tree.insert(rect, oid)
    got = sorted(tree.range_query(window))
    want = sorted(oid for rect, oid in items if rect.intersects(window))
    assert got == want


@SLOW
@given(items(max_size=120), st.data())
def test_delete_subset_preserves_rest(items, data):
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    if items:
        count = data.draw(st.integers(0, len(items)))
        victims = items[:count]
    else:
        victims = []
    for rect, oid in victims:
        assert tree.delete(rect, oid)
    assert validate(tree) == []
    survivors = sorted(oid for _r, oid in items[len(victims):])
    assert sorted(tree.range_query(Rect((0, 0), (1, 1)))) == survivors


@SLOW
@given(items(max_size=120))
def test_packed_trees_valid_and_complete(items):
    for pack in (str_pack, hilbert_pack):
        tree = pack(items, 2, 8)
        assert validate(tree) == []
        assert sorted(tree.range_query(Rect((0, 0), (1, 1)))) == \
            sorted(oid for _r, oid in items)


@SLOW
@given(items(max_size=120), items(max_size=120))
def test_spatial_join_equals_naive(items1, items2):
    t1 = RStarTree(2, 8)
    for rect, oid in items1:
        t1.insert(rect, oid)
    t2 = RStarTree(2, 8)
    for rect, oid in items2:
        t2.insert(rect, oid)
    result = spatial_join(t1, t2)
    assert sorted(result.pairs) == sorted(naive_join(items1, items2))
    assert result.da_total <= result.na_total


@SLOW
@given(st.lists(rects(), min_size=1, max_size=20), rects())
def test_least_area_enlargement_reads_rect_enlargement(rects, rect):
    """Reading the corners picks what ``Rect.enlargement``/``area`` pick."""
    node = Node(0, 3, [Entry(r, i) for i, r in enumerate(rects)])
    keys = [(r.enlargement(rect), r.area()) for r in rects]
    assert RStarTree._least_area_enlargement(node, rect) == \
        keys.index(min(keys))


# -- the NumPy insert path builds the scalar path's tree -------------------

#: Lattice coordinates (k/16) make exact ties in every criterion;
#: subnormal and zero extents make areas and overlaps that underflow;
#: ``-0.0`` ties ``0.0`` in every comparison but not in its bits.
_SUBNORMAL = 5e-324
_COORD = st.one_of(st.integers(0, 15).map(lambda k: k / 16),
                   st.just(-0.0),
                   st.floats(min_value=0.0, max_value=0.95))
_EXTENT = st.one_of(st.integers(0, 2).map(lambda k: k / 16),
                    st.sampled_from([0.0, _SUBNORMAL, 3 * _SUBNORMAL]),
                    st.floats(min_value=0.0, max_value=0.05))


@st.composite
def _insert_delete_script(draw):
    """``(variant, ndim, M, ops)``: ops are ``("insert", rect)`` — a
    fresh rectangle or an exact duplicate of an earlier one — and
    ``("delete", k)``, removing the k-th live object (mod the count)."""
    variant = draw(st.sampled_from(list(_VARIANTS)))
    ndim = draw(st.sampled_from([1, 2, 3]))
    max_entries = draw(st.sampled_from([2, 3, 4, 8, 16]))
    rect = rects(ndim, coord=_COORD, extent=_EXTENT)
    inserted = []
    ops = []
    for _ in range(draw(st.integers(0, 90))):
        kind = draw(st.sampled_from(["new", "new", "new", "dup", "delete"]))
        if kind == "new" or not inserted:
            inserted.append(draw(rect))
            ops.append(("insert", inserted[-1]))
        elif kind == "dup":
            inserted.append(draw(st.sampled_from(inserted)))
            ops.append(("insert", inserted[-1]))
        else:
            ops.append(("delete", draw(st.integers(0, 10_000))))
    return variant, ndim, max_entries, ops


_VARIANTS = {
    "rstar": RStarTree,
    "guttman-linear": lambda *args: GuttmanRTree(*args, split="linear"),
    "guttman-quadratic": lambda *args: GuttmanRTree(*args),
}


def _replay(variant, ndim, max_entries, ops):
    """Run the script; the tree as plain data, node for node, every
    corner as its bits (``float.hex`` tells ``-0.0`` from ``0.0``)."""
    tree = _VARIANTS[variant](ndim, max_entries)
    live = []
    for oid, (op, arg) in enumerate(ops):
        if op == "insert":
            tree.insert(arg, oid)
            live.append((arg, oid))
        elif live:
            assert tree.delete(*live.pop(arg % len(live)))
    assert validate(tree) == []
    pages = {node.page_id: (node.level, [
        ([x.hex() for x in e.rect.lo + e.rect.hi], e.ref)
        for e in node.entries]) for node in tree.nodes()}
    return pages, tree.root_id, tree.height


#: Eight inserts (2-d, M = 3) whose path MBRs tie ``0.0`` against
#: ``-0.0`` above the parent of the node appended to, where the
#: re-bounded ancestor keeps whichever its subtree lists first.
_SIGNED_ZEROS = ("rstar", 2, 3, [("insert", Rect(lo, hi)) for lo, hi in [
    ((-0.0, 0.25), (0.0, 0.25)), ((0.25, 0.25), (0.25, 0.5)),
    ((0.5, -0.0), (0.75, 0.25)), ((0.0, 0.0), (0.0, 0.0)),
    ((0.0, 0.5), (0.0, 0.5)), ((0.5, -0.0), (0.5, 0.0)),
    ((0.0, 0.0), (0.25, 0.25)), ((0.0, -0.0), (0.0, 0.0))]])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_insert_delete_script())
@example(_SIGNED_ZEROS)
def test_kernel_insert_builds_the_scalar_tree(script):
    with_kernel = _replay(*script)
    with reference_insert():
        scalar = _replay(*script)
    assert with_kernel == scalar


# -- ChooseSubtree above the leaves, node by node --------------------------

#: A lattice (ties, touching and zero extents), ``-0.0``, and magnitudes
#: whose sides and areas overflow: an ``inf`` area (enlargement
#: ``inf - inf``) or a grown side of ``inf`` times one of ``0.0`` makes a
#: NaN enlargement.
_NODE_COORD = st.one_of(st.integers(-8, 8).map(lambda k: k / 8),
                        st.just(-0.0),
                        st.sampled_from([-1e308, -1e200, 1e200, 1e308]))

#: The lattice and ``-0.0`` alone: rectangles of finite area.
_FINITE_COORD = st.one_of(st.integers(-8, 8).map(lambda k: k / 8),
                          st.just(-0.0))

#: Holds any rectangle of ``ndim`` dimensions; its sides overflow.
_INFINITE = {ndim: Rect((-1e308,) * ndim, (1e308,) * ndim)
             for ndim in (1, 2, 3)}


def _level2(rects):
    return Node(0, 2, [Entry(r, i) for i, r in enumerate(rects)])


@st.composite
def _level2_node(draw):
    """``(node, rect)``: a level-2 node of 1 to 84 entries in 1 to 3
    dimensions and a rectangle to insert.

    Half the draws are of finite area, with two more entries: one of
    infinite area second and a copy of the rectangle after it.  The
    infinite entry holds the rectangle and every sibling, so its area
    enlargement is NaN (``inf - inf``) and its overlap enlargement 0.0;
    the copy leads on (area enlargement, area) and keeps its overlaps;
    and unless the first entry holds the rectangle too, its growth adds
    overlap with the infinite entry: the scalar loop answers the NaN
    entry.
    """
    ndim = draw(st.sampled_from([1, 2, 3]))
    finite = draw(st.booleans())
    rect = rects(ndim, coord=_FINITE_COORD if finite else _NODE_COORD)
    size = draw(st.integers(1, 84))
    entries = draw(st.lists(rect, min_size=size, max_size=size))
    target = draw(rect)
    if finite:
        entries.insert(1, _INFINITE[ndim])
        entries.insert(draw(st.integers(2, size + 1)), target)
    return _level2(entries), target


#: Entry 2 leads on (area enlargement, area) and keeps its overlaps, but
#: entry 1's enlargement is NaN (width inf, height 0) and its overlap
#: enlargement 0.0: the scalar loop answers 1.
_NAN_BEFORE_THE_LEAD = (_level2([
    Rect((-1.0, 0.0), (1.0, 1.0)), Rect((0.0, 0.5), (1e308, 0.5)),
    Rect((-1e308, 0.0), (-1e308, 0.25)), Rect((-2.0, 0.0), (-1.5, 1.0))]),
    Rect.point((-1e308, 0.5)))

#: Entry 1 leads on (area enlargement, area); grown, it overlaps the
#: last entry more and no other: the scalar loop answers 3.
_GROWTH_INTO_THE_LAST_SIBLING = (_level2([
    Rect((0.125, 0.625), (0.25, 0.875)), Rect((0.125, 0.375), (0.25, 1.0)),
    Rect((0.375, 0.625), (0.875, 0.875)),
    Rect((0.125, 0.25), (0.875, 0.5))]),
    Rect((0.125, 0.125), (0.25, 0.125)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_level2_node())
@example(_NAN_BEFORE_THE_LEAD)
@example(_GROWTH_INTO_THE_LAST_SIBLING)
def test_choose_subtree_answers_the_scalar_loop(case):
    node, rect = case
    assert RStarTree(rect.ndim, 84)._choose_subtree(node, rect) == \
        least_overlap_enlargement(node, rect)
