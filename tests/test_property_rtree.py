"""Property-based tests: R-tree invariants under random workloads."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.join import naive_join, spatial_join
from repro.rtree import Entry, GuttmanRTree, Node, RStarTree, \
    hilbert_pack, str_pack, validate

from .conftest import reference_choose_subtree

SLOW = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def rect_strategy():
    coord = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
    size = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)

    def build(args):
        (x, y), (w, h) = args
        return Rect((x, y), (min(x + w, 1.0), min(y + h, 1.0)))
    return st.tuples(st.tuples(coord, coord),
                     st.tuples(size, size)).map(build)


items_strategy = st.lists(rect_strategy(), min_size=0, max_size=120).map(
    lambda rs: [(r, i) for i, r in enumerate(rs)])


@SLOW
@given(items_strategy, st.sampled_from([4, 8, 16]))
def test_rstar_insert_keeps_invariants(items, m):
    tree = RStarTree(2, m)
    for rect, oid in items:
        tree.insert(rect, oid)
    assert validate(tree) == []


@SLOW
@given(items_strategy)
def test_guttman_insert_keeps_invariants(items):
    tree = GuttmanRTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    assert validate(tree) == []


@SLOW
@given(items_strategy, rect_strategy())
def test_range_query_equals_brute_force(items, window):
    tree = RStarTree(2, 8)
    for rect, oid in items:
        tree.insert(rect, oid)
    got = sorted(tree.range_query(window))
    want = sorted(oid for rect, oid in items if rect.intersects(window))
    assert got == want


@SLOW
@given(items_strategy, st.data())
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
@given(items_strategy)
def test_packed_trees_valid_and_complete(items):
    for pack in (str_pack, hilbert_pack):
        tree = pack(items, 2, 8)
        assert validate(tree) == []
        assert sorted(tree.range_query(Rect((0, 0), (1, 1)))) == \
            sorted(oid for _r, oid in items)


@SLOW
@given(items_strategy, items_strategy)
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
@given(st.lists(rect_strategy(), min_size=1, max_size=20), rect_strategy())
def test_least_area_enlargement_reads_rect_enlargement(rects, rect):
    """Reading the corners picks what ``Rect.enlargement``/``area`` pick."""
    node = Node(0, 3, [Entry(r, i) for i, r in enumerate(rects)])
    keys = [(r.enlargement(rect), r.area()) for r in rects]
    assert RStarTree._least_area_enlargement(node, rect) == \
        keys.index(min(keys))


# -- the NumPy insert path builds the scalar path's tree -------------------

#: Lattice coordinates (k/16) make exact ties in every criterion;
#: subnormal and zero extents make areas and overlaps that underflow.
_SUBNORMAL = 5e-324
_COORD = st.one_of(st.integers(0, 15).map(lambda k: k / 16),
                   st.floats(min_value=0.0, max_value=0.95))
_EXTENT = st.one_of(st.integers(0, 2).map(lambda k: k / 16),
                    st.sampled_from([0.0, _SUBNORMAL, 3 * _SUBNORMAL]),
                    st.floats(min_value=0.0, max_value=0.05))


def _rects(ndim: int):
    def build(corner_and_extents):
        lo = tuple(c for c, _e in corner_and_extents)
        return Rect(lo, tuple(c + e for c, e in corner_and_extents))
    return st.lists(st.tuples(_COORD, _EXTENT),
                    min_size=ndim, max_size=ndim).map(build)


@st.composite
def _insert_delete_script(draw):
    """``(ndim, M, ops)``: ops are ``("insert", rect)`` — a fresh
    rectangle or an exact duplicate of an earlier one — and
    ``("delete", k)``, removing the k-th live object (mod the count)."""
    ndim = draw(st.sampled_from([1, 2, 3]))
    max_entries = draw(st.sampled_from([2, 3, 4, 8, 16]))
    rect = _rects(ndim)
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
    return ndim, max_entries, ops


def _replay(ndim, max_entries, ops):
    """Run the script; the tree as plain data, node for node."""
    tree = RStarTree(ndim, max_entries)
    live = []
    for oid, (op, arg) in enumerate(ops):
        if op == "insert":
            tree.insert(arg, oid)
            live.append((arg, oid))
        elif live:
            assert tree.delete(*live.pop(arg % len(live)))
    assert validate(tree) == []
    pages = {node.page_id: (node.level, [(e.rect.lo, e.rect.hi, e.ref)
                                         for e in node.entries])
             for node in tree.nodes()}
    return pages, tree.root_id, tree.height


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_insert_delete_script())
def test_kernel_insert_builds_the_scalar_tree(script):
    with_kernel = _replay(*script)
    with reference_choose_subtree():
        scalar = _replay(*script)
    assert with_kernel == scalar
