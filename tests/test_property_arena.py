"""Property-based equivalence of the whole-tree arena and the tree.

The arena is the only columnar copy of a tree, so the guarantee is held
against the source of truth itself: for *any* tree — built by any
insert/delete sequence — every node's zero-copy
:meth:`TreeArena.slice` view holds bit-for-bit the coordinates of the
node's ``Rect`` tuples, and the tree-level staleness tracking rebuilds
the arena after any mutation instead of serving stale views.
"""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import TreeArena
from repro.rtree import RStarTree

from .test_property_vectorized import rect_strategy

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

items_strategy = st.lists(rect_strategy(), min_size=0, max_size=50).map(
    lambda rs: [(r, i) for i, r in enumerate(rs)])

#: Which of the inserted objects to delete again, as index fractions —
#: applied after all inserts so the delete set is always valid.
delete_strategy = st.lists(st.floats(0.0, 1.0), min_size=0, max_size=20)


def build(items):
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def column_bits(col) -> bytes:
    """The exact float64 bits of one coordinate column."""
    return struct.pack(f"<{len(col)}d", *col)


def assert_views_identical(arena: TreeArena, tree) -> None:
    """Every slice against the nodes' ``Rect`` tuples themselves."""
    seen = 0
    for node in tree.nodes():
        assert node.page_id in arena
        if not node.entries:
            continue
        seen += 1
        rects = [e.rect for e in node.entries]
        got = arena.slice(node.page_id)
        assert len(got) == len(rects)
        for k in range(tree.ndim):
            assert got.lo[:, k].tobytes() == \
                column_bits([r.lo[k] for r in rects])
            assert got.hi[:, k].tobytes() == \
                column_bits([r.hi[k] for r in rects])
        level, rows = arena.materialize(node.page_id)
        assert level == node.level
        assert rows == [(e.rect.lo, e.rect.hi, e.ref)
                        for e in node.entries]
    assert seen > 0 or len(tree) == 0


@SLOW
@given(items=items_strategy, dels=delete_strategy)
def test_arena_views_bit_identical_to_node_snapshots(items, dels):
    tree = build(items)
    alive = {oid: rect for rect, oid in items}
    for frac in dels:
        if not alive:
            break
        oid = sorted(alive)[int(frac * (len(alive) - 1))]
        assert tree.delete(alive.pop(oid), oid)
    arena = tree.arena()
    assert arena.total == len(tree) + sum(
        len(n.entries) for n in tree.nodes() if not n.is_leaf)
    assert_views_identical(arena, tree)


@SLOW
@given(items=items_strategy, extra=rect_strategy())
def test_arena_staleness_rebuilds_after_mutation(items, extra):
    tree = build(items)
    first = tree.arena()
    assert tree.arena() is first              # cached while unmutated
    tree.insert(extra, 10_000)
    second = tree.arena()
    assert second is not first
    assert_views_identical(second, tree)
    if items:
        rect, oid = items[0]
        assert tree.delete(rect, oid)
        third = tree.arena()
        assert third is not second
        assert_views_identical(third, tree)


def test_empty_tree_arena():
    tree = RStarTree(2, 6)
    arena = tree.arena()
    assert arena.total == 0
    assert len(arena) == 1                    # the empty root
    assert tree.root_id in arena


@SLOW
@given(items=items_strategy)
def test_arena_shared_memory_round_trip(items):
    """Export/attach round-trips the exact bits."""
    from repro.geometry import (arena_from_shared_memory,
                                arena_to_shared_memory)
    tree = build(items)
    arena = tree.arena()
    with arena_to_shared_memory(arena) as shared:
        attached = arena_from_shared_memory(shared.handle)
        assert attached.index == arena.index
        assert_views_identical(attached, tree)
