"""Arena cache staleness: every mutation path must invalidate.

The level-batched traversal (:mod:`repro.join.batch`) plans entire
frontiers from ``tree.arena()`` coordinates.  A stale cached arena
would silently desynchronize the batch engine from the tree — wrong
pairs with no error — so this file pins that *every* way a tree can
change invalidates the cache: plain ``insert``/``delete``, bulk-loaded
trees mutated after packing (``str_pack``/``hilbert_pack``), the
R*-tree forced-reinsertion path, and direct node surgery (in-place
entry-list mutation and wholesale ``entries`` rebinds).  The converse
is pinned too: an unmutated tree keeps returning the *same* cached
arena object, since a spurious rebuild per join would erase the point
of caching.  The tables an arena derives from its snapshot
(``page_table``, ``node_mbrs``) are built once per arena and go with it
when it is replaced.
"""

import pickle
import random

import numpy as np
import pytest

from repro.exec import ExecutionConfig
from repro.geometry import Rect
from repro.join import spatial_join
from repro.rtree import RStarTree, hilbert_pack, str_pack
from repro.rtree.node import Entry

BATCH = ExecutionConfig(traversal="level-batch")
STACK = ExecutionConfig(traversal="stack")


def _rect(rng: random.Random, side: float = 0.05) -> Rect:
    lo = (rng.random() * 0.9, rng.random() * 0.9)
    return Rect(lo, (lo[0] + side, lo[1] + side))


def _tree(n: int, seed: int, max_entries: int = 6) -> RStarTree:
    rng = random.Random(seed)
    tree = RStarTree(2, max_entries)
    for oid in range(n):
        tree.insert(_rect(rng), oid)
    return tree


def _items(n: int, seed: int) -> list[tuple[Rect, int]]:
    rng = random.Random(seed)
    return [(_rect(rng), oid) for oid in range(n)]


def _arena_matches_tree(tree) -> bool:
    """Does the cached arena hold exactly the tree's current MBRs?"""
    arena = tree.arena()
    pages = {node.page_id for node in tree.nodes()}
    if set(arena.index) != pages:
        return False
    for node in tree.nodes():
        cols = arena.slice(node.page_id)
        if len(cols) != len(node.entries):
            return False
        for k in range(tree.ndim):
            lo = cols.lo[:, k].tolist()
            hi = cols.hi[:, k].tolist()
            for i, entry in enumerate(node.entries):
                if lo[i] != entry.rect.lo[k] or hi[i] != entry.rect.hi[k]:
                    return False
    return True


def _batch_equals_stack(t1, t2) -> None:
    """Behavioral check: a stale arena would break this equality."""
    batch = spatial_join(t1, t2, config=BATCH)
    stack = spatial_join(t1, t2, config=STACK)
    assert (batch.engine, stack.engine) == ("level-batch", "stack")
    assert batch.pairs == stack.pairs
    assert batch.na_total == stack.na_total
    assert batch.da_total == stack.da_total


# -- the converse: no spurious rebuilds ---------------------------------------


def test_unmutated_tree_reuses_cached_arena():
    tree = _tree(120, seed=1)
    first = tree.arena()
    assert tree.arena() is first
    tree.range_query(Rect((0.1, 0.1), (0.4, 0.4)))    # reads don't count
    assert tree.arena() is first


# -- tables derived from the snapshot -----------------------------------------


def _node_mbrs_match_tree(tree) -> None:
    """``node_mbrs`` column ``p`` is ``Node.mbr()`` of page ``p``, to
    the bit, and ``page_table`` is the index in array form."""
    arena = tree.arena()
    offset, count = arena.page_table
    lo, hi = arena.node_mbrs.tolist()
    nodes = list(tree.nodes())
    assert len(nodes) > 10 and len(lo) == tree.ndim
    for node in nodes:
        page = node.page_id
        assert (offset[page], count[page]) == arena.index[page][:2]
        mbr = node.mbr()
        assert [column[page].hex() for column in lo] \
            == [x.hex() for x in mbr.lo]
        assert [column[page].hex() for column in hi] \
            == [x.hex() for x in mbr.hi]


def test_node_mbrs_are_node_mbr_bit_for_bit():
    _node_mbrs_match_tree(_tree(400, seed=2))
    _node_mbrs_match_tree(str_pack(_items(400, seed=2), ndim=2,
                                   max_entries=8))


def test_derived_tables_are_built_once_per_arena():
    tree = _tree(120, seed=15)
    arena = tree.arena()
    assert arena.node_mbrs is arena.node_mbrs
    assert arena.page_table is arena.page_table
    spatial_join(tree, tree, config=BATCH)
    assert tree.arena().node_mbrs is arena.node_mbrs


def test_rebuilt_arena_does_not_serve_the_old_tables():
    tree = _tree(120, seed=16)
    old = tree.arena()
    old_mbrs, old_table = old.node_mbrs, old.page_table
    old_root = tree.root_id
    # Far outside everything inserted so far: the root's MBR must grow.
    tree.insert(Rect((0.97, 0.97), (0.99, 0.99)), 10_000)
    new = tree.arena()
    assert new is not old
    assert new.node_mbrs is not old_mbrs
    assert new.page_table is not old_table
    _node_mbrs_match_tree(tree)
    assert new.node_mbrs[1, :, tree.root_id].tolist() == [0.99, 0.99]
    assert old_mbrs[1, :, old_root].tolist() != [0.99, 0.99]


def test_empty_root_has_no_mbr():
    arena = RStarTree(2, 6).arena()
    assert arena.total == 0
    assert arena.node_mbrs.shape == (2, 2, len(arena.page_table[0]))
    assert not arena.page_table[1].any()
    assert np.isnan(arena.node_mbrs).all()


# -- insert / delete ----------------------------------------------------------


def test_insert_invalidates_arena():
    tree = _tree(80, seed=3)
    first = tree.arena()
    tree.insert(Rect((0.2, 0.2), (0.25, 0.25)), 10_000)
    assert not tree._arena_current()
    assert tree.arena() is not first
    assert _arena_matches_tree(tree)


def test_delete_invalidates_arena():
    rng = random.Random(4)
    items = [(_rect(rng), oid) for oid in range(80)]
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    first = tree.arena()
    rect, oid = items[17]
    assert tree.delete(rect, oid)
    assert not tree._arena_current()
    assert tree.arena() is not first
    assert _arena_matches_tree(tree)


def test_failed_delete_keeps_arena():
    tree = _tree(40, seed=5)
    first = tree.arena()
    assert not tree.delete(Rect((0.0, 0.0), (0.001, 0.001)), 999_999)
    assert tree.arena() is first         # nothing changed, cache holds


# -- bulk-loaded trees mutated after packing ----------------------------------


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack])
def test_bulk_loaded_tree_invalidates_on_mutation(pack):
    tree = pack(_items(200, seed=6), ndim=2, max_entries=8)
    first = tree.arena()
    assert tree.arena() is first         # packed tree caches like any other
    tree.insert(Rect((0.5, 0.5), (0.55, 0.55)), 10_000)
    assert not tree._arena_current()
    assert tree.arena() is not first
    assert _arena_matches_tree(tree)

    second = tree.arena()
    rect, oid = _items(200, seed=6)[3]
    assert tree.delete(rect, oid)
    assert tree.arena() is not second
    assert _arena_matches_tree(tree)


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack])
def test_bulk_loaded_tree_batch_join_after_mutation(pack):
    t1 = pack(_items(300, seed=7), ndim=2, max_entries=8)
    t2 = _tree(300, seed=8)
    t1.arena()
    t2.arena()
    t1.insert(Rect((0.3, 0.3), (0.36, 0.36)), 10_000)
    _batch_equals_stack(t1, t2)


# -- the R* forced-reinsertion path -------------------------------------------


def test_rstar_reinsert_invalidates_arena():
    """Overflow handled by forced reinsertion (not a split) must still
    invalidate: reinsertion rewires nodes *within* one ``insert`` call,
    so a cache keyed on anything weaker than the mutation counter plus
    entry-list versions would miss it."""
    rng = random.Random(9)
    tree = RStarTree(2, 4)               # tiny fanout: overflows early
    reinserts = []
    orig = tree._reinsert

    def spy(path, indices):
        reinserts.append(len(path))
        orig(path, indices)

    tree._reinsert = spy
    oid = 0
    stale_seen = 0
    while not reinserts or stale_seen < 3:
        first = tree.arena()
        # Clustered inserts overflow the same subtree repeatedly.
        lo = (0.4 + rng.random() * 0.1, 0.4 + rng.random() * 0.1)
        tree.insert(Rect(lo, (lo[0] + 0.02, lo[1] + 0.02)), oid)
        oid += 1
        assert not tree._arena_current()
        assert tree.arena() is not first
        if reinserts:
            stale_seen += 1
        assert oid < 500, "never triggered a forced reinsertion"
    assert reinserts                     # the path actually ran
    assert _arena_matches_tree(tree)


# -- direct node surgery ------------------------------------------------------


def test_inplace_entry_mutation_invalidates_arena():
    tree = _tree(60, seed=10)
    first = tree.arena()
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries.append(Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000))
    assert not tree._arena_current()     # caught via entries.version
    assert tree.arena() is not first
    assert _arena_matches_tree(tree)


def test_entries_rebind_invalidates_arena():
    tree = _tree(60, seed=11)
    first = tree.arena()
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries = type(leaf.entries)(list(leaf.entries))
    assert not tree._arena_current()     # caught via object identity
    assert tree.arena() is not first
    assert _arena_matches_tree(tree)


# -- pickling sheds the cache entirely ----------------------------------------


def test_unpickled_tree_rebuilds_fresh_arena():
    tree = _tree(60, seed=12)
    tree.arena()
    clone = pickle.loads(pickle.dumps(tree))
    assert clone._arena is None
    assert _arena_matches_tree(clone)


# -- end to end: mutate between batch joins -----------------------------------


def test_batch_join_correct_across_interleaved_mutations():
    """Join, mutate, join again — the second batch join must see the
    mutated tree, not the arena snapshot the first join built."""
    t1 = _tree(250, seed=13)
    t2 = _tree(250, seed=14)
    _batch_equals_stack(t1, t2)
    t1.insert(Rect((0.1, 0.1), (0.18, 0.18)), 50_000)
    rng = random.Random(14)
    rect0 = _rect(rng)
    assert t2.delete(rect0, 0)
    _batch_equals_stack(t1, t2)
