"""Arena cache staleness: every mutation path must invalidate.

The level-batched traversal (:mod:`repro.join.batch`) plans entire
frontiers from ``tree.arena()`` coordinates.  A stale cached arena
would silently desynchronize the batch engine from the tree — wrong
pairs with no error — so this file pins that *every* way a tree can
change invalidates what the tree derived, as its callers see it: a new
``arena()`` object and an emptied ``derived()``.  The paths are plain
``insert``/``delete``, bulk-loaded trees mutated after packing
(``str_pack``/``hilbert_pack``), trees read back by ``load_tree``, the
R*-tree forced-reinsertion path, direct node surgery (in-place
entry-list mutation and wholesale ``entries`` rebinds), unpickled
copies, and packed trees whose pages were never read, or read in
part.  The converse is pinned too: an unmutated tree keeps returning
the *same* cached arena object without reading a node, since a
spurious rebuild or a walk per join would erase the point of caching,
and one tree's mutation leaves another's cache alone.  The tables an
arena derives from its snapshot (``page_table``, ``node_mbrs``) are
built once per arena and go with it when it is replaced.
"""

import pickle
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionConfig, tree_params
from repro.geometry import Rect, TreeArena
from repro.geometry.columnar import segment_bounds
from repro.io import load_tree, save_tree
from repro.join import spatial_join
from repro.reliability import FaultInjector, FaultyPager
from repro.rtree import RStarTree, RTreeBase, hilbert_pack, str_pack
from repro.rtree.arena_view import ArenaPages
from repro.rtree.node import Entry
from repro.storage import Pager

from .conftest import (_signed_lattice16, build_rstar, make_items,
                       tree_digest)

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


def _derive(tree):
    """Derive both things a tree keeps: a catalog value in
    ``derived()`` and the arena, which is returned."""
    tree.derived()["probe"] = True
    return tree.arena()


def _assert_stale(tree, first) -> None:
    """What a caller sees of a tree whose derived state went stale."""
    assert "probe" not in tree.derived()
    assert tree.arena() is not first


def _assert_current(tree, first) -> None:
    assert tree.derived().get("probe") is True
    assert tree.arena() is first


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
    first = _derive(tree)
    _assert_current(tree, first)
    tree.range_query(Rect((0.1, 0.1), (0.4, 0.4)))    # reads don't count
    _assert_current(tree, first)


def test_current_tree_reads_no_node(monkeypatch):
    """On a current tree, ``arena()``, ``derived()`` and the catalog
    statistics admission prices from are one clock comparison: no node
    is read, not even to check."""
    tree = str_pack(make_items(60_000, seed=1), ndim=2, max_entries=50)
    first = tree.arena()
    params = tree_params(tree)           # walks the leaves once
    reads = []
    peek, nodes = Pager.peek, RTreeBase.nodes

    def spy_peek(self, page_id):
        reads.append(page_id)
        return peek(self, page_id)

    def spy_nodes(self):
        reads.append("nodes")
        return nodes(self)

    monkeypatch.setattr(Pager, "peek", spy_peek)
    monkeypatch.setattr(RTreeBase, "nodes", spy_nodes)
    for _ in range(3):
        assert tree.arena() is first
        assert "leaf_area" in tree.derived()
        assert tree_params(tree).density == params.density
    assert reads == []


# -- tables derived from the snapshot -----------------------------------------


def _node_mbrs_match_tree(tree, min_nodes: int = 11) -> None:
    """``node_mbrs`` column ``p`` is ``Node.mbr()`` of page ``p``, to
    the bit, and ``page_table`` is the index in array form."""
    arena = tree.arena()
    offset, count = arena.page_table
    lo, hi = arena.node_mbrs.tolist()
    nodes = list(tree.nodes())
    assert len(nodes) >= min_nodes and len(lo) == tree.ndim
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


#: Three rectangles, twice at a zero corner of either sign, three
#: times over: at M = 4 two nodes see ``-0.0`` first and ``0.0`` after,
#: or the reverse.  ``min`` keeps the first zero; ``np.minimum``
#: reductions need not.
SIGNED_ZEROS = [Rect((1.0, 1.0), (2.0, 2.0)),
                Rect((-0.0, -0.0), (0.5, 0.5)),
                Rect((0.0, 0.0), (0.5, 0.5))] * 3


@pytest.mark.parametrize("build", ["insert", "str", "hilbert"])
def test_node_mbrs_keep_the_sign_of_a_zero(build):
    items = [(rect, oid) for oid, rect in enumerate(SIGNED_ZEROS)]
    lattice = _signed_lattice16(650, 43)
    if build == "insert":
        _node_mbrs_match_tree(build_rstar(items, 2, 4), min_nodes=4)
        _node_mbrs_match_tree(build_rstar(lattice, 2, 8))
    else:
        pack = str_pack if build == "str" else hilbert_pack
        _node_mbrs_match_tree(pack(items, 2, 4), min_nodes=4)
        _node_mbrs_match_tree(pack(lattice, 2, 8, fill=1.0, min_fill=0.5))


def _bounding(coords, starts):
    """``segment_bounds`` as ``Rect.bounding`` over each run."""
    rects = [Rect._trusted(tuple(lo), tuple(hi))
             for lo, hi in zip(coords[0].T.tolist(), coords[1].T.tolist())]
    ends = list(starts[1:]) + [len(rects)]
    return [Rect.bounding(rects[a:b]) for a, b in zip(starts, ends)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                         min_size=4, max_size=4), min_size=1, max_size=40),
       st.data())
def test_segment_bounds_is_rect_bounding(corners, data):
    coords = np.array(corners).T.reshape(2, 2, -1)
    n = coords.shape[2]
    cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) \
        if n > 1 else set()
    starts = [0, *sorted(cuts)]
    got = segment_bounds(coords, np.array(starts))
    want = _bounding(coords, starts)
    assert [[x.hex() for x in column] for column in got[0].T.tolist()] \
        == [[x.hex() for x in r.lo] for r in want]
    assert [[x.hex() for x in column] for column in got[1].T.tolist()] \
        == [[x.hex() for x in r.hi] for r in want]


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
    first = _derive(tree)
    tree.insert(Rect((0.2, 0.2), (0.25, 0.25)), 10_000)
    _assert_stale(tree, first)
    assert _arena_matches_tree(tree)


def test_delete_invalidates_arena():
    rng = random.Random(4)
    items = [(_rect(rng), oid) for oid in range(80)]
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    first = _derive(tree)
    rect, oid = items[17]
    assert tree.delete(rect, oid)
    _assert_stale(tree, first)
    assert _arena_matches_tree(tree)


def test_failed_delete_keeps_arena():
    tree = _tree(40, seed=5)
    first = _derive(tree)
    assert not tree.delete(Rect((0.0, 0.0), (0.001, 0.001)), 999_999)
    _assert_current(tree, first)         # nothing changed, cache holds


# -- bulk-loaded trees mutated after packing ----------------------------------


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack])
def test_bulk_loaded_tree_invalidates_on_mutation(pack):
    tree = pack(_items(200, seed=6), ndim=2, max_entries=8)
    installed = tree._arena
    assert installed is not None         # packing lays the arena out
    assert _derive(tree) is installed    # and it caches like any other
    assert _arena_matches_tree(tree)
    tree.insert(Rect((0.5, 0.5), (0.55, 0.55)), 10_000)
    _assert_stale(tree, installed)
    assert _arena_matches_tree(tree)

    second = _derive(tree)
    rect, oid = _items(200, seed=6)[3]
    assert tree.delete(rect, oid)
    _assert_stale(tree, second)
    assert _arena_matches_tree(tree)

    # Direct entry surgery on a freshly packed tree, its arena unread.
    tree = pack(_items(200, seed=6), ndim=2, max_entries=8)
    installed = tree._arena
    tree.derived()["probe"] = True
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries.append(Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000))
    _assert_stale(tree, installed)
    assert _arena_matches_tree(tree)


def test_loaded_tree_invalidates_on_mutation(tmp_path):
    save_tree(str_pack(_items(200, seed=6), ndim=2, max_entries=8),
              tmp_path / "t.json")
    tree = load_tree(tmp_path / "t.json")
    first = _derive(tree)
    assert _arena_matches_tree(tree)
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries[0] = Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000)
    _assert_stale(tree, first)
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
    and every one of its entry-list changes must tick the tree's
    clock."""
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
        first = _derive(tree)
        # Clustered inserts overflow the same subtree repeatedly.
        lo = (0.4 + rng.random() * 0.1, 0.4 + rng.random() * 0.1)
        tree.insert(Rect(lo, (lo[0] + 0.02, lo[1] + 0.02)), oid)
        oid += 1
        _assert_stale(tree, first)
        if reinserts:
            stale_seen += 1
        assert oid < 500, "never triggered a forced reinsertion"
    assert reinserts                     # the path actually ran
    assert _arena_matches_tree(tree)


# -- direct node surgery ------------------------------------------------------


def test_inplace_entry_mutation_invalidates_arena():
    tree = _tree(60, seed=10)
    first = _derive(tree)
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries.append(Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000))
    _assert_stale(tree, first)
    assert _arena_matches_tree(tree)


def test_entries_rebind_invalidates_arena():
    tree = _tree(60, seed=11)
    first = _derive(tree)
    leaf = next(node for node in tree.nodes() if node.is_leaf)
    leaf.entries = type(leaf.entries)(list(leaf.entries))
    _assert_stale(tree, first)
    assert _arena_matches_tree(tree)


def test_one_tree_mutated_leaves_another_current():
    t1, t2 = _tree(60, seed=17), _tree(60, seed=17)
    first1, first2 = _derive(t1), _derive(t2)
    leaf = next(node for node in t1.nodes() if node.is_leaf)
    leaf.entries.append(Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000))
    t1.insert(Rect((0.2, 0.2), (0.25, 0.25)), 10_000)
    _assert_current(t2, first2)
    _assert_stale(t1, first1)


# -- pickling sheds the cache entirely ----------------------------------------


def test_unpickled_tree_rebuilds_fresh_arena():
    tree = _tree(60, seed=12)
    first = _derive(tree)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone._arena is None and clone.derived() == {}
    assert _arena_matches_tree(clone)
    _assert_current(tree, first)


def test_unpickled_copy_has_its_own_clock():
    tree = _tree(60, seed=12)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone.clock is not tree.clock
    assert all(node.clock is clone.clock for node in clone.nodes())
    first, copied = _derive(tree), _derive(clone)
    leaf = next(node for node in clone.nodes() if node.is_leaf)
    leaf.entries.append(Entry(Rect((0.9, 0.9), (0.95, 0.95)), 77_000))
    _assert_current(tree, first)
    _assert_stale(clone, copied)
    assert _arena_matches_tree(clone)
    copied = _derive(clone)
    tree.insert(Rect((0.2, 0.2), (0.25, 0.25)), 10_000)
    _assert_current(clone, copied)
    _assert_stale(tree, first)


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


# -- packed trees whose pages are built on first read -------------------------
#
# A packed tree's pages are installed unread over its arena and built
# as they are read.  A tree never read, or read in part, must mutate,
# derive, pickle and serialise exactly as the same tree fully read.


READS = ["never", "half"]


def _packed(reads: str, pack=str_pack):
    tree = pack(_items(300, seed=18), ndim=2, max_entries=6)
    if reads == "half":
        for page in list(tree.arena().index)[::2]:
            tree.node(page)
    return tree


def _fully_read(pack=str_pack):
    tree = _packed("never", pack)
    list(tree.nodes())
    assert tree.pager._unread == {}
    return tree


def _arena_is_build(tree) -> None:
    """``arena()`` is ``TreeArena.build`` over the nodes, byte for byte."""
    arena = tree.arena()
    built = TreeArena.build(tree.nodes(), tree.ndim)
    assert list(arena.index.items()) == list(built.index.items())
    assert arena._coords.tobytes() == built._coords.tobytes()
    assert arena._refs.tobytes() == built._refs.tobytes()


@pytest.mark.parametrize("reads", READS)
@pytest.mark.parametrize("pack", [str_pack, hilbert_pack])
def test_packed_tree_read_on_demand_takes_an_insert(reads, pack):
    tree, twin = _packed(reads, pack), _fully_read(pack)
    first = _derive(tree)
    for oid, rect in enumerate([Rect((0.5, 0.5), (0.55, 0.55)),
                                Rect((0.02, 0.9), (0.03, 0.95))]):
        tree.insert(rect, 10_000 + oid)
        twin.insert(rect, 10_000 + oid)
    _assert_stale(tree, first)
    _arena_is_build(tree)
    assert tree_digest(tree) == tree_digest(twin)
    assert len(tree.pager) == len(twin.pager)


@pytest.mark.parametrize("reads", READS)
def test_packed_tree_read_on_demand_takes_a_delete(reads):
    tree, twin = _packed(reads), _fully_read()
    first = _derive(tree)
    # A leaf not read yet, emptied below the minimum fill: the delete
    # reads it, dissolves it and frees its page.
    page = next(node.page_id for node in twin.nodes()
                if node.is_leaf and node.page_id in tree.pager._unread)
    doomed = list(twin.node(page).entries)
    for entry in doomed[:len(doomed) - tree.min_entries + 1]:
        assert tree.delete(entry.rect, entry.ref)
        assert twin.delete(entry.rect, entry.ref)
    assert page not in tree.pager and page not in twin.pager
    _assert_stale(tree, first)
    _arena_is_build(tree)
    assert tree_digest(tree) == tree_digest(twin)
    assert len(tree.pager) == len(twin.pager)


@pytest.mark.parametrize("reads", READS)
def test_packed_tree_read_on_demand_pickles(reads):
    tree = _packed(reads)
    first = _derive(tree)
    clone = pickle.loads(pickle.dumps(tree))
    assert clone.clock is not tree.clock
    assert tree_digest(clone) == tree_digest(_fully_read())
    assert all(node.clock is clone.clock for node in clone.nodes())
    _arena_is_build(clone)
    clone.insert(Rect((0.5, 0.5), (0.55, 0.55)), 10_000)
    _arena_is_build(clone)
    _assert_current(tree, first)


@pytest.mark.parametrize("reads", READS)
def test_packed_tree_read_on_demand_through_a_faulty_pager(reads):
    tree, twin = _packed(reads), _fully_read()
    tree.pager = FaultyPager(tree.pager, FaultInjector(seed=0))
    got = spatial_join(tree, tree, config=STACK)
    want = spatial_join(twin, twin, config=STACK)
    assert got.pairs == want.pairs
    assert (got.na_total, got.da_total) == (want.na_total, want.da_total)
    assert tree.pager.inner._unread == {}
    assert tree_digest(tree) == tree_digest(twin)


def test_two_threads_reading_one_unread_page_get_one_node(monkeypatch):
    tree = _packed("never")
    page = next(iter(tree.arena().index))
    # Both readers are inside ``build`` at once: neither found the page.
    barrier = threading.Barrier(2, timeout=10)
    build = ArenaPages.build

    def racing_build(self, page_id):
        barrier.wait()
        return build(self, page_id)

    monkeypatch.setattr(ArenaPages, "build", racing_build)
    got = [None, None]

    def read(slot):
        got[slot] = tree.pager.read(page)

    threads = [threading.Thread(target=read, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got[0] is not None and got[0] is got[1]
    assert tree.pager.read(page) is got[0]


# A loaded tree comes as a packed one does: every page installed unread
# over the arena laid out from the file.


def _loaded(path, reads: str):
    tree = load_tree(path)
    if reads == "all":
        list(tree.nodes())
        assert tree.pager._unread == {}
    return tree


def test_loaded_tree_read_on_demand_takes_an_insert_and_a_delete(
        tmp_path):
    path = tmp_path / "t.json"
    save_tree(_tree(300, seed=19), path)
    tree, twin = _loaded(path, "never"), _loaded(path, "all")
    assert len(tree.pager._unread) == len(tree.pager)
    first = _derive(tree)
    for oid, rect in enumerate([Rect((0.5, 0.5), (0.55, 0.55)),
                                Rect((0.02, 0.9), (0.03, 0.95))]):
        tree.insert(rect, 10_000 + oid)
        twin.insert(rect, 10_000 + oid)
    _assert_stale(tree, first)
    _arena_is_build(tree)
    assert tree_digest(tree) == tree_digest(twin)
    assert len(tree.pager) == len(twin.pager)

    tree, twin = _loaded(path, "never"), _loaded(path, "all")
    first = _derive(tree)
    # A leaf not read yet, emptied below the minimum fill: the delete
    # reads it, dissolves it and frees its page.
    page = next(node.page_id for node in twin.nodes() if node.is_leaf)
    doomed = list(twin.node(page).entries)
    for entry in doomed[:len(doomed) - tree.min_entries + 1]:
        assert tree.delete(entry.rect, entry.ref)
        assert twin.delete(entry.rect, entry.ref)
    assert page not in tree.pager and page not in twin.pager
    _assert_stale(tree, first)
    save_tree(tree, tmp_path / "never.json")
    save_tree(twin, tmp_path / "all.json")
    assert (tmp_path / "never.json").read_bytes() \
        == (tmp_path / "all.json").read_bytes()
    _arena_is_build(tree)
    assert tree_digest(tree) == tree_digest(twin)
    assert len(tree.pager) == len(twin.pager)


def test_save_tree_bytes_of_an_unread_packed_tree(tmp_path):
    save_tree(_packed("never"), tmp_path / "never.json")
    save_tree(_fully_read(), tmp_path / "read.json")
    assert (tmp_path / "never.json").read_bytes() \
        == (tmp_path / "read.json").read_bytes()
