"""Bulk loading (STR and Hilbert packing).

The packers order, cut and bound each level in arrays and install the
tree's arena.  They are held here, node for node, to a packer that
``sorted``s ``Entry`` lists and bounds with ``Node.mbr()``
(``_reference_pack``, the reference, as the scalar insert path is in
``conftest``), and their installed arena to ``TreeArena.build`` over
the nodes, byte for byte.  Packing makes no ``Entry`` or ``Node``: a
page's node is built on its first read, its leaf entries holding the
caller's own objects, and a level-batch join builds only the roots.
"""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExecutionGovernor, PathBuffer, spatial_join
from repro.datasets import uniform_rectangles
from repro.exec import Budget, ExecutionConfig
from repro.geometry import Rect, TreeArena
from repro.rtree import (RStarTree, check, hilbert_pack, str_pack,
                         validate)
from repro.rtree.entry import Entry
from repro.rtree.hilbert import hilbert_index_float
from repro.rtree.node import LEAF_LEVEL, Node
from repro.storage import Pager

from .conftest import (GOLDEN_TREES, PACKED_GOLDEN_TREES, items,
                       make_items, rects, tree_digest)


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
class TestPacking:
    def test_invariants(self, pack):
        tree = pack(make_items(500, seed=1), 2, 16)
        assert validate(tree) == []

    def test_contents_complete(self, pack):
        items = make_items(300, seed=2)
        tree = pack(items, 2, 16)
        found = sorted(tree.range_query(Rect((0, 0), (1, 1))))
        assert found == sorted(oid for _r, oid in items)

    def test_queries_match_brute_force(self, pack):
        items = make_items(300, seed=3)
        tree = pack(items, 2, 16)
        window = Rect((0.3, 0.1), (0.55, 0.7))
        want = sorted(o for r, o in items if r.intersects(window))
        assert sorted(tree.range_query(window)) == want

    def test_pickle_round_trip(self, pack):
        """The processes mode ships trees to its workers by pickle: a
        packed tree's copy holds the same nodes, entry for entry."""
        tree = pack(make_items(500, seed=5), 2, 16)
        clone = pickle.loads(pickle.dumps(tree))
        assert tree_digest(clone) == tree_digest(tree)
        assert validate(clone) == []

    def test_empty_input(self, pack):
        tree = pack([], 2, 16)
        assert len(tree) == 0
        assert tree.height == 1

    def test_single_item(self, pack):
        items = make_items(1, seed=4)
        tree = pack(items, 2, 16)
        assert tree.height == 1
        assert tree.range_query(Rect((0, 0), (1, 1))) == [0]
        check(tree)

    def test_fill_close_to_target(self, pack):
        tree = pack(make_items(1000, seed=5), 2, 16, fill=0.67)
        assert 0.6 <= tree.average_fill() <= 0.75

    def test_full_fill(self, pack):
        tree = pack(make_items(640, seed=6), 2, 16, fill=1.0)
        assert tree.average_fill() >= 0.9
        check(tree)

    def test_dynamic_insert_after_pack(self, pack):
        items = make_items(200, seed=7)
        tree = pack(items, 2, 8)
        extra = make_items(100, seed=8)
        for rect, oid in extra:
            tree.insert(rect, oid + 1000)
        check(tree)
        assert len(tree) == 300

    def test_delete_after_pack(self, pack):
        items = make_items(200, seed=9)
        tree = pack(items, 2, 8)
        for rect, oid in items[:50]:
            assert tree.delete(rect, oid)
        check(tree)
        assert len(tree) == 150

    def test_one_dimensional(self, pack):
        items = make_items(200, ndim=1, seed=10)
        tree = pack(items, 1, 16)
        check(tree)
        assert sorted(tree.range_query(Rect((0.0,), (1.0,)))) == \
            sorted(o for _r, o in items)

    def test_dimensionality_mismatch_rejected(self, pack):
        with pytest.raises(ValueError):
            pack(make_items(10, ndim=1), 2, 16)

    def test_bad_fill_rejected(self, pack):
        with pytest.raises(ValueError):
            pack(make_items(10), 2, 16, fill=0.0)


class TestStrStructure:
    def test_str_leaves_tile_spatially(self):
        # STR leaves should have low overlap: the summed leaf area should
        # barely exceed the union area for point-like data.
        items = make_items(512, seed=11, side=0.001)
        tree = str_pack(items, 2, 16, fill=1.0)
        leaves = tree.nodes_at_level(1)
        total = sum(n.mbr().area() for n in leaves)
        assert total < 1.5  # near-tiling, not rampant overlap

    def test_height_matches_packing_arithmetic(self):
        # 640 items at fill 1.0 with M = 16 -> 40 leaves -> 3 level-2
        # nodes -> root: height 3.
        tree = str_pack(make_items(640, seed=12), 2, 16, fill=1.0)
        assert tree.height == 3


# -- the reference packer -----------------------------------------------------


def _reference_pack(items, ndim, max_entries, fill=0.67, min_fill=0.4,
                    order="str"):
    """Pack with ``sorted`` over ``Entry`` lists and ``Node.mbr()``."""
    tree = RStarTree(ndim, max_entries, min_fill)
    if not items:
        return tree
    capacity = max(2, round(fill * max_entries), tree.min_entries)
    entries = [Entry(rect, oid) for rect, oid in items]
    tree.pager.free(tree.root_id)

    def make(level, chunk):
        node = Node(tree.pager.allocate(), level, chunk)
        tree.pager.write(node.page_id, node)
        return node

    def runs(entries):
        return [entries[i:i + capacity]
                for i in range(0, len(entries), capacity)]

    def tiles(entries, dim):
        entries = sorted(entries, key=lambda e: e.rect.center[dim])
        if dim == ndim - 1:
            return runs(entries)
        pages = math.ceil(len(entries) / capacity)
        slabs = math.ceil(pages ** (1.0 / (ndim - dim)))
        size = math.ceil(len(entries) / slabs)
        return [chunk for i in range(0, len(entries), size)
                for chunk in tiles(entries[i:i + size], dim + 1)]

    def fix_tail(chunks):
        out = []
        for chunk in chunks:
            if len(chunk) >= tree.min_entries or not out:
                out.append(chunk)
                continue
            merged = out.pop() + chunk
            half = len(merged) // 2
            if half >= tree.min_entries:
                out.extend((merged[:half], merged[half:]))
            else:
                out.append(merged)
        return out

    level = LEAF_LEVEL
    while not (len(entries) <= capacity
               or (len(entries) <= max_entries and level > LEAF_LEVEL)):
        if order == "str":
            chunks = tiles(entries, 0)
        else:
            chunks = runs(sorted(
                entries, key=lambda e: hilbert_index_float(e.rect.center)))
        nodes = [make(level, chunk) for chunk in fix_tail(chunks)]
        if len(nodes) == 1:             # one run left: it is the root
            root, = nodes
            break
        entries = [Entry(n.mbr(), n.page_id) for n in nodes]
        level += 1
    else:
        root = make(level, entries)
    tree.root_id, tree.height, tree.size = root.page_id, level, len(items)
    return tree


PACKERS = {"str": str_pack, "hilbert": hilbert_pack}

#: Lattice coordinates either side of the origin, and ``-0.0``: tied
#: centres, and zero corners of either sign in one node.
SIGNED = st.integers(-10, 10).map(lambda k: k / 20.0) | st.just(-0.0)


def assert_installed_arena(tree) -> None:
    """The arena installed by packing is ``TreeArena.build`` over the
    nodes: the same index (in the same order), the same coordinate and
    ref bytes, laid out C-contiguous as ``build`` lays them out."""
    arena = tree._arena
    assert arena is not None
    built = TreeArena.build(tree.nodes(), tree.ndim)
    assert list(arena.index.items()) == list(built.index.items())
    assert (arena.ndim, arena.total) == (built.ndim, built.total)
    for got, want in ((arena._coords, built._coords),
                      (arena._refs, built._refs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4).flatmap(
           lambda ndim: items(max_size=300, rect=rects(ndim, SIGNED))),
       st.sampled_from(sorted(PACKERS)), st.integers(3, 12),
       st.sampled_from([0.3, 0.5, 0.67, 1.0]),
       st.sampled_from([0.1, 0.25, 0.4, 0.5]))
def test_packers_build_the_reference_tree(items, order, max_entries, fill,
                                          min_fill):
    ndim = items[0][0].ndim if items else 2
    tree = PACKERS[order](items, ndim, max_entries, fill=fill,
                          min_fill=min_fill)
    want = _reference_pack(items, ndim, max_entries, fill, min_fill, order)
    assert tree_digest(tree) == tree_digest(want)
    assert validate(tree) == []
    assert_installed_arena(tree)


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
@pytest.mark.parametrize("n", range(35, 40))
def test_a_level_merged_into_one_run_is_the_root(pack, n):
    """35-39 items at M = 50 (capacity 34) cut into a full run and a
    short one, which ``_fix_tail`` merges: that one node is the root, a
    leaf, not the single entry of an internal root above it."""
    items = make_items(n, seed=n)
    tree = pack(items, 2, 50)
    assert validate(tree) == []
    assert (tree.height, len(tree.root().entries)) == (1, n)
    assert sorted(tree.range_query(Rect((0, 0), (1, 1)))) == list(range(n))
    assert tree_digest(tree) == tree_digest(_reference_pack(
        items, 2, 50, order="str" if pack is str_pack else "hilbert"))
    assert_installed_arena(tree)


# -- the installed arena ------------------------------------------------------


@pytest.fixture
def build_calls(monkeypatch):
    """Every ``TreeArena.build`` call made while the test runs."""
    calls = []
    build = TreeArena.build.__func__

    def spy(cls, nodes, ndim):
        calls.append(ndim)
        return build(cls, nodes, ndim)

    monkeypatch.setattr(TreeArena, "build", classmethod(spy))
    return calls


def _used_pager() -> Pager:
    """A caller's pager that already holds pages: the tree's page ids
    start past them."""
    pager = Pager()
    for _ in range(7):
        pager.allocate("someone else's page")
    return pager


#: ``name: build`` of packed trees straight from the packer.
PACKED = {case: GOLDEN_TREES[case][0] for case in PACKED_GOLDEN_TREES}
for _name, _pack in PACKERS.items():
    PACKED[f"{_name}-empty"] = lambda pack=_pack: pack([], 2, 16)
    PACKED[f"{_name}-single"] = lambda pack=_pack: pack(
        make_items(1, seed=4), 2, 16)
    PACKED[f"{_name}-pager"] = lambda pack=_pack: pack(
        make_items(300, seed=5), 2, 8, pager=_used_pager())


@pytest.mark.parametrize("case", PACKED)
def test_packing_installs_the_arena_build_would(case, build_calls):
    tree = PACKED[case]()
    arena = tree.arena()
    assert arena is tree._arena
    assert build_calls == []            # packed and served: no build
    assert_installed_arena(tree)
    assert tree.arena() is arena


# -- pages built on first read ------------------------------------------------


@pytest.fixture
def made(monkeypatch):
    """Every ``Entry`` and ``Node`` constructed while the test runs, by
    class name."""
    counts = {"Entry": 0, "Node": 0}
    for cls in (Entry, Node):
        init = cls.__init__

        def spy(self, *args, init=init, name=cls.__name__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return counts


@pytest.mark.parametrize("pack", [str_pack, hilbert_pack],
                         ids=["str", "hilbert"])
def test_packing_makes_no_entry_or_node(pack, made):
    tree = pack(make_items(3_000, seed=21), 2, 16)
    assert made == {"Entry": 0, "Node": 0}
    assert tree.height == 4
    tree.root()
    assert made == {"Entry": len(tree.root().entries), "Node": 1}


@pytest.mark.parametrize("governed", [False, True])
def test_a_level_batch_join_builds_only_the_roots(governed, built):
    trees = [str_pack(uniform_rectangles(n, 0.5, 2, seed=seed).items, 2, 50)
             for n, seed in ((20_000, 1), (19_000, 2))]
    governor = ExecutionGovernor(Budget(deadline=3600.0, max_na=10 ** 9,
                                        max_da=10 ** 9)) if governed else None
    result = spatial_join(*trees, buffer=PathBuffer(), governor=governor,
                          config=ExecutionConfig(traversal="level-batch"))
    assert result.engine == "level-batch" and result.na_total > 0
    assert sorted(built) == sorted(tree.root_id for tree in trees)


def test_a_built_leaf_holds_the_callers_objects():
    # Object ids past the small-int cache: each is its own object.
    items = [(rect, oid + 10 ** 6) for rect, oid in make_items(500, seed=22)]
    tree = str_pack(items, 2, 8)
    by_oid = {id(oid): (rect, oid) for rect, oid in items}
    leaves = [node for node in tree.nodes() if node.is_leaf]
    assert sum(len(leaf.entries) for leaf in leaves) == len(items)
    for leaf in leaves:
        for entry in leaf.entries:
            rect, oid = by_oid[id(entry.ref)]
            assert entry.ref is oid and entry.rect is rect


@pytest.mark.parametrize("order", sorted(PACKERS))
def test_unread_pages_count_as_present(order):
    items = make_items(400, seed=23)
    tree = PACKERS[order](items, 2, 8)
    eager = _reference_pack(items, 2, 8, order=order)
    probe = range(-1, len(eager.pager) + 10)
    for _ in range(2):
        assert len(tree.pager) == len(eager.pager)
        assert [p in tree.pager for p in probe] \
            == [p in eager.pager for p in probe]
        list(tree.nodes())              # read every page
    assert tree.pager._unread == {}     # and the arena source is dropped
