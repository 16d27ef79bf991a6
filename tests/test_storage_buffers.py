"""Unit tests for the buffer managers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.io import save_tree
from repro.serve import ServeConfig
from repro.serve.service import JoinRequest
from repro.storage import (BufferManager, LRUBuffer, NoBuffer, PathBuffer,
                           buffer_from_spec)

import pytest

from .conftest import build_rstar, make_items


class TestNoBuffer:
    def test_always_misses(self):
        buf = NoBuffer()
        assert buf.access("T", 1, 42) is False
        assert buf.access("T", 1, 42) is False

    def test_reset_is_noop(self):
        buf = NoBuffer()
        buf.reset()
        assert buf.access("T", 1, 1) is False


class TestPathBuffer:
    def test_first_access_misses(self):
        buf = PathBuffer()
        assert buf.access("T", 2, 10) is False

    def test_repeat_access_hits(self):
        buf = PathBuffer()
        buf.access("T", 2, 10)
        assert buf.access("T", 2, 10) is True

    def test_same_level_replacement_evicts(self):
        buf = PathBuffer()
        buf.access("T", 2, 10)
        buf.access("T", 2, 11)       # replaces the level-2 slot
        assert buf.access("T", 2, 10) is False

    def test_one_slot_per_level(self):
        buf = PathBuffer()
        buf.access("T", 3, 1)
        buf.access("T", 2, 2)
        buf.access("T", 1, 3)
        assert buf.access("T", 3, 1) is True
        assert buf.access("T", 2, 2) is True
        assert buf.access("T", 1, 3) is True

    def test_reading_higher_level_invalidates_deeper_path(self):
        # The retained path must stay a real root-to-node path: once the
        # traversal moves to a different level-2 node, the old level-1
        # node is no longer on the current path.
        buf = PathBuffer()
        buf.access("T", 2, 10)
        buf.access("T", 1, 20)
        buf.access("T", 2, 11)       # descend into a different subtree
        assert buf.access("T", 1, 20) is False

    def test_trees_are_independent(self):
        buf = PathBuffer()
        buf.access("A", 1, 5)
        assert buf.access("B", 1, 5) is False
        assert buf.access("A", 1, 5) is True

    def test_reset_forgets_everything(self):
        buf = PathBuffer()
        buf.access("T", 1, 5)
        buf.reset()
        assert buf.access("T", 1, 5) is False

    def test_cached_inspection(self):
        buf = PathBuffer()
        buf.access("T", 3, 7)
        buf.access("T", 2, 8)
        assert buf.cached("T") == {3: 7, 2: 8}
        assert buf.cached("other") == {}


class TestPathBufferSnapshot:
    def test_snapshot_round_trip(self):
        buf = PathBuffer()
        buf.access("R1", 2, 10)
        buf.access("R1", 1, 20)
        buf.access("R2", 2, 30)
        clone = PathBuffer()
        clone.restore(buf.snapshot())
        assert clone.cached("R1") == buf.cached("R1")
        assert clone.cached("R2") == buf.cached("R2")
        assert clone.snapshot() == buf.snapshot()

    def test_snapshot_order_independent_of_access_order(self):
        a, b = PathBuffer(), PathBuffer()
        a.access("R1", 1, 1)
        a.access("R2", 1, 2)
        b.access("R2", 1, 2)
        b.access("R1", 1, 1)
        assert a.snapshot() == b.snapshot()

    def test_non_string_labels_do_not_collide(self):
        # str(2) == str("2"): keying the sort on str() made row order
        # depend on dict insertion order whenever labels collided.  The
        # stable-serialization key keeps the types apart.
        a, b = PathBuffer(), PathBuffer()
        a.access(2, 1, 10)
        a.access("2", 1, 20)
        b.access("2", 1, 20)
        b.access(2, 1, 10)
        assert a.snapshot() == b.snapshot()

    def test_non_string_labels_round_trip(self):
        buf = PathBuffer()
        buf.access(2, 2, 10)
        buf.access("2", 2, 11)
        buf.access(("R", 1), 1, 12)      # not JSON-expressible: fallback
        clone = PathBuffer()
        clone.restore(buf.snapshot())
        assert clone.cached(2) == {2: 10}
        assert clone.cached("2") == {2: 11}
        assert clone.cached(("R", 1)) == {1: 12}
        assert clone.snapshot() == buf.snapshot()

    def test_restore_none_clears(self):
        buf = PathBuffer()
        buf.access("T", 1, 5)
        buf.restore(None)
        assert buf.cached("T") == {}


class TestLRUBuffer:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LRUBuffer(-1)

    def test_zero_capacity_never_hits(self):
        buf = LRUBuffer(0)
        buf.access("T", 1, 1)
        assert buf.access("T", 1, 1) is False

    def test_hit_within_capacity(self):
        buf = LRUBuffer(2)
        buf.access("T", 1, 1)
        buf.access("T", 1, 2)
        assert buf.access("T", 1, 1) is True

    def test_eviction_of_least_recent(self):
        buf = LRUBuffer(2)
        buf.access("T", 1, 1)
        buf.access("T", 1, 2)
        buf.access("T", 1, 3)        # evicts page 1
        assert buf.access("T", 1, 1) is False
        assert buf.access("T", 1, 3) is True

    def test_hit_refreshes_recency(self):
        buf = LRUBuffer(2)
        buf.access("T", 1, 1)
        buf.access("T", 1, 2)
        buf.access("T", 1, 1)        # 1 becomes most recent
        buf.access("T", 1, 3)        # evicts 2, not 1
        assert buf.access("T", 1, 1) is True
        assert buf.access("T", 1, 2) is False

    def test_shared_across_trees_but_keyed_by_tree(self):
        buf = LRUBuffer(4)
        buf.access("A", 1, 7)
        assert buf.access("B", 1, 7) is False  # same id, other tree
        assert buf.access("A", 1, 7) is True

    def test_level_is_irrelevant_for_identity(self):
        buf = LRUBuffer(4)
        buf.access("T", 1, 7)
        assert buf.access("T", 2, 7) is True   # same page, any level

    def test_len_tracks_pool(self):
        buf = LRUBuffer(2)
        buf.access("T", 1, 1)
        buf.access("T", 1, 2)
        buf.access("T", 1, 3)
        assert len(buf) == 2

    def test_reset(self):
        buf = LRUBuffer(2)
        buf.access("T", 1, 1)
        buf.reset()
        assert len(buf) == 0
        assert buf.access("T", 1, 1) is False


class _LastPage(BufferManager):
    """A policy of the test's own that overrides nothing but the
    protocol's four required methods: one slot, shared by all trees,
    holding the last page read at any level."""

    kind = "last-page"

    def __init__(self):
        self._last = None

    def access(self, tree, level, node_id):
        hit = self._last == [tree, node_id]
        self._last = [tree, node_id]
        return hit

    def reset(self):
        self._last = None

    def snapshot(self):
        return self._last

    def restore(self, state):
        self._last = state


BUFFERS = {"none": NoBuffer, "path": PathBuffer, "lru1": lambda: LRUBuffer(1),
           "lru3": lambda: LRUBuffer(3), "last-page": _LastPage}
READS = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 4),
                           st.integers(0, 5)), max_size=40)


class TestAccessMany:
    """``access_many`` is ``access`` over a sequence: the same hits,
    the same content afterwards, from whatever content it starts."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(BUFFERS)),
           labels=st.sampled_from([("R1", "R2"), ("T", "T")]),
           before=READS, reads=READS)
    # A hit at level 2 invalidates nothing: the level-1 page read
    # before it is still on the path when it is read again.
    @example(kind="path", labels=("R1", "R2"),
             before=[(0, 2, 5), (0, 1, 7)], reads=[(0, 2, 5), (0, 1, 7)])
    # A miss at level 2 does invalidate it, and only in its own tree.
    @example(kind="path", labels=("R1", "R2"),
             before=[(0, 2, 5), (0, 1, 7), (1, 1, 7)],
             reads=[(0, 2, 6), (1, 1, 7), (0, 1, 7)])
    def test_equals_a_loop_of_access(self, kind, labels, before, reads):
        start = BUFFERS[kind]()
        for side, level, page in before:
            start.access(labels[side], level, page)
        looped, bulk = BUFFERS[kind](), BUFFERS[kind]()
        looped.restore(start.snapshot())
        bulk.restore(start.snapshot())
        want = [looped.access(labels[side], level, page)
                for side, level, page in reads]
        sides, levels, pages = (np.array([read[k] for read in reads],
                                         dtype=np.int64) for k in range(3))
        got = bulk.access_many(labels, sides, levels, pages)
        assert got.dtype == bool and got.tolist() == want
        assert bulk.snapshot() == looped.snapshot()


class TestBufferFromSpec:
    """One reading of ``none | path | lru:<k>`` behind both doors that
    take it from outside: ``repro join --buffer`` and the daemon's
    ``buffer`` request field used to parse it separately and disagree
    (``lru:0`` ran in the CLI and was a 400 in the daemon)."""

    @pytest.fixture(scope="class")
    def tree_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("buffer-spec")
        paths = []
        for seed in (61, 62):
            paths.append(str(root / f"t{seed}.json"))
            save_tree(build_rstar(make_items(40, seed=seed)), paths[-1])
        return paths

    @pytest.mark.parametrize("spec, want", [
        ("none", NoBuffer), ("path", PathBuffer), ("lru:16", LRUBuffer),
        ("lru:0", "lru buffer needs at least one page"),
        ("lru:abc", "'lru:' needs an integer page count"),
        ("lru:", "'lru:' needs an integer page count"),
        # What Python's int() would read as a page count.
        *[(spec, "'lru:' needs an integer page count")
          for spec in ("lru:+5", "lru: 5", "lru:5 ", "lru:5_0",
                       "lru:\u0665")],
        ("LRU:4", "unknown buffer spec 'LRU:4'"),
        (7, "unknown buffer spec 7"),
    ])
    def test_both_doors_read_it_alike(self, spec, want, tree_files, capsys):
        def request():
            return JoinRequest({"tree1": "a", "tree2": "b", "buffer": spec},
                               ServeConfig())
        argv = ["join", *tree_files, "--buffer", spec]
        if isinstance(want, str):
            with pytest.raises(ValueError) as direct:
                buffer_from_spec(spec)
            assert want in str(direct.value)
            # The daemon refuses at parse time, before a slot is held.
            with pytest.raises(ValueError) as served:
                request()
            assert str(served.value) == str(direct.value)
            if isinstance(spec, str):       # argv holds strings only
                assert main(argv) == 2
                assert str(direct.value) in capsys.readouterr().err
            return
        assert type(buffer_from_spec(spec)) is want
        assert type(request().make_buffer()) is want
        assert main(argv) == 0
        if want is LRUBuffer:
            assert buffer_from_spec(spec).capacity == 16
            assert request().buffer_footprint(3, 2) == 16
