"""Unit tests for R-tree nodes and entries."""

import pickle

import pytest

from repro.geometry import Rect
from repro.rtree import LEAF_LEVEL, Entry, Node


class TestEntry:
    def test_fields(self):
        r = Rect((0,), (1,))
        e = Entry(r, 42)
        assert e.rect == r and e.ref == 42

    def test_frozen(self):
        e = Entry(Rect((0,), (1,)), 1)
        with pytest.raises(AttributeError):
            e.ref = 2

    def test_equality(self):
        a = Entry(Rect((0,), (1,)), 1)
        b = Entry(Rect((0,), (1,)), 1)
        assert a == b

    def test_slotted_and_pickled(self):
        e = Entry(Rect((0.25, 0.5), (0.75, 1.0)), 7)
        assert not hasattr(e, "__dict__")
        clone = pickle.loads(pickle.dumps(e))
        assert type(clone) is Entry and clone == e
        assert clone.rect.lo == e.rect.lo and clone.rect.hi == e.rect.hi


class TestNode:
    def test_leaf_detection(self):
        assert Node(0, LEAF_LEVEL).is_leaf
        assert not Node(0, 2).is_leaf

    def test_rejects_level_below_leaf(self):
        with pytest.raises(ValueError):
            Node(0, 0)

    def test_mbr(self):
        node = Node(0, 1, [
            Entry(Rect((0.0, 0.0), (0.2, 0.2)), 1),
            Entry(Rect((0.5, 0.4), (0.9, 0.6)), 2),
        ])
        assert node.mbr() == Rect((0.0, 0.0), (0.9, 0.6))

    def test_mbr_of_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Node(0, 1).mbr()

    def test_entry_for_child(self):
        node = Node(0, 2, [
            Entry(Rect((0,), (1,)), 10),
            Entry(Rect((0,), (1,)), 11),
        ])
        assert node.entry_for_child(11) == 1

    def test_entry_for_missing_child_raises(self):
        with pytest.raises(KeyError):
            Node(0, 2).entry_for_child(99)

    def test_replace_entry(self):
        node = Node(0, 1, [Entry(Rect((0,), (1,)), 1)])
        node.replace_entry(0, Entry(Rect((0,), (0.5,)), 1))
        assert node.entries[0].rect == Rect((0,), (0.5,))

    def test_len(self):
        node = Node(0, 1, [Entry(Rect((0,), (1,)), i) for i in range(3)])
        assert len(node) == 3

    def test_entries_list_copied_at_construction(self):
        entries = [Entry(Rect((0,), (1,)), 1)]
        node = Node(0, 1, entries)
        entries.append(Entry(Rect((0,), (1,)), 2))
        assert len(node) == 1

    def test_repr(self):
        assert "leaf" in repr(Node(3, 1))
        assert "internal" in repr(Node(3, 2))
