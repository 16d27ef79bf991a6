"""R-tree nodes.

A node is one page worth of entries plus its level in the tree.  Levels
follow the paper's numbering: leaves are level 1 and the root is level
``h`` (Section 2.2: "the root is assumed to be at level j=h, and the
leaf-nodes at level j=1").

The entry list is wrapped in a version-counting list, so the tree can
tell that its columnar arena (:meth:`repro.rtree.RTreeBase.arena`) went
stale after any mutation — ``append``, ``del``, slice or index
assignment, rebinding ``node.entries`` — without the tree-maintenance
code having to know the arena exists.
"""

from __future__ import annotations

from ..geometry import Rect
from .entry import Entry

__all__ = ["Node", "LEAF_LEVEL"]

#: Leaves sit at level 1 in the paper's numbering.
LEAF_LEVEL = 1


class _EntryList(list):
    """A list of entries that counts its mutations.

    ``version`` increments on every in-place change, letting
    :meth:`repro.rtree.RTreeBase.arena` validate its snapshot of this
    node with one integer comparison.
    """

    __slots__ = ("version",)

    def __init__(self, iterable=()):
        super().__init__(iterable)
        self.version = 0

    def append(self, item):
        self.version += 1
        super().append(item)

    def extend(self, iterable):
        self.version += 1
        super().extend(iterable)

    def insert(self, index, item):
        self.version += 1
        super().insert(index, item)

    def remove(self, item):
        self.version += 1
        super().remove(item)

    def pop(self, index=-1):
        self.version += 1
        return super().pop(index)

    def clear(self):
        self.version += 1
        super().clear()

    def sort(self, **kwargs):
        self.version += 1
        super().sort(**kwargs)

    def reverse(self):
        self.version += 1
        super().reverse()

    def __setitem__(self, index, value):
        self.version += 1
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self.version += 1
        super().__delitem__(index)

    def __iadd__(self, other):
        self.version += 1
        return super().__iadd__(other)

    def __imul__(self, factor):
        self.version += 1
        return super().__imul__(factor)


class Node:
    """One R-tree node (page): a level and a list of entries."""

    __slots__ = ("page_id", "level", "_entries")

    def __init__(self, page_id: int, level: int,
                 entries: list[Entry] | None = None):
        if level < LEAF_LEVEL:
            raise ValueError(f"level must be >= {LEAF_LEVEL}")
        self.page_id = page_id
        self.level = level
        self.entries = entries if entries else []

    @property
    def entries(self) -> list[Entry]:
        """The entry list (mutations are counted, see ``_EntryList``)."""
        return self._entries

    @entries.setter
    def entries(self, value) -> None:
        self._entries = _EntryList(value)

    @property
    def is_leaf(self) -> bool:
        return self.level == LEAF_LEVEL

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries.

        Raises :class:`ValueError` for an empty node: only a freshly
        created root may be empty, and callers never ask for its MBR.
        """
        if not self._entries:
            raise ValueError(f"node {self.page_id} is empty")
        return Rect.bounding([e.rect for e in self._entries])

    def entry_for_child(self, child_id: int) -> int:
        """Index of the entry referencing a given child page id."""
        for i, entry in enumerate(self._entries):
            if entry.ref == child_id:
                return i
        raise KeyError(
            f"node {self.page_id} has no entry for child {child_id}"
        )

    def replace_entry(self, index: int, entry: Entry) -> None:
        """Overwrite the entry at ``index`` (used for MBR adjustments)."""
        self._entries[index] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> dict:
        return {"page_id": self.page_id, "level": self.level,
                "entries": list(self._entries)}

    def __setstate__(self, state: dict) -> None:
        self.page_id = state["page_id"]
        self.level = state["level"]
        self.entries = state["entries"]

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return (f"Node(page={self.page_id}, level={self.level}, "
                f"{kind}, entries={len(self._entries)})")
