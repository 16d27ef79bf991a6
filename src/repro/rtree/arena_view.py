"""Nodes built from a columnar arena, and read-only trees over one.

:class:`ArenaPages` is the source of a pager's unread pages
(:meth:`repro.storage.Pager.install`): it builds one page's ``Node``
from the arena's raw float64 coordinates on the page's first read.
The bits are the arena's, so the ``Rect``/``Entry`` objects it makes
equal the originals bit for bit.  A packed tree installs every page
this way (:mod:`repro.rtree.bulk`) and hands it its own ``(rect, oid)``
items for the leaves; a tree read back by :func:`repro.io.load_tree`
installs every page this way too, over the arena it lays out from the
file.

A parallel-join worker process does not need a mutable R-tree — it
needs exactly what the synchronized traversal touches: a pager that
answers ``read(page_id)``, the pinned root, and the arena the batched
kernels read.  :class:`ArenaTreeView` provides that over a
:class:`~repro.geometry.TreeArena`: a :class:`~repro.storage.Pager`
whose pages are all installed unread, so only the pages a bucket
actually visits are built, and NA/DA/pairs match the serial join
exactly.

:class:`ArenaTreeHandle` is the picklable coordinator→worker message:
the shared-memory :class:`~repro.geometry.ArenaHandle` plus the few
scalars of tree metadata the traversal reads (root id, height, ndim,
size).  :func:`share_tree` builds one from a live tree, exporting the
tree's arena into shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..geometry import Rect, TreeArena
from ..geometry.arena import (ArenaHandle, SharedArena,
                              arena_from_shared_memory,
                              arena_to_shared_memory)
from ..storage import Pager
from .entry import Entry
from .node import LEAF_LEVEL, MutationClock, Node

__all__ = ["ArenaPages", "ArenaTreeHandle", "ArenaTreeView", "share_tree"]


class ArenaPages:
    """Builds the ``Node`` of one of an arena's pages, on ``clock``.

    Entries come from the arena's float64 bits (``Rect._trusted``: they
    are the bits of validated rectangles).  With ``leaves``, the
    ``(rect, oid)`` items of the arena's leaf slots in slot order
    (they are its last slots), a leaf's entries hold those rect and
    oid objects instead.  Building ticks no clock: an unread page is
    part of the tree as it stands.
    """

    __slots__ = ("arena", "clock", "leaves")

    def __init__(self, arena: TreeArena, clock: MutationClock,
                 leaves: Sequence[tuple[Rect, int]] | None = None):
        self.arena = arena
        self.clock = clock
        self.leaves = leaves

    def build(self, page_id: int) -> Node:
        offset, count, level = self.arena.index[page_id]
        if level == LEAF_LEVEL and self.leaves is not None:
            start = offset - (self.arena.total - len(self.leaves))
            entries = [Entry(rect, oid) for rect, oid
                       in self.leaves[start:start + count]]
        else:
            entries = [Entry(Rect._trusted(lo, hi), ref) for lo, hi, ref
                       in self.arena.materialize(page_id)[1]]
        return Node(page_id, level, entries, self.clock)


class ArenaTreeView:
    """The read-only tree facade the join traversal runs against."""

    def __init__(self, arena: TreeArena, root_id: int, height: int,
                 ndim: int, size: int):
        self._arena = arena
        self.pager = Pager()
        self.pager.install(ArenaPages(arena, MutationClock()), arena.index)
        self.root_id = root_id
        self.height = height
        self.ndim = ndim
        self.size = size

    def arena(self) -> TreeArena:
        """The attached arena (same accessor as ``RTreeBase.arena``)."""
        return self._arena

    def node(self, page_id: int) -> Node:
        return self.pager.read(page_id)

    def root(self) -> Node:
        return self.pager.read(self.root_id)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (f"ArenaTreeView(ndim={self.ndim}, size={self.size}, "
                f"height={self.height})")


@dataclass(frozen=True)
class ArenaTreeHandle:
    """Picklable stand-in for one tree in a worker submission."""

    arena: ArenaHandle
    root_id: int
    height: int
    ndim: int
    size: int

    def attach(self) -> ArenaTreeView:
        """Attach the shared segment (zero-copy) and wrap it as a tree."""
        return ArenaTreeView(arena_from_shared_memory(self.arena),
                             self.root_id, self.height, self.ndim,
                             self.size)


def share_tree(tree) -> tuple[ArenaTreeHandle, SharedArena]:
    """Export a tree's arena to shared memory.

    Returns the worker-side handle and the coordinator-side lease; the
    caller must :meth:`SharedArena.close` the lease (normally in a
    ``finally``) to unlink the segment.
    """
    shared = arena_to_shared_memory(tree.arena())
    handle = ArenaTreeHandle(shared.handle, tree.root_id, tree.height,
                             tree.ndim, len(tree))
    return handle, shared
