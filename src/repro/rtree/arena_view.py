"""Read-only R-tree facades over a columnar arena.

A parallel-join worker process does not need a mutable R-tree — it
needs exactly what the synchronized traversal touches: a pager that
answers ``read(page_id)``, the pinned root, and the arena the batched
kernels read.  :class:`ArenaTreeView` provides
that over a :class:`~repro.geometry.TreeArena`, materializing ``Node``
objects lazily (only the pages a bucket actually visits) from the
arena's raw float64 coordinates — which rebuild ``Rect``/``Entry``
objects bit-identically to the originals, so NA/DA/pairs match the
serial join exactly.

:class:`ArenaTreeHandle` is the picklable coordinator→worker message:
the shared-memory :class:`~repro.geometry.ArenaHandle` plus the few
scalars of tree metadata the traversal reads (root id, height, ndim,
size).  :func:`share_tree` builds one from a live tree, exporting the
tree's arena into shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Rect, TreeArena
from ..geometry.arena import (ArenaHandle, SharedArena,
                              arena_from_shared_memory,
                              arena_to_shared_memory)
from .entry import Entry
from .node import Node

__all__ = ["ArenaTreeHandle", "ArenaTreeView", "share_tree"]


class _ArenaPager:
    """Materializing pager: ``read(page_id)`` -> cached ``Node``.

    Nodes are built once and cached so repeated reads return the same
    object — the path buffer relies on stable identity.
    """

    __slots__ = ("_arena", "_nodes")

    def __init__(self, arena: TreeArena):
        self._arena = arena
        self._nodes: dict[int, Node] = {}

    def read(self, page_id: int) -> Node:
        node = self._nodes.get(page_id)
        if node is None:
            level, rows = self._arena.materialize(page_id)
            # The arena holds the exact float64 bits of validated
            # rectangles, so this worker-side path skips re-validation.
            entries = [Entry(Rect._trusted(lo, hi), ref)
                       for lo, hi, ref in rows]
            node = Node(page_id, level, entries)
            self._nodes[page_id] = node
        return node


class ArenaTreeView:
    """The read-only tree facade the join traversal runs against."""

    def __init__(self, arena: TreeArena, root_id: int, height: int,
                 ndim: int, size: int):
        self._arena = arena
        self.pager = _ArenaPager(arena)
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
