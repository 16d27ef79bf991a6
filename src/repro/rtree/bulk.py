"""Bulk loading (packing) of R-trees.

Two packers are provided:

* :func:`str_pack` — Sort-Tile-Recursive [Leutenegger et al.]: recursively
  slices the data into slabs per dimension, producing grid-like leaves;
* :func:`hilbert_pack` — Kamel-Faloutsos packing [KF93]: orders rectangle
  centers along the Hilbert curve and fills nodes sequentially.

Both return a fully functional :class:`~repro.rtree.rstar.RStarTree`, so a
packed tree still supports later inserts and deletes with R* policies.  The
``fill`` parameter controls target node utilisation; the default 0.67
matches the average capacity ``c`` the paper's cost model assumes, making
packed trees a drop-in substrate for model-validation experiments (the A2
ablation compares them against insertion-built trees).

Both pack one level at a time in arrays.  A level's rectangles are one
``(2, ndim, n)`` float64 corner block and their centres ``(lo + hi) /
2.0``, the operations of ``Rect.center``; the packing order is a stable
``argsort`` (of the centres per STR slab, of the centres' Hilbert keys),
which orders finite keys as Python's stable ``sorted`` does; the nodes'
rectangles one level up are one exact segmented min/max
(:func:`~repro.geometry.columnar.segment_bounds`), ``Node.mbr()`` bit for
bit.  The tree's arena is laid out breadth-first from the same blocks and
installed, so ``tree.arena()`` after packing builds nothing: it equals
``TreeArena.build`` over the nodes byte for byte.

Packing makes no ``Entry``, ``Node`` or ``Rect``.  Page ids are allocated
in the order the nodes used to be, and every page is installed unread
(:meth:`~repro.storage.Pager.install`) over the arena: a page's node is
built on its first read, its leaf entries from the caller's own
``(rect, oid)`` objects, the entries above from the arena's bits
(:class:`~repro.rtree.arena_view.ArenaPages`).  A join that reads only
the arena builds the two roots; an insert or a delete builds the path it
reads and ticks the tree's clock like any other.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from ..geometry import Rect, TreeArena
from ..geometry.arena import run_slots
from ..geometry.columnar import segment_bounds
from ..storage import Pager
from .arena_view import ArenaPages
from .hilbert import hilbert_keys
from .node import LEAF_LEVEL
from .rstar import RStarTree

__all__ = ["str_pack", "hilbert_pack"]


def str_pack(items: Sequence[tuple[Rect, int]], ndim: int,
             max_entries: int, fill: float = 0.67,
             min_fill: float = 0.4, pager: Pager | None = None,
             ) -> RStarTree:
    """Build an R-tree with Sort-Tile-Recursive packing.

    Each level is cut into ``ceil(pages ** (1 / ndim))`` slabs by centre
    along the first axis, each slab recursively along the next, and the
    last axis into runs of ``round(fill * max_entries)`` entries.  Sorts
    are stable, so tied centres keep the input order.  The tree comes
    with its arena installed.
    """
    return _pack(items, ndim, max_entries, fill, min_fill, pager,
                 _str_order)


def hilbert_pack(items: Sequence[tuple[Rect, int]], ndim: int,
                 max_entries: int, fill: float = 0.67,
                 min_fill: float = 0.4, pager: Pager | None = None,
                 ) -> RStarTree:
    """Build an R-tree by Hilbert-ordering centers and packing in order.

    Each level is ordered by the Hilbert key of its centres
    (:func:`~repro.rtree.hilbert.hilbert_index_float`, ties in input
    order) and cut into runs of ``round(fill * max_entries)`` entries.
    The tree comes with its arena installed.
    """
    return _pack(items, ndim, max_entries, fill, min_fill, pager,
                 _hilbert_order)


def _pack(items: Sequence[tuple[Rect, int]], ndim: int, max_entries: int,
          fill: float, min_fill: float, pager: Pager | None,
          order) -> RStarTree:
    if not 0.0 < fill <= 1.0:
        raise ValueError("fill must be in (0, 1]")
    tree = RStarTree(ndim, max_entries, min_fill, pager)
    if not items:
        tree._adopt_arena(_layout(ndim, [_root_level(
            tree.root_id, np.empty((2, ndim, 0)), np.empty(0, np.int64))])[0])
        return tree

    capacity = max(2, round(fill * max_entries), tree.min_entries)

    lo = [rect.lo for rect, _oid in items]
    if set(map(len, lo)) != {ndim}:
        raise ValueError("item dimensionality mismatch")
    coords = np.empty((2, ndim, len(lo)))
    for corner, column in enumerate((lo, [rect.hi for rect, _oid in items])):
        coords[corner] = np.fromiter(chain.from_iterable(column), float,
                                     len(lo) * ndim).reshape(-1, ndim).T
    refs = np.array([oid for _rect, oid in items], dtype=np.int64)

    # Free the placeholder empty root created by the RTreeBase constructor
    # (never read, so never built).
    tree.pager.free(tree.root_id)

    levels = []
    level = LEAF_LEVEL
    while True:
        if (len(refs) <= max_entries and level > LEAF_LEVEL) \
                or len(refs) <= capacity:
            # The surviving entries fit into a single root node (at the
            # leaves: a small data set).
            tree.root_id = tree.pager.allocate()
            levels.append(_root_level(tree.root_id, coords, refs))
            break
        perm, sizes = order((coords[0] + coords[1]) / 2.0, capacity)
        sizes = np.array(_fix_tail(sizes, tree.min_entries), np.intp)
        starts = np.cumsum(sizes) - sizes
        pages = np.array([tree.pager.allocate() for _ in range(len(sizes))],
                         dtype=np.int64)
        levels.append((perm, starts, sizes, pages, coords, refs))
        if len(pages) == 1:
            # _fix_tail merged the level into one run: that node is the
            # root, not the one entry of a root above it.
            tree.root_id = int(pages[0])
            break
        coords = segment_bounds(coords[:, :, perm], starts)
        refs = pages
        level += 1

    tree.height = level
    tree.size = len(items)
    arena, leaf_items = _layout(ndim, levels)
    # The pages are built on first read (the arena's bits above the
    # leaves, the caller's own rect and oid objects in them).
    tree.pager.install(ArenaPages(arena, tree.clock, [
        items[i] for i in leaf_items.tolist()]), arena.index)
    tree._adopt_arena(arena)
    return tree


def _root_level(page_id: int, coords, refs) -> tuple:
    """The level record of a root holding the level's entries in their
    order (see :func:`_layout`)."""
    count = len(refs)
    return (np.arange(count), np.zeros(1, np.intp),
            np.array([count], np.intp), np.array([page_id], np.int64),
            coords, refs)


def _runs(count: int, capacity: int) -> list[int]:
    """Sizes of ``count`` entries cut into runs of ``capacity``."""
    full, rest = divmod(count, capacity)
    return [capacity] * full + ([rest] if rest else [])


def _str_order(centres, capacity: int):
    """Sort-Tile-Recursive order of the columns of ``centres``
    (``(ndim, n)``) and the sizes of its runs, slab by slab."""
    ndim = len(centres)
    pieces: list = []
    sizes: list[int] = []

    def tile(idx, dim: int) -> None:
        idx = idx[np.argsort(centres[dim, idx], kind="stable")]
        if dim == ndim - 1:
            pieces.append(idx)
            sizes.extend(_runs(len(idx), capacity))
            return
        pages = math.ceil(len(idx) / capacity)
        slabs = math.ceil(pages ** (1.0 / (ndim - dim)))
        slab_size = math.ceil(len(idx) / slabs)
        for i in range(0, len(idx), slab_size):
            tile(idx[i:i + slab_size], dim + 1)

    tile(np.arange(centres.shape[1]), 0)
    return np.concatenate(pieces), sizes


def _hilbert_order(centres, capacity: int):
    """Hilbert order of the columns of ``centres`` and its run sizes."""
    return (np.argsort(hilbert_keys(centres), kind="stable"),
            _runs(centres.shape[1], capacity))


def _fix_tail(sizes: list[int], min_entries: int) -> list[int]:
    """Rebalance undersized runs against their predecessor.

    Packing can leave a run below the tree's minimum fill (the last of
    each STR slab, the last of a Hilbert level); merging it with the
    previous run and re-splitting evenly keeps every node legal without
    disturbing the packing order.
    """
    out: list[int] = []
    for size in sizes:
        if size >= min_entries or not out:
            out.append(size)
            continue
        merged = out.pop() + size
        half = merged // 2
        if half >= min_entries:
            out.extend((half, merged - half))
        else:
            out.append(merged)
    return out


def _layout(ndim: int, levels: list[tuple]) -> tuple[TreeArena, np.ndarray]:
    """The arena of a packed tree, breadth-first as ``TreeArena.build``
    walks ``tree.nodes()``, and the index into the leaf level's entries
    (the input items) of each of its leaf slots, in slot order.

    ``levels`` runs from the leaves up; each record is ``(perm, starts,
    sizes, pages, coords, refs)``: node ``k`` of the level is page
    ``pages[k]`` and holds the level's entries ``perm[starts[k]:
    starts[k] + sizes[k]]``, whose corners and refs are ``coords`` and
    ``refs``.  Entry ``i`` of a level above the leaves is node ``i`` of
    the level below, so the slots of one level, in breadth-first order,
    are the breadth-first order of the nodes below it.
    """
    # Filled in place: a gathered block keeps the gather's strides, and
    # the kernels read the arena C-contiguous, as ``TreeArena.build``
    # lays it out.  Every entry of every level has one slot.
    total = sum(len(refs) for *_rest, refs in levels)
    all_coords = np.empty((2, ndim, total))
    all_refs = np.empty(total, np.int64)
    index: dict[int, tuple[int, int, int]] = {}
    offset = 0
    nodes = np.zeros(1, np.intp)        # the root level's one node
    for level, (perm, starts, sizes, pages, coords, refs) in zip(
            range(len(levels), 0, -1), reversed(levels)):
        counts = sizes[nodes]
        slots = perm[run_slots(starts[nodes], counts)]
        firsts = offset + np.cumsum(counts) - counts
        for page, first, count in zip(pages[nodes].tolist(),
                                      firsts.tolist(), counts.tolist()):
            index[page] = (first, count, level)
        end = offset + len(slots)
        all_coords[:, :, offset:end] = coords[:, :, slots]
        all_refs[offset:end] = refs[slots]
        offset = end
        nodes = slots
    return TreeArena(ndim, total, index, all_coords, all_refs), nodes
