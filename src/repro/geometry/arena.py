"""Tree-wide columnar MBR arena and its shared-memory transport.

The arena is the one columnar copy of a tree: a single contiguous
``(2, ndim, total)`` float64 NumPy block for *every* node's entry MBRs,
plus an index table (node id → offset, count, level) — the
struct-of-arrays layout the SIMD-ified R-tree work keeps its kernels
hot with (PAPERS.md, arXiv 2309.16913).  A node's view
(:meth:`TreeArena.slice`) is a zero-copy pair of transposed slices
``block[corner, :, off:end]``.  The ``Rect`` objects stay the source
of truth, and every tree has an arena: it is built from uncounted node
reads, which fault injection never fails.

Because coordinates are stored as raw float64 (the exact bits of the
``Rect`` tuples they came from), every kernel result over an arena
slice is bit-identical to the scalar predicates over those tuples.

The same property makes the arena the unit of *transport* for process
parallelism: :func:`arena_to_shared_memory` copies the block once into
a ``multiprocessing.shared_memory`` segment, and workers attach
zero-copy via :func:`arena_from_shared_memory` instead of unpickling a
private tree copy ("Parallel In-Memory Spatial Joins", arXiv
1908.11740: shared read-only geometry is what makes these joins
scale).  The coordinator-side :class:`SharedArena` lease guarantees
the segment is unlinked on normal return, on error, and — through an
``atexit`` backstop — on abnormal interpreter teardown.
"""

from __future__ import annotations

import atexit
import uuid
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .columnar import ColumnarMBRs

__all__ = ["ArenaHandle", "SHM_PREFIX", "SharedArena", "TreeArena",
           "arena_from_shared_memory", "arena_to_shared_memory"]

#: Prefix of every shared-memory segment this module creates.  CI's
#: leak guard greps ``/dev/shm`` for it after the test suites run.
SHM_PREFIX = "repro_arena_"

_COORD_BYTES = 8        # float64
_REF_BYTES = 8          # int64


class TreeArena:
    """One contiguous columnar block for every node of one R-tree.

    Layout: corner-major (lo block then hi block), dimension-major
    within a corner, entry-slot-minor — so the per-dimension column of
    one node is a contiguous run.

    Instances are immutable snapshots of the tree at build time;
    staleness tracking lives with the owner
    (:meth:`repro.rtree.RTreeBase.arena` checks the mutation-counting
    ``_EntryList`` versions it snapshotted at build).
    """

    __slots__ = ("ndim", "total", "index", "_coords", "_refs", "_shm",
                 "_page_table", "_node_mbrs")

    def __init__(self, ndim: int, total: int,
                 index: dict[int, tuple[int, int, int]],
                 coords, refs, shm=None):
        self.ndim = ndim
        self.total = total
        self.index = index              # page_id -> (offset, count, level)
        self._coords = coords
        self._refs = refs
        self._shm = shm
        self._page_table = None         # built on first use, see below
        self._node_mbrs = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, nodes: Iterable, ndim: int) -> "TreeArena":
        """Snapshot an iterable of nodes (``page_id``/``level``/``entries``).

        Empty nodes (an empty leaf root) get an index entry with
        ``count == 0`` and no coordinate slots.
        """
        index: dict[int, tuple[int, int, int]] = {}
        rects = []
        refs: list[int] = []
        offset = 0
        for node in nodes:
            entries = node.entries
            count = len(entries)
            index[node.page_id] = (offset, count, node.level)
            for entry in entries:
                rects.append(entry.rect)
                refs.append(entry.ref)
            offset += count
        total = offset
        coords = np.empty((2, ndim, total), dtype=np.float64)
        for k in range(ndim):
            coords[0, k, :] = [r.lo[k] for r in rects]
            coords[1, k, :] = [r.hi[k] for r in rects]
        return cls(ndim, total, index, coords,
                   np.array(refs, dtype=np.int64))

    # -- views -------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of one shared-memory export (coords + refs)."""
        return (2 * self.ndim * _COORD_BYTES + _REF_BYTES) * self.total

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.index

    def __len__(self) -> int:
        return len(self.index)

    def slice(self, page_id: int) -> ColumnarMBRs:
        """Zero-copy :class:`ColumnarMBRs` view of one node's entries."""
        offset, count, _level = self.index[page_id]
        if count == 0:
            raise ValueError(f"node {page_id} has no entries")
        return ColumnarMBRs(count, self.ndim,
                            self._coords[0, :, offset:offset + count].T,
                            self._coords[1, :, offset:offset + count].T)

    def materialize(self, page_id: int,
                    ) -> tuple[int, list[tuple[tuple, tuple, int]]]:
        """``(level, [(lo, hi, ref), ...])`` of one node, as plain data.

        Coordinates come back as tuples of Python floats — the exact
        bits the arena stored — so rebuilding ``Rect``/``Entry``
        objects from them round-trips bit-identically.
        """
        offset, count, level = self.index[page_id]
        if count == 0:
            return level, []
        lo, hi = self._coords[:, :, offset:offset + count].tolist()
        refs = self._refs[offset:offset + count].tolist()
        return level, list(zip(zip(*lo), zip(*hi), refs))

    # -- tables derived from the snapshot ------------------------------------
    #
    # Built on first use and kept: the snapshot never changes, so every
    # join over it (each bucket of a parallel worker included) shares one
    # copy.  Both derive from ``index`` and ``_coords`` alone, so an
    # arena attached from shared memory builds its own and nothing is
    # added to the segment or the handle.

    @property
    def page_table(self):
        """Dense ``(offset, count)`` int64 arrays indexed by page id,
        zero where the tree has no such page: what a vectorized gather
        of many nodes' runs looks up."""
        if self._page_table is None:
            pages = np.fromiter(self.index, np.int64, len(self.index))
            rows = np.array(list(self.index.values()),
                            dtype=np.int64).reshape(-1, 3)
            table = np.zeros((2, int(pages.max(initial=0)) + 1),
                             dtype=np.int64)
            table[:, pages] = rows[:, :2].T
            self._page_table = table[0], table[1]
        return self._page_table

    @property
    def node_mbrs(self):
        """Every node's MBR as one ``(2, ndim, pages)`` float64 block
        indexed by page id (corner-major like the arena itself).

        ``min``/``max`` are exact, so column ``p`` holds the bits of
        ``Node.mbr()`` of page ``p``.  An empty node (only a root can
        be one) and an unused page id read NaN, which fails every
        comparison of the predicate kernels.
        """
        if self._node_mbrs is None:
            offset, count = self.page_table
            pages = np.nonzero(count)[0]
            # A node's run ends where the next one starts: the runs of
            # the non-empty nodes tile the arena.
            pages = pages[np.argsort(offset[pages])]
            starts = offset[pages]
            mbrs = np.full((2, self.ndim, len(offset)), np.nan)
            mbrs[0][:, pages] = np.minimum.reduceat(
                self._coords[0], starts, axis=1)
            mbrs[1][:, pages] = np.maximum.reduceat(
                self._coords[1], starts, axis=1)
            self._node_mbrs = mbrs
        return self._node_mbrs

    def __repr__(self) -> str:
        return (f"TreeArena(nodes={len(self.index)}, "
                f"entries={self.total}, ndim={self.ndim})")


@dataclass(frozen=True)
class ArenaHandle:
    """Everything a worker needs to attach an arena: the segment name
    plus the plain-data index table.  Small and picklable — this is
    what crosses the process boundary instead of a tree."""

    segment: str
    ndim: int
    total: int
    #: ``(page_id, offset, count, level)`` rows.
    index: tuple[tuple[int, int, int, int], ...]


#: Segments created by this process that are not yet unlinked.  The
#: atexit hook sweeps whatever is left so an abnormal teardown (an
#: uncaught error past the joins, ``sys.exit`` mid-run) cannot strand
#: segments in ``/dev/shm``.
_LIVE_SEGMENTS: dict[str, object] = {}


def _sweep_live_segments() -> None:
    for name in list(_LIVE_SEGMENTS):
        shm = _LIVE_SEGMENTS.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
        except BufferError:        # a view is still alive; unlink anyway
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


atexit.register(_sweep_live_segments)


class SharedArena:
    """Coordinator-side lease on one exported arena segment.

    Owns the created ``SharedMemory`` and guarantees exactly-once
    unlink: :meth:`close` is idempotent, callers run it in ``finally``,
    and anything not closed by interpreter exit is swept by the module
    ``atexit`` hook.
    """

    def __init__(self, handle: ArenaHandle, shm):
        self.handle = handle
        self._shm = shm
        _LIVE_SEGMENTS[handle.segment] = shm

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        _LIVE_SEGMENTS.pop(self.handle.segment, None)
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def arena_to_shared_memory(arena: TreeArena,
                           name: str | None = None) -> SharedArena:
    """Copy an arena into a fresh shared-memory segment, once.

    Returns the coordinator's :class:`SharedArena` lease; its
    ``handle`` is the picklable value shipped to workers.
    """
    from multiprocessing import shared_memory

    coords_bytes = 2 * arena.ndim * _COORD_BYTES * arena.total
    refs_bytes = _REF_BYTES * arena.total
    size = max(coords_bytes + refs_bytes, 1)
    if name is None:
        name = SHM_PREFIX + uuid.uuid4().hex[:16]
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    if arena.total:
        shm.buf[0:coords_bytes] = arena._coords.tobytes()
        shm.buf[coords_bytes:coords_bytes + refs_bytes] = \
            arena._refs.tobytes()
    handle = ArenaHandle(
        shm.name, arena.ndim, arena.total,
        tuple((page_id, offset, count, level)
              for page_id, (offset, count, level)
              in arena.index.items()))
    return SharedArena(handle, shm)


def arena_from_shared_memory(handle: ArenaHandle) -> TreeArena:
    """Attach to an exported arena, zero-copy.

    The segment is *not* registered with the attaching process's
    ``resource_tracker``: unlink belongs to the coordinator alone.
    Registering on attach is the classic ``SharedMemory`` footgun
    (bpo-39959) — under ``spawn`` the attacher's tracker would unlink
    the segment when the worker exits, and under ``fork`` the shared
    tracker's cache is a set, so any attach-side unregister would eat
    the coordinator's own registration.  Python 3.13 grew
    ``track=False`` for exactly this; on older interpreters the
    registration call is suppressed for the duration of the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    class _AttachedSegment(shared_memory.SharedMemory):
        # The zero-copy views below keep exported pointers into the
        # buffer for the arena's whole lifetime; the stock close() (run
        # by __del__ at teardown) raises BufferError over them.
        # Attach-side close may safely do nothing: process exit unmaps,
        # and unlink is the coordinator's job.
        def close(self):
            try:
                super().close()
            except BufferError:
                pass

    original_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = _AttachedSegment(name=handle.segment)
    finally:
        resource_tracker.register = original_register
    ndim, total = handle.ndim, handle.total
    coords_bytes = 2 * ndim * _COORD_BYTES * total
    index = {page_id: (offset, count, level)
             for page_id, offset, count, level in handle.index}
    coords = np.frombuffer(shm.buf, dtype=np.float64,
                           count=2 * ndim * total)
    coords = coords.reshape(2, ndim, total)
    refs = np.frombuffer(shm.buf, dtype=np.int64,
                         offset=coords_bytes, count=total)
    return TreeArena(ndim, total, index, coords, refs, shm=shm)
