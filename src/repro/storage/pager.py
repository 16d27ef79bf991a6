"""A simulated page store.

Each R-tree node occupies exactly one page, as in the paper's analysis
("the expected retrieval cost, in terms of node accesses").  The pager maps
page ids to in-memory node objects and, combined with a
:class:`~repro.storage.buffers.BufferManager` through
:class:`MeteredReader`, yields the NA/DA counters the experiments report.

A page may also be *installed unread* (:meth:`Pager.install`): the pager
keeps the object that can build its payload and builds it on the first
read, once.  A packed tree's pages are installed this way over its
columnar arena (:mod:`repro.rtree.bulk`), so a join that reads only the
arena never makes the node objects; every other method treats an unread
page as present.

``node_capacity`` reproduces the paper's fan-out arithmetic: with 1 Kbyte
pages it yields ``M = 84`` for ``n = 1`` and ``M = 50`` for ``n = 2``,
the exact values used in Section 4.
"""

from __future__ import annotations

from typing import Any, Iterable

from .buffers import BufferManager
from .stats import AccessStats

__all__ = ["Pager", "MeteredReader", "node_capacity", "PAGE_SIZE_1K"]

PAGE_SIZE_1K = 1024

#: Byte sizes matching the paper's fan-out values (4-byte coordinates and
#: pointers, a small fixed page header).
_COORD_BYTES = 4
_POINTER_BYTES = 4
_HEADER_BYTES = 16


def node_capacity(page_size: int, ndim: int,
                  coord_bytes: int = _COORD_BYTES,
                  pointer_bytes: int = _POINTER_BYTES,
                  header_bytes: int = _HEADER_BYTES) -> int:
    """Maximum entries ``M`` per node for a given page size and dimension.

    An entry stores one MBR (``2 * ndim`` coordinates) plus one child
    pointer / object id.  With the defaults and ``page_size = 1024`` this
    returns 84 for ``ndim = 1`` and 50 for ``ndim = 2``, the paper's values.
    """
    if page_size <= header_bytes:
        raise ValueError("page too small for its header")
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    entry_bytes = 2 * ndim * coord_bytes + pointer_bytes
    capacity = (page_size - header_bytes) // entry_bytes
    if capacity < 2:
        raise ValueError(
            f"page size {page_size} holds fewer than 2 entries for "
            f"ndim={ndim}; an R-tree needs fan-out >= 2"
        )
    return capacity


class Pager:
    """In-memory page store with stable integer page ids."""

    def __init__(self, page_size: int = PAGE_SIZE_1K):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self._pages: dict[int, Any] = {}
        #: Installed pages not yet read: page id -> the object whose
        #: ``build(page_id)`` makes the payload.  A source is dropped
        #: with the last of its pages to be read, written or freed.
        self._unread: dict[int, Any] = {}
        self._next_id = 0

    def allocate(self, payload: Any = None) -> int:
        """Reserve a fresh page, optionally storing a payload immediately."""
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = payload
        return page_id

    def write(self, page_id: int, payload: Any) -> None:
        """Store a payload into an allocated page."""
        if page_id not in self:
            raise KeyError(f"page {page_id} was never allocated")
        self._pages[page_id] = payload
        self._unread.pop(page_id, None)

    def put(self, page_id: int, payload: Any) -> None:
        """Install a payload at an explicit page id (deserialisation).

        Creates the page if needed and keeps future :meth:`allocate`
        calls clear of the installed id.
        """
        if page_id < 0:
            raise ValueError("page ids must be non-negative")
        self._pages[page_id] = payload
        self._unread.pop(page_id, None)
        if page_id >= self._next_id:
            self._next_id = page_id + 1

    def install(self, source: Any, page_ids: Iterable[int]) -> None:
        """Install pages whose payloads ``source.build(page_id)`` makes
        on their first read.

        Like :meth:`put`, creates the pages (replacing what they held)
        and keeps future :meth:`allocate` calls clear of their ids.
        """
        for page_id in page_ids:
            if page_id < 0:
                raise ValueError("page ids must be non-negative")
            self._pages.pop(page_id, None)
            self._unread[page_id] = source
            if page_id >= self._next_id:
                self._next_id = page_id + 1

    def read(self, page_id: int) -> Any:
        """Raw, uncounted page read (use :class:`MeteredReader` to count)."""
        try:
            return self._pages[page_id]
        except KeyError:
            return self._first_read(page_id)

    def _first_read(self, page_id: int) -> Any:
        """Build an unread page and keep it.

        Readers on several threads may build one page at once:
        ``setdefault`` keeps the first payload stored and hands it to
        all of them, and the page leaves ``_unread`` only once it is
        stored, so a reader that finds neither raises.
        """
        source = self._unread.get(page_id)
        if source is None:
            try:
                return self._pages[page_id]     # built meanwhile
            except KeyError:
                raise KeyError(f"page {page_id} does not exist") from None
        payload = self._pages.setdefault(page_id, source.build(page_id))
        self._unread.pop(page_id, None)
        return payload

    #: A catalog or maintenance read (tree upkeep, statistics, the
    #: columnar arena): not a ``ReadPage`` of any query, so a pager that
    #: injects faults into :meth:`read` forwards it untouched.
    peek = read

    def free(self, page_id: int) -> None:
        """Release a page (e.g. after an R*-tree node merge); an unread
        page is never built."""
        self._pages.pop(page_id, None)
        self._unread.pop(page_id, None)

    def __len__(self) -> int:
        # A page being built by another thread is counted twice until
        # it leaves ``_unread``.
        return len(self._pages) + len(self._unread)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages or page_id in self._unread

    def __repr__(self) -> str:
        return f"Pager(pages={len(self)}, page_size={self.page_size})"


class MeteredReader:
    """Counted access path to one tree's pages.

    Every :meth:`fetch` consults the buffer manager and records the access
    in the shared :class:`AccessStats` under this reader's tree label; a
    plain :class:`Pager` never *fails* a read, it only prices it (under
    fault injection, use :class:`~repro.reliability.retry.ResilientReader`
    instead).  Roots are pinned in main memory in the paper's setup, so
    tree-traversal code fetches them via :meth:`read_pinned`, which is
    never charged.
    """

    def __init__(self, pager: Pager, label: object,
                 stats: AccessStats, buffer: BufferManager,
                 tracer: Any = None):
        self.pager = pager
        self.label = label
        self.stats = stats
        self.buffer = buffer
        #: Optional :class:`~repro.obs.Tracer`; purely observational —
        #: it is written to, never read, so a traced run's NA/DA are
        #: bit-identical to an untraced one.
        self.tracer = tracer

    def fetch(self, page_id: int, level: int) -> Any:
        """Read a page at a given tree level, recording NA/DA."""
        hit = self.buffer.access(self.label, level, page_id)
        self.stats.record(self.label, level, hit)
        if self.tracer is not None:
            self.tracer.buffer_access(self.label, level, page_id, hit)
        return self.pager.read(page_id)

    def read_pinned(self, page_id: int, level: int = 0) -> Any:
        """Read a memory-pinned page (a root): no NA/DA is charged.

        :class:`~repro.reliability.retry.ResilientReader` overrides this
        to keep pinned reads inside the retry loop under fault injection.
        """
        return self.pager.read(page_id)

    def __repr__(self) -> str:
        return f"MeteredReader(label={self.label!r}, buffer={self.buffer!r})"
