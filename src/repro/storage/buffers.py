"""Buffer managers for the simulated I/O layer.

The paper analyses two regimes and defers a third to future work:

* :class:`NoBuffer` — every ``ReadPage`` is a disk access (the NA metric);
* :class:`PathBuffer` — each tree retains the most recently visited node
  *per level* (i.e. the current root-to-node path); this is the regime the
  DA formulas (Eqs. 8-10, 12) model;
* :class:`LRUBuffer` — a size-``k`` least-recently-used page pool shared by
  both trees; the paper's §5 lists this as future work, and the A1 ablation
  bench measures it.

All managers implement a single method, :meth:`BufferManager.access`, which
registers a ``ReadPage`` of ``(tree, level, node_id)`` and reports whether
it was a buffer hit.  Managers are deliberately ignorant of node contents:
only identity matters for counting.
"""

from __future__ import annotations

import json
from collections import OrderedDict

__all__ = ["BufferManager", "NoBuffer", "PathBuffer", "LRUBuffer",
           "buffer_from_spec"]


def _stable_key(label: object) -> str:
    """Order-defining serialization of a tree label.

    ``str(label)`` is ambiguous — the labels ``2`` and ``"2"`` map to
    the same string, making snapshot row order depend on dict insertion
    order instead of on the labels themselves.  JSON keeps the type
    visible (``2`` vs ``"2"``); labels JSON can't express fall back to
    a type-qualified repr.
    """
    try:
        return json.dumps(label, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        return f"{type(label).__name__}:{label!r}"


class BufferManager:
    """Interface for page-buffer policies.

    ``snapshot``/``restore`` serialize the buffer's content so an
    interrupted traversal can be checkpointed and resumed with the exact
    same hit/miss behaviour (see :mod:`repro.exec.checkpoint`); the
    state is JSON-safe as long as the tree labels are.
    """

    #: Stable identifier stored in checkpoints; a resume must supply a
    #: buffer of the same kind.
    kind = "abstract"

    def access(self, tree: object, level: int, node_id: int) -> bool:
        """Register a page read; return ``True`` on a buffer hit."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all cached pages."""
        raise NotImplementedError

    def snapshot(self) -> object:
        """JSON-safe serialization of the buffer content."""
        raise NotImplementedError

    def restore(self, state: object) -> None:
        """Reinstall a :meth:`snapshot` (replacing current content)."""
        raise NotImplementedError


class NoBuffer(BufferManager):
    """Every read misses: models the bufferless NA metric."""

    kind = "none"

    def access(self, tree: object, level: int, node_id: int) -> bool:
        return False

    def reset(self) -> None:
        pass

    def snapshot(self) -> object:
        return None

    def restore(self, state: object) -> None:
        pass

    def __repr__(self) -> str:
        return "NoBuffer()"


class PathBuffer(BufferManager):
    """Most-recently-visited path per tree, one slot per level.

    Reading a node at some level replaces the slot for that level of that
    tree; deeper slots of the same tree are invalidated (the retained path
    must stay a real root-to-node path, and descending into a different
    subtree makes the old deeper nodes unreachable).  Slots of the *other*
    tree are never touched — each tree owns its own path, exactly the
    "simple path buffer" of the paper.
    """

    kind = "path"

    def __init__(self) -> None:
        self._paths: dict[object, dict[int, int]] = {}

    def access(self, tree: object, level: int, node_id: int) -> bool:
        path = self._paths.setdefault(tree, {})
        if path.get(level) == node_id:
            return True
        path[level] = node_id
        # Invalidate the now-stale deeper part of the path.
        for lv in [lv for lv in path if lv < level]:
            del path[lv]
        return False

    def reset(self) -> None:
        self._paths.clear()

    def snapshot(self) -> object:
        """The retained paths as sorted ``[tree, level, node_id]`` rows."""
        return sorted(
            ([tree, level, node_id]
             for tree, path in self._paths.items()
             for level, node_id in path.items()),
            key=lambda row: (_stable_key(row[0]), row[1]))

    def restore(self, state: object) -> None:
        self._paths.clear()
        for tree, level, node_id in state or []:
            self._paths.setdefault(tree, {})[int(level)] = node_id

    def cached(self, tree: object) -> dict[int, int]:
        """Current path of a tree (level -> node id), for inspection."""
        return dict(self._paths.get(tree, {}))

    def __repr__(self) -> str:
        return f"PathBuffer(trees={list(self._paths)})"


class LRUBuffer(BufferManager):
    """A classic LRU page pool of fixed capacity, shared by all trees.

    Capacity is in *pages* (nodes).  A capacity of zero degenerates to
    :class:`NoBuffer`.
    """

    kind = "lru"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._pool: OrderedDict[tuple[object, int], None] = OrderedDict()

    def access(self, tree: object, level: int, node_id: int) -> bool:
        if self.capacity == 0:
            return False
        key = (tree, node_id)
        if key in self._pool:
            self._pool.move_to_end(key)
            return True
        self._pool[key] = None
        if len(self._pool) > self.capacity:
            self._pool.popitem(last=False)
        return False

    def reset(self) -> None:
        self._pool.clear()

    def snapshot(self) -> object:
        """Pool content as ``[tree, node_id]`` rows, LRU-first order."""
        return [[tree, node_id] for tree, node_id in self._pool]

    def restore(self, state: object) -> None:
        self._pool.clear()
        for tree, node_id in state or []:
            self._pool[(tree, node_id)] = None

    def __len__(self) -> int:
        return len(self._pool)

    def __repr__(self) -> str:
        return f"LRUBuffer(capacity={self.capacity}, used={len(self._pool)})"


def buffer_from_spec(spec) -> BufferManager:
    """The buffer a ``none | path | lru:<k>`` spec names (``k >= 1``).

    The one reading of the spec: ``repro join --buffer`` and the
    daemon's ``buffer`` request field both come here, so they accept
    and refuse the same strings.  ``spec`` arrives from outside the
    program (it may not even be a string); what is wrong with it is
    the ``ValueError``'s message.
    """
    if spec == "none":
        return NoBuffer()
    if spec == "path":
        return PathBuffer()
    if not isinstance(spec, str) or not spec.startswith("lru:"):
        raise ValueError(
            f"unknown buffer spec {spec!r} (use 'none', 'path', 'lru:<k>')")
    try:
        pages = int(spec[4:])
    except ValueError:
        raise ValueError(
            f"bad lru buffer spec {spec!r}: "
            f"'lru:' needs an integer page count") from None
    if pages < 1:
        raise ValueError("lru buffer needs at least one page")
    return LRUBuffer(pages)
