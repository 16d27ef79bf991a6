"""The R-tree base class: storage, search, insertion and deletion.

Concrete variants plug in their policies:

* :class:`~repro.rtree.guttman.GuttmanRTree` — Guttman's original insert
  (least-enlargement subtree choice, linear or quadratic split) [Gut84];
* :class:`~repro.rtree.rstar.RStarTree` — the R*-tree [BKSS90] used by the
  paper's experiments (overlap-aware subtree choice, margin-driven split,
  forced reinsertion);
* :mod:`~repro.rtree.bulk` — packed trees (STR, Hilbert) built without
  insertion.

Levels follow the paper: leaves at level 1, root at level ``h``.  The root
is pinned in main memory, so counted traversals never charge it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from ..geometry import Rect, TreeArena
from ..geometry.columnar import first_least
from ..storage import MeteredReader, Pager
from .entry import Entry
from .node import LEAF_LEVEL, MutationClock, Node

__all__ = ["RTreeBase", "LevelStats"]


class LevelStats:
    """Measured per-level aggregates of a built tree.

    ``count`` is the number of nodes at the level, ``avg_extents`` the mean
    side length of node MBRs per dimension, and ``density`` the summed node
    MBR area (the measured counterpart of the model's ``D_j``).  Used to
    validate Eqs. 3-5 against reality and to drive the "measured-parameter"
    variant of the cost model.
    """

    def __init__(self, count: int, avg_extents: tuple[float, ...],
                 density: float):
        self.count = count
        self.avg_extents = avg_extents
        self.density = density

    def __repr__(self) -> str:
        ext = ", ".join(f"{e:.4f}" for e in self.avg_extents)
        return (f"LevelStats(count={self.count}, avg_extents=({ext}), "
                f"density={self.density:.4f})")


class _EmptyLeaf:
    """Builds a new tree's first root, an empty leaf on the tree's
    clock (the source of an unread page, see ``Pager.install``)."""

    __slots__ = ("clock",)

    def __init__(self, clock: MutationClock):
        self.clock = clock

    def build(self, page_id: int) -> Node:
        return Node(page_id, LEAF_LEVEL, None, self.clock)


class RTreeBase:
    """Common machinery of all dynamic R-tree variants.

    Parameters
    ----------
    ndim:
        Dimensionality of the indexed rectangles.
    max_entries:
        Node capacity ``M`` (entries per page); see
        :func:`repro.storage.node_capacity` for page-size-derived values.
    min_fill:
        Minimum node utilisation as a fraction of ``M`` (Guttman's ``m``);
        clamped to ``M // 2`` as the classic algorithms require.
    pager:
        Optional externally supplied page store.
    """

    def __init__(self, ndim: int, max_entries: int,
                 min_fill: float = 0.4, pager: Pager | None = None):
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.ndim = ndim
        self.max_entries = max_entries
        self.min_entries = max(1, min(int(min_fill * max_entries),
                                      max_entries // 2))
        self.pager = pager if pager is not None else Pager()
        #: Shared by every node of the tree (see :meth:`_refresh`).
        self.clock = MutationClock()
        # The first root, an empty leaf, is built on its first read, so
        # a packer or loader that replaces it frees it unbuilt.
        self.root_id = self.pager.allocate()
        self.pager.install(_EmptyLeaf(self.clock), (self.root_id,))
        self.height = 1
        self.size = 0
        self._arena: TreeArena | None = None
        self._derived: dict = {}
        self._derived_at = self.clock.ticks

    # -- node access ---------------------------------------------------------

    def node(self, page_id: int) -> Node:
        """Uncounted node read (tree maintenance; use readers to count).

        Not a ``ReadPage``: it goes through the pager's ``peek``, which
        a fault-injecting pager never fails.
        """
        return self.pager.peek(page_id)

    def root(self) -> Node:
        """The root node (pinned in memory, never counted)."""
        return self.node(self.root_id)

    def _new_node(self, level: int, entries: list[Entry] | None = None,
                  ) -> Node:
        """A node on a fresh page of this tree, on the tree's clock."""
        node = Node(self.pager.allocate(), level, entries, self.clock)
        self.pager.write(node.page_id, node)
        return node

    # -- policy hooks (overridden by concrete variants) -----------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        """Index of the entry of ``node`` to descend for ``rect``."""
        raise NotImplementedError

    def _split_entries(self, entries: list[Entry],
                       level: int) -> tuple[list[Entry], list[Entry]]:
        """Partition an overflowing entry list into two groups."""
        raise NotImplementedError

    def _handle_overflow(self, path: list[Node],
                         indices: list[int]) -> None:
        """React to ``path[-1]`` holding ``M + 1`` entries.

        The default policy splits immediately; the R*-tree overrides this
        to attempt forced reinsertion first.
        """
        self._split_node(path, indices)

    @staticmethod
    def _least_area_enlargement(node: Node, rect: Rect) -> int:
        """Guttman's ChooseLeaf criterion: the entry needing the least
        area enlargement to hold ``rect`` (ties: the smaller area)."""
        return first_least(RTreeBase._area_keys(node, rect))

    @staticmethod
    def _area_keys(node: Node, rect: Rect) -> list[tuple[float, float]]:
        """Per entry of ``node``, ``(area enlargement to hold rect,
        area)``: read off the corners — ``Rect.enlargement`` bit for
        bit, without a union rectangle per entry.
        """
        keys = []
        for entry in node.entries:
            area = grown = 1.0
            for a, b, c, d in zip(entry.rect.lo, entry.rect.hi,
                                  rect.lo, rect.hi):
                area *= b - a
                grown *= (d if d > b else b) - (c if c < a else a)
            keys.append((grown - area, area))
        return keys

    # -- insertion -------------------------------------------------------------

    def insert(self, rect: Rect, oid: int) -> None:
        """Insert one data rectangle with its object id."""
        self._check_rect(rect)
        self._begin_insert()
        self._insert_entry(Entry(rect, oid), LEAF_LEVEL)
        self.size += 1

    def extend(self, items: Iterable[tuple[Rect, int]]) -> None:
        """Insert many ``(rect, oid)`` pairs."""
        for rect, oid in items:
            self.insert(rect, oid)

    def _begin_insert(self) -> None:
        """Hook called once per top-level ``insert`` (R* resets its
        per-operation reinsertion bookkeeping here)."""

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        path, indices = self._choose_path(entry.rect, target_level)
        node = path[-1]
        node.entries.append(entry)
        self._grow_path(path, indices, entry.rect)
        if len(node.entries) > self.max_entries:
            self._handle_overflow(path, indices)

    def _choose_path(self, rect: Rect,
                     target_level: int) -> tuple[list[Node], list[int]]:
        """Descend from the root to a node at ``target_level``.

        Returns the node path and, for each non-terminal path node, the
        index of the entry that was followed.
        """
        if target_level > self.height:
            raise ValueError(
                f"target level {target_level} above root ({self.height})"
            )
        node = self.root()
        path = [node]
        indices: list[int] = []
        while node.level > target_level:
            i = self._choose_subtree(node, rect)
            indices.append(i)
            node = self.node(node.entries[i].ref)
            path.append(node)
        return path, indices

    def _grow_path(self, path: list[Node], indices: list[int],
                   rect: Rect) -> None:
        """Widen the path's entries, bottom-up, to hold ``rect`` just
        appended to ``path[-1]``; stop at the first that already holds it.

        Each entry becomes ``old.union(rect)``, bit for bit the
        ``Node.mbr()`` :meth:`_adjust_path` would compute, given that
        every entry is its child's ``Node.mbr()`` (insertion, deletion,
        the packers and ``load_tree`` keep it so): an entry's
        corners are the first-seen ``min``/``max`` over its subtree, and
        ``union`` keeps its first argument on ties.  The one tie between
        different bits is ``0.0`` against ``-0.0``, and which of them is
        seen first depends on where ``rect`` sits in the subtree, so a
        rectangle with a zero coordinate is re-bounded instead.
        """
        if 0.0 in rect.lo or 0.0 in rect.hi:
            self._adjust_path(path, indices)
            return
        for depth in range(len(indices) - 1, -1, -1):
            parent = path[depth]
            i = indices[depth]
            old = parent.entries[i]
            if old.rect.contains(rect):
                return
            parent.entries[i] = Entry(old.rect.union(rect), old.ref)

    def _adjust_path(self, path: list[Node], indices: list[int]) -> None:
        """Recompute parent entry MBRs bottom-up along a path, each from
        all of its node's entries (after entries left a node, and for a
        rectangle :meth:`_grow_path` cannot add exactly)."""
        for depth in range(len(indices) - 1, -1, -1):
            parent = path[depth]
            child = path[depth + 1]
            i = indices[depth]
            parent.entries[i] = Entry(child.mbr(), child.page_id)

    def _split_node(self, path: list[Node], indices: list[int]) -> None:
        node = path[-1]
        group1, group2 = self._split_entries(node.entries, node.level)
        if (len(group1) < self.min_entries
                or len(group2) < self.min_entries):
            raise AssertionError(
                "split policy violated the minimum fill requirement"
            )
        node.entries = group1
        sibling = self._new_node(node.level, group2)

        if node.page_id == self.root_id:
            new_root = self._new_node(node.level + 1, [
                Entry(node.mbr(), node.page_id),
                Entry(sibling.mbr(), sibling.page_id),
            ])
            self.root_id = new_root.page_id
            self.height = new_root.level
            return

        parent = path[-2]
        i = indices[-1]
        parent.entries[i] = Entry(node.mbr(), node.page_id)
        parent.entries.append(Entry(sibling.mbr(), sibling.page_id))
        self._adjust_path(path[:-1], indices[:-1])
        if len(parent.entries) > self.max_entries:
            self._handle_overflow(path[:-1], indices[:-1])

    # -- deletion ----------------------------------------------------------------

    def delete(self, rect: Rect, oid: int) -> bool:
        """Remove one data entry; returns ``False`` when it is absent.

        Implements Guttman's CondenseTree: under-full nodes along the
        deletion path are dissolved and their entries reinserted at their
        original level; a root left with a single child is cut.
        """
        self._check_rect(rect)
        found = self._find_leaf(self.root(), rect, oid, [self.root()], [])
        if found is None:
            return False
        path, indices, entry_index = found
        leaf = path[-1]
        del leaf.entries[entry_index]
        self.size -= 1

        orphans: list[tuple[Entry, int]] = []
        self._condense(path, indices, orphans)
        for entry, level in orphans:
            self._begin_insert()
            self._insert_entry(entry, level)
        self._cut_root()
        return True

    def _find_leaf(self, node: Node, rect: Rect, oid: int,
                   path: list[Node], indices: list[int],
                   ) -> tuple[list[Node], list[int], int] | None:
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if entry.ref == oid and entry.rect == rect:
                    return path, indices, i
            return None
        for i, entry in enumerate(node.entries):
            if entry.rect.contains(rect):
                child = self.node(entry.ref)
                hit = self._find_leaf(child, rect, oid,
                                      path + [child], indices + [i])
                if hit is not None:
                    return hit
        return None

    def _condense(self, path: list[Node], indices: list[int],
                  orphans: list[tuple[Entry, int]]) -> None:
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            i = indices[depth - 1]
            if len(node.entries) < self.min_entries:
                del parent.entries[i]
                self.pager.free(node.page_id)
                orphans.extend((e, node.level) for e in node.entries)
            else:
                parent.entries[i] = Entry(node.mbr(), node.page_id)

    def _cut_root(self) -> None:
        root = self.root()
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].ref
            self.pager.free(root.page_id)
            self.root_id = child_id
            root = self.root()
            self.height = root.level
        if root.is_leaf:
            self.height = LEAF_LEVEL

    # -- search ------------------------------------------------------------------

    def range_query(self, window: Rect,
                    reader: MeteredReader | None = None) -> list[int]:
        """Object ids whose rectangles overlap ``window``.

        With a :class:`MeteredReader`, every node visit below the root is
        charged at its level — the measured counterpart of Eq. 1.
        """
        self._check_rect(window)
        results: list[int] = []
        self._search(self.root(), window, results, reader)
        return results

    def _search(self, node: Node, window: Rect, results: list[int],
                reader: MeteredReader | None) -> None:
        for entry in node.entries:
            if not entry.rect.intersects(window):
                continue
            if node.is_leaf:
                results.append(entry.ref)
            else:
                if reader is not None:
                    child = reader.fetch(entry.ref, node.level - 1)
                else:
                    child = self.node(entry.ref)
                self._search(child, window, results, reader)

    def count_range(self, window: Rect) -> int:
        """Number of data rectangles overlapping ``window``."""
        return len(self.range_query(window))

    # -- columnar arena -------------------------------------------------------------

    def arena(self) -> TreeArena:
        """The tree-wide columnar arena, built once and cached.

        Building snapshots every node's entry MBRs into one contiguous
        NumPy block (see :class:`~repro.geometry.TreeArena`), the only
        columnar copy of the tree, which the batched kernels read in
        place.  The cache holds until the tree's clock ticks (see
        :meth:`_refresh`).  Every tree has one: the build reads the
        nodes uncounted (:meth:`node`), so a pager that injects faults
        into the join's ``ReadPage`` s never fails it.
        """
        self._refresh()
        if self._arena is None:
            self._arena = TreeArena.build(self.nodes(), self.ndim)
        return self._arena

    def _adopt_arena(self, arena: TreeArena) -> None:
        """Install an arena laid out by whoever made the tree (the
        packers of :mod:`repro.rtree.bulk`, :func:`repro.io.load_tree`)
        as the snapshot of the tree as it stands, so :meth:`arena`
        builds nothing until the tree changes.  It must equal
        ``TreeArena.build(self.nodes(), ndim)``.
        """
        self._arena = arena
        self._derived = {}
        self._derived_at = self.clock.ticks

    def derived(self) -> dict:
        """Statistics derived from the tree's present content — its
        catalog entry: whoever derives one keeps it here under its name
        (:func:`repro.exec.tree_params` the summed data-rectangle area),
        and the dictionary is emptied under the rule that rebuilds
        :meth:`arena`, so no value outlives the entries it came from.
        """
        self._refresh()
        return self._derived

    def _refresh(self) -> None:
        """Drop what was derived (the arena, :meth:`derived`) from an
        older state of the tree.

        Every node of the tree shares :attr:`clock`, which each change
        to an entry list ticks — an insert, a delete, a split, a forced
        reinsertion, direct node surgery, a rebound ``node.entries`` —
        so what was derived is current while the clock reads what it
        read then: one comparison, no node read.
        """
        if self._derived_at != self.clock.ticks:
            self._arena = None
            self._derived = {}
            self._derived_at = self.clock.ticks

    # Pickled trees travel without what they derived: the arena may hold
    # shared-memory views that cannot cross process boundaries;
    # receivers rebuild on demand.  The clock goes with the nodes, so
    # the copy's nodes share one clock of their own.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_arena"] = None
        state["_derived"] = {}
        return state

    # -- introspection --------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """Breadth-first iteration over all nodes, root first."""
        queue = deque([self.root()])
        while queue:
            node = queue.popleft()
            yield node
            if not node.is_leaf:
                queue.extend(self.node(e.ref) for e in node.entries)

    def nodes_at_level(self, level: int) -> list[Node]:
        """All nodes at one level (leaves are level 1)."""
        return [n for n in self.nodes() if n.level == level]

    def level_stats(self) -> dict[int, LevelStats]:
        """Measured node count / extents / density per level.

        The root level is included for completeness even though the cost
        formulas never charge it.
        """
        per_level: dict[int, list[Rect]] = {}
        for node in self.nodes():
            if node.entries:
                per_level.setdefault(node.level, []).append(node.mbr())
        out: dict[int, LevelStats] = {}
        for level, rects in per_level.items():
            count = len(rects)
            avg = tuple(
                sum(r.extents[k] for r in rects) / count
                for k in range(self.ndim)
            )
            dens = sum(r.area() for r in rects)
            out[level] = LevelStats(count, avg, dens)
        return out

    def leaf_entries(self) -> Iterator[Entry]:
        """All data entries, in storage order."""
        for node in self.nodes():
            if node.is_leaf:
                yield from node.entries

    def average_fill(self) -> float:
        """Mean node utilisation (entries / M) over all non-root nodes.

        This is the measured counterpart of the model's ``c`` parameter
        (typically ~0.67 for insertion-built trees).
        """
        counts = [len(n.entries) for n in self.nodes()
                  if n.page_id != self.root_id]
        if not counts:
            return len(self.root().entries) / self.max_entries
        return sum(counts) / (len(counts) * self.max_entries)

    def apply_to_leaves(self, fn: Callable[[Node], None]) -> None:
        """Run a function over every leaf node (test instrumentation)."""
        for node in self.nodes():
            if node.is_leaf:
                fn(node)

    def __len__(self) -> int:
        return self.size

    def _check_rect(self, rect: Rect) -> None:
        if rect.ndim != self.ndim:
            raise ValueError(
                f"rect has {rect.ndim} dims, tree has {self.ndim}"
            )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(ndim={self.ndim}, "
                f"M={self.max_entries}, size={self.size}, "
                f"height={self.height})")
