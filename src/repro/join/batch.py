"""Level-batched synchronized traversal: one kernel call per frontier.

The stack machine of :mod:`repro.join.sync` walks the SJ recursion one
node pair at a time, paying interpreter overhead per visited pair even
when the pair's entry tests are vectorized.  This module advances the
traversal a *whole tree level* at a time instead (the SIMD-ified R-tree
formulation, PAPERS.md arXiv 2309.16913): each frontier of candidate
node pairs is materialized as index arrays into the two trees'
:class:`~repro.geometry.TreeArena` blocks, and a handful of NumPy
kernel calls over the gathered coordinate slices produce every
qualifying child pair — and, at leaf depth, every result pair — of the
entire level at once.

Bit-identity contract
---------------------

The engine must be observationally indistinguishable from the stack
machine: same pairs in the same order, same NA/DA per tree and level,
same comparison counts per enumeration, same checkpoint bytes when a
governor trips.  DA under a :class:`~repro.storage.PathBuffer` depends
on the exact *order* of ``ReadPage`` calls, which is depth-first — not
level order.  The engine therefore runs in two phases:

1. **plan** — breadth-first, level-synchronous kernels over the arenas
   compute, per visited node pair, the qualifying entry items (and the
   child page ids they fetch).  Every depth, mixed-height ones
   included, is one planner over the predicate's one kernel pair
   (:meth:`~repro.join.JoinPredicate.pair_mask` and ``confirm``), used
   twice: first each entry against the MBR of the node it would be
   paired with — the search-space restriction of the SJ the paper
   models, one ``O(sum a + sum b)`` pass per level — then the
   survivors' ``a' x b'`` blocks entry against entry.  Those are laid
   out as padded tiles: each visit's survivors, left-packed in entry
   order, fill a row of ``A`` (R1) or ``B`` (R2) slots, widths rounded
   up to a multiple of 8 and the rest NaN, which fails every
   comparison.  Visits of one ``(A, B)`` shape form a group; a chunk
   of a group is one ``pair_mask`` call on ``(V, 1, A)`` against
   ``(V, B, 1)`` operands, whose ``nonzero`` lists the survivors
   j-major, as the stack machine enumerates them, and a stable sort on
   the visit merges the groups.  The planner
   holds no coordinate arithmetic of its own, and what it charges and
   records stays in units of the full ``a x b`` blocks the stack
   machine enumerates.  No page is read and nothing is charged;
   the governor is consulted once per level boundary, plus a per-level
   NA sub-budget slicer stops planning levels the charge can provably
   never reach before its budget trips.
2. **charge** — the precomputed visit tree is charged in exactly the
   stack machine's ``ReadPage`` order, depth-first (including the
   mixed-height re-fetch of the shorter tree's leaf and the pinned-root
   exemption), with the stack machine's per-enumeration comparison
   accounting.  That order, the visit tree's preorder, is laid out once
   as arrays (:meth:`LevelBatchState._preorder`); it opens the leaf
   visits in index order, so a drain's pairs are the first
   ``pair_count - base`` leaf items, kept as one slice of the leaf
   plan's two ``int64`` columns (no tuple per pair) and joined into
   one :class:`~repro.join.PairList` when the result is built.  One
   loop (:meth:`LevelBatchState._charge`) charges the order in chunks
   of items with a poll after each, by one of two read primitives: in
   bulk, one :meth:`~repro.storage.BufferManager.access_many` call and
   ``bincount`` s for NA/DA per tree and level; or, when a reader must
   see each read (:meth:`LevelBatchState._per_read`), through the
   readers' ``fetch``, one item per chunk.  An ungoverned bulk drain is
   one chunk.  A count budget trips where the stack machine's poll
   first sees it — after the item whose fetches spend an NA or DA
   budget, at the pair that spends a result budget — and a governed
   bulk drain finds that item from cumulative counts along the order,
   then charges the prefix up to it ``CHARGE_CHUNK_ITEMS`` items at a
   time.  The frames, cursors and comparison count a checkpoint needs
   follow from the stop's position in the order, and sampled
   ``node_pair`` events from the visit counter laid out as arrays,
   skipped non-qualifying items included.

A checkpoint's frames are pushed with their cursors: each is planned
like a root pair less the depth-0 items its cut consumed, its visit
starting at that cursor, so a resumed run that trips again writes the
stack machine's checkpoint.

Configurations the batch engine cannot express — plane-sweep
enumerations (different read order by design), custom predicates —
fall back to the stack machine, and the join says so
(``fallback`` on its result and its ``join_start`` event, a
``join.fallback.<reason>`` counter); see
:func:`repro.join.select_traversal`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..exec import ExecutionGovernor
from ..exec.budget import Budget, BudgetExceeded, Cancelled
from ..geometry.arena import run_slots
from ..reliability import FaultyPager
from ..storage import AccessStats, MeteredReader
from .predicates import JoinPredicate, Overlap, WithinDistance
from .result import PairList

__all__ = ["BATCH_PAIR_ENUMERATIONS", "CHARGE_CHUNK_ITEMS", "LevelBatchState",
           "MAX_CHUNK_ITEMS", "supports_level_batch"]

#: Pair enumerations the batch engine reproduces bit-identically.  The
#: plane sweeps visit children in a deliberately different order (their
#: DA differs from nested-loop by contract), so they keep the stack
#: machine.
BATCH_PAIR_ENUMERATIONS = ("nested-loop", "vectorized")

#: Upper bound on the padded tile cells tested per kernel call: ``V * A
#: * B`` over a chunk of ``V`` visits of one tile shape (one visit even
#: if it alone is larger).  Groups larger than this are processed in
#: visit chunks, bounding the planning phase's memory high-water mark
#: (docs/performance.md); so are sampled visits mapped to their frames.
MAX_CHUNK_ITEMS = 1 << 20

#: Items a governed drain charges in bulk between two polls: a deadline
#: or a cancellation is seen at most this many items late (count budgets
#: still trip exactly; :meth:`LevelBatchState._charge`).
CHARGE_CHUNK_ITEMS = 1024


def supports_level_batch(predicate: JoinPredicate,
                         pair_enumeration: str) -> str | None:
    """Why the batch engine cannot reproduce this configuration.

    ``None`` — it can — requires a nested-loop or vectorized
    enumeration (else ``"enumeration"``) and one of the built-in
    predicates (else ``"predicate"``: a subclass could override the
    tests the kernels mirror, so exact types only).  The reason is what
    the join records as its ``fallback``
    (:func:`repro.join.select_traversal`).
    """
    if pair_enumeration not in BATCH_PAIR_ENUMERATIONS:
        return "enumeration"
    if type(predicate) not in (Overlap, WithinDistance):
        return "predicate"
    return None


class _PageRef(NamedTuple):
    """Page identity of one side of a frame (checkpoint shape)."""

    page_id: int
    level: int


class _Frame(NamedTuple):
    """One stack frame of an interrupted (or not yet started) drain.

    Shaped like ``sync._Frame`` as far as
    :meth:`repro.join.SpatialJoin._checkpoint` serializes one: ``n1``/
    ``n2`` carry ``page_id``/``level`` and ``cursor`` counts consumed
    items with the stack machine's per-enumeration semantics (nonzero
    in a frame restored from a checkpoint).  A running drain keeps no
    frames; :meth:`LevelBatchState._trip` derives them when a governor
    stops it.
    """

    n1: _PageRef
    n2: _PageRef
    cursor: int = 0


class _LevelPlan:
    """Everything the charge needs about one planned frontier depth.

    Visits at depth ``d+1`` are exactly the qualifying items of depth
    ``d`` in order, so a qualifying item's global index *is* its child
    visit index and ``qual_start`` doubles as the per-visit child
    ranges.  ``raw`` says what the stack machine's frame iterates
    here — every entry pair (``nested-loop``, and a mixed-height depth
    under either enumeration) or the qualifying ones only (a
    ``vectorized`` block) — and ``cost[v]`` what a finished visit has
    charged in comparisons: ``a*b`` per raw item consumed, or ``a*b``
    on a block's first yield and nothing for a block without one.
    ``items_total`` is the depth's ``sum(a*b)`` — what those charges
    add up from — and ``crossed_total`` the entry pairs the planner
    tested once the restriction had cut both sides down (tile padding
    not counted).  ``cost``, ``qual_pos``, ``qual_start``, ``child1``
    and ``child2`` are integer arrays.  ``skip`` is the cursor each
    visit starts at: a restored frame's at its depth 0 (whose one visit
    has lost the items before it, and their cost), 0 elsewhere.
    """

    __slots__ = ("kind", "child_l1", "child_l2", "fetch2_first", "raw",
                 "cost", "qual_pos", "qual_start", "child1", "child2",
                 "frontier", "items_total", "crossed_total", "qual_total",
                 "kernel_calls", "skip")


def _kind(l1: int, l2: int) -> str:
    if l1 > 1 and l2 > 1:
        return "int"
    if l1 == 1 and l2 == 1:
        return "leaf"
    return "r1leaf" if l1 == 1 else "r2leaf"


def _width(kept, pinned: bool):
    """Tile width of each visit on one side: its survivors rounded up to
    a multiple of 8, so few distinct tile shapes cover a level.  A side
    pinned at its leaves keeps width 0 or 1."""
    return kept if pinned else (kept + 7) & -8


class LevelBatchState:
    """Drop-in replacement for ``sync._TraversalState`` (see module doc).

    Exposes the same surface the join driver and the parallel workers
    use — ``push``/``drain``/``join``, ``stack``, ``stats``, ``pairs``,
    ``pair_count``, ``comparisons``, ``collect_pairs`` — so
    :class:`repro.join.SpatialJoin` runs either engine through one code
    path.
    """

    engine = "level-batch"
    fallback = None

    def __init__(self, reader1: MeteredReader, reader2: MeteredReader,
                 predicate: JoinPredicate, collect_pairs: bool,
                 pinned1: int, pinned2: int, arena1, arena2,
                 pair_enumeration: str = "nested-loop",
                 stats: AccessStats | None = None,
                 governor: ExecutionGovernor | None = None,
                 tracer=None, join_id: str | None = None, metrics=None):
        if pair_enumeration not in BATCH_PAIR_ENUMERATIONS:
            raise ValueError(
                f"level-batch traversal supports pair_enumeration in "
                f"{BATCH_PAIR_ENUMERATIONS}, not {pair_enumeration!r}")
        self.vectorized = pair_enumeration == "vectorized"
        self.reader1 = reader1
        self.reader2 = reader2
        self.predicate = predicate
        self.collect_pairs = collect_pairs
        self.pinned1 = pinned1
        self.pinned2 = pinned2
        self.arena1 = arena1
        self.arena2 = arena2
        self.stats = stats if stats is not None else reader1.stats
        self.governor = governor
        self.tracer = tracer
        self.join_id = join_id
        self.metrics = metrics
        self.visits = 0
        self.stack: list[_Frame] = []
        self._pairs: list[PairList] = []
        self.pair_count = 0
        self.comparisons = 0
        self._pending: list[tuple] = []

    @property
    def pairs(self) -> PairList:
        """The pairs collected so far: every drain's leaf slice, joined
        once."""
        if len(self._pairs) != 1:
            self._pairs = [PairList.concat(self._pairs)]
        return self._pairs[0]

    @pairs.setter
    def pairs(self, pairs) -> None:
        self._pairs = [PairList.of(pairs)]

    def _fetch1(self, page_id: int, level: int):
        if page_id == self.pinned1:
            return self.reader1.read_pinned(page_id, level)
        return self.reader1.fetch(page_id, level)

    def _fetch2(self, page_id: int, level: int):
        if page_id == self.pinned2:
            return self.reader2.read_pinned(page_id, level)
        return self.reader2.fetch(page_id, level)

    # -- driver surface (mirrors _TraversalState) ---------------------------

    def push(self, n1, n2, cursor: int = 0) -> None:
        """Open the SJ of a pair of resident nodes (planned on drain),
        its first ``cursor`` items consumed (a restored frame)."""
        frame = _Frame(_PageRef(n1.page_id, n1.level),
                       _PageRef(n2.page_id, n2.level), cursor)
        self.stack.append(frame)
        self._pending.append(frame)

    def drain(self) -> None:
        """Plan and charge every pending root pair (LIFO, like the stack)."""
        while self._pending:
            frame = self._pending.pop()
            plans = self._plan(frame)
            base = self.pair_count
            try:
                self._charge(frame, plans)
            finally:
                # The pairs counted, complete or tripped: the first ones
                # of the leaf level (see the module doc).
                n = self.pair_count - base
                if self.collect_pairs and n:
                    leaf = plans[-1]
                    self._pairs.append(PairList(leaf.child1[:n],
                                                leaf.child2[:n]))
            self.stack.pop()

    def _per_read(self) -> bool:
        """Whether a drain must be charged through the readers' ``fetch``
        rather than in bulk (:meth:`_bulk`): when a reader does more than
        price a page (a ``ResilientReader`` retries, a ``FaultyPager``
        draws a fault, a subclass may do anything, a tracer sampling
        buffer accesses watches each read), when the readers do not share
        the one buffer :meth:`_bulk` charges, or when one counts into
        other stats than those the drain's polls read."""
        return (self.reader1.buffer is not self.reader2.buffer
                or any(type(reader) is not MeteredReader
                       or reader.stats is not self.stats
                       or isinstance(reader.pager, FaultyPager)
                       or (reader.tracer is not None
                           and reader.tracer.sample_buffer > 0)
                       for reader in (self.reader1, self.reader2)))

    def join(self, n1, n2) -> None:
        """SJ over a pair of resident nodes, drained to completion."""
        self.push(n1, n2)
        self.drain()

    # -- phase 1: breadth-first frontier planning ---------------------------

    def _plan(self, root: _Frame) -> list[_LevelPlan]:
        governor = self.governor
        max_na = (governor.budget.max_na if governor is not None else None)
        na0 = self.stats.na()
        pages1 = np.array([root.n1.page_id], dtype=np.int64)
        pages2 = np.array([root.n2.page_id], dtype=np.int64)
        l1, l2 = root.n1.level, root.n2.level
        plans: list[_LevelPlan] = []
        depth = 0
        while True:
            kind = _kind(l1, l2)
            plan = self._cross_level(kind, l1, l2, pages1, pages2)
            if depth == 0 and root.cursor:
                self._skip(plan, root.cursor)
            plans.append(plan)
            self._observe_level(depth, plan)
            if kind == "leaf" or plan.qual_total == 0:
                break
            if governor is not None:
                # Level boundary: deadlines and cancellation can stop the
                # planning phase (nothing has been charged, so the stack
                # still checkpoints as "no progress on this pair").
                governor.check(self.stats, self.pair_count)
                if max_na is not None and na0 + depth + 1 >= max_na:
                    # Sub-budget slicer: consuming any item at depth
                    # depth+1 first charges >= 1 fetch per level along
                    # its path, so the NA budget trips, however it is
                    # charged, before deeper plans are read.
                    break
            pages1 = plan.child1
            pages2 = plan.child2
            l1, l2 = plan.child_l1, plan.child_l2
            depth += 1
        return plans

    @staticmethod
    def _skip(plan: _LevelPlan, cursor: int) -> None:
        """Drop what a restored frame's cut consumed of the one visit of
        ``plan``: the qualifying items before item ``cursor`` (``raw``)
        or the first ``cursor`` (a block, whose ``a*b`` is charged)."""
        drop = (int(np.searchsorted(plan.qual_pos, cursor)) if plan.raw
                else cursor)
        plan.qual_pos = plan.qual_pos[drop:]
        plan.child1 = plan.child1[drop:]
        plan.child2 = plan.child2[drop:]
        plan.qual_total -= drop
        plan.qual_start = np.array([0, plan.qual_total], dtype=np.int64)
        plan.cost = (plan.cost - cursor if plan.raw
                     else np.zeros_like(plan.cost))
        plan.skip = cursor

    def _observe_level(self, depth: int, plan: _LevelPlan) -> None:
        if self.metrics is not None:
            self.metrics.counter("join.batch.levels").inc()
            self.metrics.counter("join.batch.frontier_pairs").inc(
                plan.frontier)
            self.metrics.counter("join.batch.kernel_calls").inc(
                plan.kernel_calls)
            self.metrics.counter("join.batch.crossed_items").inc(
                plan.crossed_total)
        if self.tracer is not None:
            self.tracer.emit(
                "level_batch", join=self.join_id, depth=depth,
                kind=plan.kind, frontier=plan.frontier,
                items=plan.items_total, crossed=plan.crossed_total,
                qualifying=plan.qual_total,
                kernel_calls=plan.kernel_calls)

    def _side(self, arena, pages, at_leaves: bool):
        """``(mbrs, rects, refs, cnt)`` of one tree at one depth.

        ``mbrs`` is the ``(2, ndim, frontier)`` block of the visited
        nodes' MBRs.  Visit ``v`` owns the next ``cnt[v]`` columns of
        ``rects`` (``(2, ndim, n)``, visit order) and entries of
        ``refs`` — what an entry fetches or, at leaf depth, reports: for
        a descending side, its node's run of the arena.  A side already
        ``at_leaves`` while the other still descends contributes one
        pseudo-entry per visit instead: the leaf node's MBR, whose
        "child" is the leaf page itself, re-fetched beside each
        qualifying child of the other side (``sync._step_r1_leaf``/
        ``_step_r2_leaf``).  Planned nodes are never empty: only a root
        can be, and the driver opens no join on one.
        """
        mbrs = arena.node_mbrs.take(pages, axis=2)
        if at_leaves:
            return mbrs, mbrs, pages, np.ones(len(pages), dtype=np.int64)
        offset, count = arena.page_table
        cnt = count.take(pages)
        slots = run_slots(offset.take(pages), cnt)
        return (mbrs, arena._coords.take(slots, axis=2),
                arena._refs.take(slots), cnt)

    def _restrict(self, rects, refs, cnt, mbrs, first: bool):
        """One side's entries that reach the other node's MBR.

        The search-space restriction of Brinkhoff, Kriegel & Seeger: an
        entry is tested with the predicate's own mask against the MBR
        (``mbrs``, one column per visit) of the node it would be paired
        with, ``first`` saying which operand the entry is.  That MBR is
        the exact ``min``/``max`` of the node's entries and IEEE ``<=``
        and ``-`` are monotone, so an entry the mask rejects here fails
        it against every entry of that node: only items the cross would
        have rejected are removed.  Survivors keep their order.

        Returns ``(rects, refs, visit, local, kept)``: the surviving
        columns, the visit each belongs to, its index within its node's
        run, and the survivors per visit.
        """
        frontier = len(cnt)
        visit = np.repeat(np.arange(frontier, dtype=np.int64), cnt)
        other = mbrs.take(visit, axis=2)
        sides = ((rects[0], rects[1], other[0], other[1]) if first
                 else (other[0], other[1], rects[0], rects[1]))
        keep = np.nonzero(self.predicate.pair_mask(*sides)[0])[0]
        visit = visit.take(keep)
        local = keep - (np.cumsum(cnt) - cnt).take(visit)
        return (rects.take(keep, axis=2), refs.take(keep), visit, local,
                np.bincount(visit, minlength=frontier))

    def _tile(self, rects, visit, first, order, at, size: int):
        """One side's restricted columns laid out as padded tiles.

        Row ``r`` of the level's shape order is visit ``order[r]``,
        which owns the slots of the returned ``(2, ndim, size)`` block
        from ``at[r]`` up to its tile width: its survivors left-packed
        in entry order, then NaN.  Every comparison with a NaN is
        false, so a padded slot fails every built-in mask.
        """
        shift = np.empty_like(first)
        shift[order] = at
        shift -= first
        tiles = np.full(rects.shape[:2] + (size,), np.nan)
        tiles[:, :, shift.take(visit) + np.arange(len(visit))] = rects
        return tiles

    def _cross_level(self, kind: str, l1: int, l2: int,
                     pages1, pages2) -> _LevelPlan:
        """Plan one depth of any kind: restricted a' x b' tiles, j-major.

        Each side is first cut down to the entries that reach the other
        node's MBR (:meth:`_restrict`); only those are crossed and sent
        through the predicate's kernels.  Survivors keep ascending
        entry order, so the qualifying items come out in the order of
        the full ``a*b`` block, and everything the charge counts or a
        checkpoint records — ``cost``, ``qual_pos`` — stays in units of
        that full block.

        The survivors are laid out as padded tiles (:meth:`_tile`) and
        the visits grouped by tile shape ``(A, B)`` (:func:`_width`).
        One ``pair_mask`` call tests a chunk of a group, ``(V, 1, A)``
        entries of R1 against ``(V, B, 1)`` of R2, and ``nonzero`` of
        the ``(V, B, A)`` mask lists the survivors by visit, then ``j``,
        then ``i``: j-major.  A stable sort on the visit merges the
        groups.

        A mixed-height depth is an ``a x 1`` or ``1 x b`` cross level
        (:meth:`_side`), whose j-major order is the internal node's
        entry order — what the stack machine's mixed frames iterate.
        """
        predicate = self.predicate
        frontier = len(pages1)
        pinned1, pinned2 = kind == "r1leaf", kind == "r2leaf"
        mbrs1, rects1, refs1, cnt1 = self._side(self.arena1, pages1, pinned1)
        mbrs2, rects2, refs2, cnt2 = self._side(self.arena2, pages2, pinned2)
        ab = cnt1 * cnt2
        rects1, refs1, visit1, i_loc, kept1 = self._restrict(
            rects1, refs1, cnt1, mbrs2, True)
        rects2, refs2, visit2, j_loc, kept2 = self._restrict(
            rects2, refs2, cnt2, mbrs1, False)
        # Item (i, j) of a visit sits at j * a + i of its full block:
        # j-major, the paper's outer-R2/inner-R1 enumeration order.
        pos2 = j_loc * cnt1.take(visit2)
        first1 = np.cumsum(kept1) - kept1
        first2 = np.cumsum(kept2) - kept2
        # Rows in tile-shape order; the sort is stable, so a group is a
        # run of rows in visit order.
        w1, w2 = _width(kept1, pinned1), _width(kept2, pinned2)
        shape = w1 * (int(w2.max()) + 1) + w2
        order = np.argsort(shape, kind="stable")
        w1, w2 = w1.take(order), w2.take(order)
        at1, at2 = np.cumsum(w1) - w1, np.cumsum(w2) - w2
        tiles1 = self._tile(rects1, visit1, first1, order, at1,
                            int(w1.sum()))
        tiles2 = self._tile(rects2, visit2, first2, order, at2,
                            int(w2.sum()))
        heads = np.flatnonzero(np.diff(shape.take(order), prepend=-1))
        groups = np.stack((heads, w1.take(heads), w2.take(heads),
                           at1.take(heads), at2.take(heads))).T.tolist()
        # Every NumPy function, method and array operator the planner
        # issues, a pair_mask/confirm invocation counting as one (it
        # cannot see inside them), views by basic slicing not at all.  Per
        # level: 12 to gather a descending side (2 for one pinned at its
        # leaves, which looks up its MBRs and nothing else), 13 to
        # restrict a side, 7 to index the survivors, 16 to order the
        # rows by tile shape (14 with a pinned side, which keeps its
        # width), 8 to tile a side, 8 to find the groups and 19 to close
        # the level (21 when a vectorized block charges only the visits
        # with survivors).  A group costs only its chunks: 9 to test
        # one, 9 more to confirm an inexact mask's survivors.
        mixed = pinned1 or pinned2
        raw = mixed or not self.vectorized
        kernel_calls = (104 if mixed else 116) + (0 if raw else 2)
        empty = np.zeros(0, dtype=np.int64)
        visits, gis, gjs = [empty], [empty], [empty]
        ends = [group[0] for group in groups[1:]] + [frontier]
        for (head, a, b, o1, o2), end in zip(groups, ends):
            if a * b == 0:
                continue            # no survivor on one side
            # As many whole visits as fit the chunk, and never none.
            step = max(1, MAX_CHUNK_ITEMS // (a * b))
            o1, o2 = o1 - head * a, o2 - head * b   # where row 0 would sit
            for row in range(head, end, step):
                n = min(step, end - row)
                t1 = tiles1[:, :, o1 + row * a:o1 + (row + n) * a].reshape(
                    2, -1, n, 1, a)
                t2 = tiles2[:, :, o2 + row * b:o2 + (row + n) * b].reshape(
                    2, -1, n, b, 1)
                mask, exact = predicate.pair_mask(t1[0], t1[1],
                                                  t2[0], t2[1])
                vv, j, i = np.nonzero(mask)
                visit = order[row:row + n].take(vv)
                gi = first1.take(visit) + i
                gj = first2.take(visit) + j
                kernel_calls += 9
                if not exact and len(gi):
                    keep = np.array(predicate.confirm(
                        rects1[0].take(gi, axis=1),
                        rects1[1].take(gi, axis=1),
                        rects2[0].take(gj, axis=1),
                        rects2[1].take(gj, axis=1)), dtype=bool)
                    visit, gi, gj = visit[keep], gi[keep], gj[keep]
                    kernel_calls += 9
                visits.append(visit)
                gis.append(gi)
                gjs.append(gj)
        visit = np.concatenate(visits)
        by = np.argsort(visit, kind="stable")
        gi = np.concatenate(gis).take(by)
        gj = np.concatenate(gjs).take(by)
        qual_counts = np.bincount(visit, minlength=frontier)
        child1 = refs1.take(gi)
        child2 = refs2.take(gj)
        qual_start = np.concatenate((np.zeros(1, dtype=np.int64),
                                     np.cumsum(qual_counts)))
        plan = _LevelPlan()
        plan.kind = kind
        # A side at its leaves stays there while the other descends.
        plan.child_l1 = max(l1 - 1, 1)
        plan.child_l2 = max(l2 - 1, 1)
        plan.fetch2_first = kind == "r1leaf"
        plan.frontier = frontier
        plan.items_total = int(ab.sum())
        plan.crossed_total = int((kept1 * kept2).sum())
        plan.qual_total = len(child1)
        plan.kernel_calls = kernel_calls
        # Mixed frames iterate raw entries whatever the enumeration.
        plan.raw = raw
        plan.cost = ab if raw else ab * (qual_counts > 0)
        plan.qual_pos = pos2.take(gj) + i_loc.take(gi)
        plan.qual_start = qual_start
        plan.child1 = child1
        plan.child2 = child2
        plan.skip = 0
        return plan

    # -- phase 2: one ReadPage order, charged chunk by chunk ----------------

    @staticmethod
    def _preorder(plans: list[_LevelPlan]):
        """The stack machine's ``ReadPage`` order, laid out without a
        walk: rows tree (0 or 1; R2 first in a ``fetch2_first`` item),
        level and page per fetch, pinned roots included, and per
        fetching depth its items' positions in the order, ascending."""
        fetching = plans[:-1] if plans[-1].kind == "leaf" else plans
        # first[d][k]: the items, their descendants included, before
        # item k of depth d — prefix sums of the subtree sizes, summed
        # bottom up.
        first = [None] * len(fetching)
        for d in reversed(range(len(fetching))):
            size = np.ones(fetching[d].qual_total, dtype=np.int64)
            if d + 1 < len(fetching):
                qs, below = plans[d + 1].qual_start, first[d + 1]
                size += below.take(qs[1:]) - below.take(qs[:-1])
            first[d] = np.concatenate(([0], np.cumsum(size)))
        n = int(first[0][-1]) if fetching else 0
        reads = np.empty((3, 2 * n), dtype=np.int64)
        (sides, levels, pages), at = reads, []
        pos = np.full(1, -1, dtype=np.int64)   # the root visit fetches nothing
        for plan, before in zip(fetching, first):
            # An item comes right after its parent and the subtrees of
            # its elder siblings.
            qs = plan.qual_start
            pos = (before[:-1] + np.repeat(pos + 1 - before.take(qs[:-1]),
                                           np.diff(qs)))
            at.append(pos)
            at1 = 2 * pos + plan.fetch2_first
            at2 = 2 * pos + (not plan.fetch2_first)
            sides[at1], levels[at1], pages[at1] = 0, plan.child_l1, plan.child1
            sides[at2], levels[at2], pages[at2] = 1, plan.child_l2, plan.child2
        return reads, at

    def _charge(self, root: _Frame, plans: list[_LevelPlan]) -> None:
        """Charge the plan's :meth:`_preorder` chunk by chunk, with a poll
        after each, stopping where the stack machine does.

        Polls ``j`` count the virtual root item (0) and the items in
        order (``j = position + 1``): the one after item ``j``'s fetches
        sees the child visits of the items before it opened, and one
        more follows the pair that spends a result budget.  A chunk is
        read in bulk (:meth:`_bulk`; an ungoverned drain is one chunk, a
        governed one ``CHARGE_CHUNK_ITEMS`` items, up to the first poll
        a count budget trips at) or, if :meth:`_per_read`, item by item
        through the readers.  The sampled ``node_pair`` events up to a
        chunk's poll are emitted before it is read (in bulk: once its
        end is known)."""
        reads, at = self._preorder(plans)
        n = reads.shape[1] // 2
        live = reads[2] != np.where(reads[0] == 0, self.pinned1,
                                    self.pinned2)
        governor, per_read = self.governor, self._per_read()
        emit = self._sampler(root, plans, at)
        if governor is None and emit is None and not per_read:
            # One chunk and nothing to watch: no per-item array is built.
            self._bulk(reads, live, None, 0, n, None)
            self.comparisons += sum(int(plan.cost.sum()) for plan in plans)
            if plans[-1].kind == "leaf":
                self.pair_count += plans[-1].qual_total
            return
        # Per item (``j``): its depth, its index there (the visit it
        # opens one depth down), that visit's comparisons and, at leaf
        # depth, its pairs.
        leaf = len(plans) - 1 if plans[-1].kind == "leaf" else -1
        depth, item, cost, qual = np.zeros((4, n + 1), dtype=np.int64)
        for d, pos in enumerate([np.full(1, -1)] + at, start=-1):
            depth[pos + 1], item[pos + 1] = d, np.arange(len(pos))
            if d + 1 < len(plans):
                cost[pos + 1] = plans[d + 1].cost
            if d + 1 == leaf:
                qual[pos + 1] = np.diff(plans[leaf].qual_start)
        fetched = np.concatenate(([0], np.cumsum(
            live.reshape(n, 2).sum(axis=1))))
        counted = np.concatenate(([0], np.cumsum(qual)))
        # The first poll a count budget trips at, ``(j, 0)`` after item
        # j's fetches or ``(j, 1)`` after the pair of its child visit
        # that spends the result budget — else ``(stop, 2)``, the end of
        # what is planned (past it, the slicer promised a trip).  The
        # readers of a per-read drain count its NA, so its polls see it.
        budget = governor.budget if governor is not None else Budget()
        sliced = plans[-1].kind != "leaf" and plans[-1].qual_total > 0
        stop = (int(at[-1][0]) + 1 if sliced else n, 2)
        if budget.max_na is not None and not per_read:
            stop = min(stop, (int(np.searchsorted(
                fetched, budget.max_na - self.stats.na())), 0))
        if budget.max_results is not None:
            stop = min(stop, (int(np.searchsorted(
                counted[1:], budget.max_results - self.pair_count)), 1))
        stop, kind = stop
        size = (1 if per_read else n if governor is None
                else CHARGE_CHUNK_ITEMS)
        opened = np.concatenate(([0], np.cumsum(cost))).tolist()
        counted = counted.tolist()
        listed = reads.T.tolist() if per_read else None
        emit = emit or (lambda j, within=0: None)
        fetch = (self._fetch1, self._fetch2)
        poll = governor.check if governor is not None else lambda *a: None
        position, cursor, j = -1, None, 0
        try:
            poll(self.stats, self.pair_count)           # the entry poll
            while j < stop:
                e = min(j + size, stop)
                if per_read:
                    emit(e)
                    for side, level, page in listed[2 * j:2 * e]:
                        fetch[side](page, level)
                else:
                    e = self._bulk(reads, live, fetched, j, e,
                                   budget.max_da)
                    emit(e)
                self.comparisons += opened[e] - opened[j]
                self.pair_count += counted[e] - counted[j]
                position, j = e - 1, e
                poll(self.stats, self.pair_count)       # the chunk poll
            if kind != 1 and j < n:
                raise RuntimeError(
                    "level-batch sub-budget slicer reached an unplanned "
                    "depth without a budget trip")
            # Open the last item's child visit, its pairs up to the one
            # that spends a result budget; the poll after that trips.
            self.comparisons += int(cost[j])
            if kind != 1:
                self.pair_count += int(qual[j])
                emit(None)
                return
            spent = budget.max_results - self.pair_count
            leaf, v = plans[int(depth[j]) + 1], int(item[j])
            cursor = self._cursor(leaf, v, int(leaf.qual_start[v]) + spent)
            self.pair_count += spent
            emit(j, cursor - leaf.skip)
            poll(self.stats, self.pair_count)
        except (BudgetExceeded, Cancelled):
            self._trip(root, plans, at, position, cursor)
            raise

    def _bulk(self, reads, live, fetched, j: int, e: int, max_da) -> int:
        """Charge the reads of items ``j`` to ``e`` (positions), less the
        pinned roots: one :meth:`~repro.storage.BufferManager.access_many`
        call gives the hits NA/DA are counted from.  If a DA budget
        ``max_da`` can trip inside, the buffer is snapshot first and, if
        it does, restored and only the prefix up to the item whose
        misses spend it charged.  Returns the end charged."""
        chunk = live[2 * j:2 * e]
        sides, levels, pages = reads[:, 2 * j:2 * e][:, chunk]
        buffer, labels = self.reader1.buffer, (self.reader1.label,
                                               self.reader2.label)
        room = None if max_da is None else max_da - self.stats.da()
        rewind = room is not None and room <= fetched[e] - fetched[j]
        if rewind:
            saved = buffer.snapshot()
        hits = buffer.access_many(labels, sides, levels, pages)
        if rewind:
            missed = np.zeros(len(chunk), dtype=np.int64)
            missed[chunk] = ~hits
            k = int(np.searchsorted(
                np.cumsum(missed.reshape(-1, 2).sum(axis=1)), room))
            if k < e - j - 1:
                # DA trips at the poll after item j + k + 1, not at the
                # chunk's: rewind and charge up to it.
                e = j + k + 1
                cut = int(chunk[:2 * (k + 1)].sum())
                sides, levels, pages = sides[:cut], levels[:cut], pages[:cut]
                buffer.restore(saved)
                hits = buffer.access_many(labels, sides, levels, pages)
        # NA/DA per tree and level, by ``bincount``.
        for side, reader in enumerate((self.reader1, self.reader2)):
            mine = sides == side
            na = np.bincount(levels[mine])
            da = np.bincount(levels[mine & ~hits], minlength=len(na))
            for level in np.flatnonzero(na).tolist():
                reader.stats.record_counts(reader.label, level,
                                           int(na[level]), int(da[level]))
        return e

    def _sampler(self, root: _Frame, plans: list[_LevelPlan], at):
        """``emit(j, within=0)``, emitting the sampled ``node_pair``
        events up to poll ``j`` (``None``: the end), ``within`` items into
        the child visit of item ``j`` — ``None`` if no tracer samples.

        The stack machine's visit counter counts consumed items,
        non-qualifying ones included.  A visit spans its items and its
        child visits (summed bottom up); an item's count is its visit's
        start, its cursor and its elder siblings' spans (top down).  A
        sample lies in the innermost visit whose range holds it: one
        ``searchsorted`` per depth over the counts of the items above."""
        every = self.tracer.sample_pairs if self.tracer is not None else 0
        if not every:
            return None
        spans = [None] * len(plans)
        for d in reversed(range(len(plans))):
            qs = plans[d].qual_start
            spans[d] = plans[d].cost if plans[d].raw else np.diff(qs)
            if d + 1 < len(plans):
                below = np.concatenate(([0], np.cumsum(spans[d + 1])))
                spans[d] = spans[d] + below.take(qs[1:]) - below.take(qs[:-1])
        counts, count = [], np.zeros(1, dtype=np.int64)
        for d, plan in enumerate(plans):
            qs = plan.qual_start
            visit = np.repeat(np.arange(len(qs) - 1), np.diff(qs))
            first = qs.take(visit)
            count = count.take(visit) + (
                plan.qual_pos + 1 - plan.skip if plan.raw
                else np.arange(plan.qual_total) - first + 1)
            if d + 1 < len(plans):
                elder = np.cumsum(spans[d + 1]) - spans[d + 1]
                count += elder - elder.take(first)
            counts.append(count)
        polls = np.zeros(sum(map(len, at)) + 1, dtype=np.int64)
        for pos, count in zip(at, counts):
            polls[pos + 1] = count
        polls, end, start = polls.tolist(), int(spans[0][0]), self.visits

        def emit(j, within=0):
            seen = self.visits
            self.visits = start + (end if j is None else polls[j] + within)
            step = every * MAX_CHUNK_ITEMS      # bounds the arrays below
            for low in range(seen - seen % every + every, self.visits + 1,
                             step):
                value = np.arange(low, min(low + step, self.visits + 1),
                                  every)
                rel = value - start
                at_depth, visit = np.zeros((2, len(value)), dtype=np.int64)
                for d in range(1, len(plans)):
                    if not len(counts[d - 1]):
                        break
                    g = np.searchsorted(counts[d - 1], rel) - 1
                    c = np.maximum(g, 0)
                    inside = (g >= 0) & (rel <= counts[d - 1].take(c)
                                         + spans[d].take(c))
                    at_depth[inside], visit[inside] = d, g[inside]
                for sample, d, v in np.stack((value, at_depth,
                                              visit)).T.tolist():
                    frame = self._frame(root, plans, d, v, 0)
                    self.tracer.node_pair(self.join_id, sample,
                                          frame.n1.page_id, frame.n1.level,
                                          frame.n2.page_id, frame.n2.level)
        return emit

    @staticmethod
    def _cursor(plan: _LevelPlan, v: int, idx: int) -> int:
        """The stack machine's cursor in visit ``v`` once its qualifying
        items before global index ``idx`` are consumed (past its last
        one: its trailing items too, the frame exhausted), counted from
        the cursor the visit starts at."""
        start, end = plan.qual_start[v], plan.qual_start[v + 1]
        if not plan.raw:
            return int(min(idx, end) - start) + plan.skip
        if idx > end:
            return int(plan.cost[v]) + plan.skip
        return int(plan.qual_pos[idx - 1]) + 1 if idx > start else plan.skip

    @staticmethod
    def _frame(root: _Frame, plans: list[_LevelPlan], depth: int, v: int,
               cursor: int) -> _Frame:
        """Visit ``v`` of ``depth`` as a frame: the node pair that item
        ``v`` of the depth above fetched."""
        if depth == 0:
            return _Frame(root.n1, root.n2, cursor)
        up = plans[depth - 1]
        return _Frame(_PageRef(int(up.child1[v]), up.child_l1),
                      _PageRef(int(up.child2[v]), up.child_l2), cursor)

    def _trip(self, root: _Frame, plans: list[_LevelPlan], at,
              position: int, cursor: int) -> None:
        """Leave the state a stack machine stopped at the poll after item
        ``position`` (-1: the entry poll) leaves: a frame for the root
        visit and for each one opened by the last item of a depth at or
        before ``position`` (one ``searchsorted``), down to the item's
        own, consumed up to ``cursor`` (``None``: not yet charged);
        comparisons exact to the last."""
        visits, v = [], 0
        for d, pos in enumerate(at if position >= 0 else ()):
            k = int(np.searchsorted(pos, position, "right")) - 1
            visits.append((d, v, self._cursor(plans[d], v, k + 1)))
            v = k
            if pos[k] == position:
                break
        frames = []
        for d, u, consumed in visits + [(len(visits), v, cursor)]:
            if consumed is None:        # at the cursor it starts at
                consumed = root.cursor if d == 0 else 0
            elif plans[d].raw:
                self.comparisons -= (int(plans[d].cost[u]) + plans[d].skip
                                     - consumed)
            frames.append(self._frame(root, plans, d, u, consumed))
        self.stack[-1:] = frames
