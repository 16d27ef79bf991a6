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
   NA sub-budget slicer stops planning levels the replay loop can
   provably never reach before its budget trips.
2. **charge** — the precomputed visit tree is charged in exactly the
   stack machine's ``ReadPage`` order, depth-first (including the
   mixed-height re-fetch of the shorter tree's leaf and the pinned-root
   exemption), with the stack machine's per-enumeration comparison
   accounting.  Depth-first order opens the leaf visits in index
   order, so the pairs a drain emits are always the first
   ``pair_count - base`` items of the leaf level, collected as one
   slice.  A drain nothing can stop or watch mid-way is charged in
   bulk from the plan's arrays (:meth:`LevelBatchState._charge`): the
   visit tree's preorder puts every fetch in one array, one
   :meth:`~repro.storage.BufferManager.access_many` call gives its
   hits, and ``bincount`` s give NA/DA per tree and level.  The
   **replay loop** (:meth:`LevelBatchState._replay`) steps once per
   visit and descent instead, O(NA) under either enumeration, and runs
   exactly when :meth:`LevelBatchState._stepwise` says so: under a
   governor, a tracer sampling node pairs, a reader other than a plain
   :class:`~repro.storage.MeteredReader` over a pager that does not
   inject faults, a reader's tracer sampling buffer accesses, or two
   readers with different buffers.  It is the only code that polls,
   trips, samples or writes a checkpoint.  A governor is polled where
   a count budget can newly trip — after each descent, and at the pair
   that spends a result budget — which is where the stack machine's
   poll before every item first sees it, so a trip lands on the same
   item; the frame stack, cursors and comparison count a checkpoint
   needs are derived from the plan at that moment instead of being
   kept per item, and serialize to the stack machine's bytes.  Sampled
   ``node_pair`` events come from the visit-counter range each step
   covers, skipped non-qualifying items included.

Configurations the batch engine cannot express — plane-sweep
enumerations (different read order by design), custom predicates,
checkpoint resume (cursors restore stack-machine iterators) — fall
back to the stack machine, and the join says so
(``fallback`` on its result and its ``join_start`` event, a
``join.fallback.<reason>`` counter); see
:func:`repro.join.select_traversal`.
"""

from __future__ import annotations

import numpy as np

from ..exec import ExecutionGovernor
from ..exec.budget import BudgetExceeded, Cancelled
from ..reliability import FaultyPager
from ..storage import AccessStats, MeteredReader
from .predicates import JoinPredicate, Overlap, WithinDistance

__all__ = ["BATCH_PAIR_ENUMERATIONS", "LevelBatchState", "MAX_CHUNK_ITEMS",
           "run_slots", "supports_level_batch"]

#: Pair enumerations the batch engine reproduces bit-identically.  The
#: plane sweeps visit children in a deliberately different order (their
#: DA differs from nested-loop by contract), so they keep the stack
#: machine.
BATCH_PAIR_ENUMERATIONS = ("nested-loop", "vectorized")

#: Upper bound on the padded tile cells tested per kernel call: ``V * A
#: * B`` over a chunk of ``V`` visits of one tile shape (one visit even
#: if it alone is larger).  Groups larger than this are processed in
#: visit chunks, bounding the planning phase's memory high-water mark
#: (docs/performance.md).
MAX_CHUNK_ITEMS = 1 << 20


def supports_level_batch(predicate: JoinPredicate,
                         pair_enumeration: str) -> str | None:
    """Why the batch engine cannot reproduce this configuration.

    ``None`` — it can — requires a nested-loop or vectorized
    enumeration (else ``"enumeration"``) and one of the built-in
    predicates (else ``"predicate"``: a subclass could override the
    tests the kernels mirror, so exact types only).  The reason is what
    the join records as its ``fallback``;
    :func:`repro.join.select_traversal` adds the one that depends on the
    run (``"resume"``).
    """
    if pair_enumeration not in BATCH_PAIR_ENUMERATIONS:
        return "enumeration"
    if type(predicate) not in (Overlap, WithinDistance):
        return "predicate"
    return None


class _PageRef:
    """Page identity of one side of a replay frame (checkpoint shape)."""

    __slots__ = ("page_id", "level")

    def __init__(self, page_id: int, level: int):
        self.page_id = page_id
        self.level = level


class _ReplayFrame:
    """One stack frame of an interrupted (or not yet started) replay.

    Shaped like ``sync._Frame`` as far as
    :meth:`repro.join.SpatialJoin._checkpoint` serializes one: ``n1``/
    ``n2`` carry ``page_id``/``level`` and ``cursor`` counts consumed
    items with the stack machine's per-enumeration semantics.  A
    running replay keeps no frames; :meth:`LevelBatchState._trip`
    derives them when a governor stops it.
    """

    __slots__ = ("n1", "n2", "cursor")

    def __init__(self, n1: _PageRef, n2: _PageRef, cursor: int = 0):
        self.n1 = n1
        self.n2 = n2
        self.cursor = cursor


class _LevelPlan:
    """Everything the replay needs about one planned frontier depth.

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
    and ``child2`` are integer arrays; the replay loop reads them as
    Python lists (:meth:`listed`).
    """

    __slots__ = ("kind", "child_l1", "child_l2", "fetch2_first", "raw",
                 "cost", "qual_pos", "qual_start", "child1", "child2",
                 "frontier", "items_total", "crossed_total", "qual_total",
                 "kernel_calls")

    def listed(self) -> "_LevelPlan":
        """A copy for the replay loop, which indexes one item at a time
        and writes page ids into checkpoints (``np.int64`` would not
        serialize): the per-visit and per-item arrays as lists, but a
        leaf depth's items, which :meth:`LevelBatchState._emit` slices,
        as they are."""
        out = _LevelPlan()
        for name in self.__slots__:
            value = getattr(self, name)
            if name in ("cost", "qual_pos", "qual_start") or (
                    name in ("child1", "child2") and self.kind != "leaf"):
                value = value.tolist()
            setattr(out, name, value)
        return out


def run_slots(offset, count):
    """Arena slots of the runs ``offset[r] : offset[r] + count[r]``,
    concatenated in run order."""
    first = np.cumsum(count) - count
    return (np.repeat(offset - first, count)
            + np.arange(int(count.sum()), dtype=np.int64))


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
        self.stack: list[_ReplayFrame] = []
        self.pairs: list[tuple[int, int]] = []
        self.pair_count = 0
        self.comparisons = 0
        self._pending: list[tuple] = []

    def _fetch1(self, page_id: int, level: int):
        if page_id == self.pinned1:
            return self.reader1.read_pinned(page_id, level)
        return self.reader1.fetch(page_id, level)

    def _fetch2(self, page_id: int, level: int):
        if page_id == self.pinned2:
            return self.reader2.read_pinned(page_id, level)
        return self.reader2.fetch(page_id, level)

    # -- driver surface (mirrors _TraversalState) ---------------------------

    def push(self, n1, n2) -> _ReplayFrame:
        """Open the SJ of a pair of resident nodes (planned on drain)."""
        frame = _ReplayFrame(_PageRef(n1.page_id, n1.level),
                             _PageRef(n2.page_id, n2.level))
        self.stack.append(frame)
        self._pending.append(frame)
        return frame

    def drain(self) -> None:
        """Plan and charge every pending root pair (LIFO, like the stack)."""
        stepwise = self._stepwise()
        while self._pending:
            frame = self._pending.pop()
            plans = self._plan(frame)
            if stepwise:
                self._replay(frame, plans)
            else:
                self._charge(plans)

    def _stepwise(self) -> bool:
        """Whether a drain must step through its plan one descent at a
        time (:meth:`_replay`) rather than be charged in bulk
        (:meth:`_charge`).

        It must when something can stop the run mid-way — a governor —
        or must see each step: a tracer sampling node pairs, a reader
        that does more than price a page (a ``ResilientReader`` retries
        and a ``FaultyPager`` draws a fault per read, a tracer sampling
        buffer accesses watches each one), or two readers that do not
        share the one buffer :meth:`_charge` charges both trees through.
        """
        readers = (self.reader1, self.reader2)
        return (self.governor is not None
                or (self.tracer is not None and self.tracer.sample_pairs > 0)
                or self.reader1.buffer is not self.reader2.buffer
                or any(type(reader) is not MeteredReader
                       or isinstance(reader.pager, FaultyPager)
                       or (reader.tracer is not None
                           and reader.tracer.sample_buffer > 0)
                       for reader in readers))

    def join(self, n1, n2) -> None:
        """SJ over a pair of resident nodes, drained to completion."""
        self.push(n1, n2)
        self.drain()

    # -- phase 1: breadth-first frontier planning ---------------------------

    def _plan(self, root: _ReplayFrame) -> list[_LevelPlan]:
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
                    # its path, so the replay's NA check is guaranteed
                    # to trip before deeper plans are ever read.
                    break
            pages1 = plan.child1
            pages2 = plan.child2
            l1, l2 = plan.child_l1, plan.child_l2
            depth += 1
        return plans

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
        the full ``a*b`` block, and everything the replay charges or a
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
        return plan

    # -- phase 2: charging, in bulk or by a depth-first replay -------------

    def _charge(self, plans: list[_LevelPlan]) -> None:
        """Charge a complete plan as :meth:`_replay` would, in bulk.

        The ``ReadPage`` order is the visit tree's preorder: an item's
        two fetches, then its child visit's items, then its next
        sibling.  Subtree sizes (in items that fetch) are summed bottom
        up over each depth's ``qual_start``, and each item's preorder
        position handed top down from its parent's, so the fetches land
        in one ordered array (R1/R2 per ``fetch2_first``) without a
        walk; the pinned roots :meth:`_fetch1`/:meth:`_fetch2` read
        uncharged are dropped from it.  One
        :meth:`~repro.storage.BufferManager.access_many` call over that
        array gives the hits, NA/DA per tree and level are counted from
        them, and the comparisons, pair count and pairs follow from the
        plan's totals.
        """
        base = self.pair_count
        fetching = plans[:-1] if plans[-1].kind == "leaf" else plans
        # first[d][k]: the items, their descendants included, before
        # item k of depth d — prefix sums of the subtree sizes.
        first = [None] * len(fetching)
        for d in reversed(range(len(fetching))):
            size = np.ones(fetching[d].qual_total, dtype=np.int64)
            if d + 1 < len(fetching):
                qs, below = plans[d + 1].qual_start, first[d + 1]
                size += below.take(qs[1:]) - below.take(qs[:-1])
            first[d] = np.concatenate(([0], np.cumsum(size)))
        n = int(first[0][-1]) if fetching else 0
        sides = np.empty(2 * n, dtype=np.int64)
        levels = np.empty(2 * n, dtype=np.int64)
        pages = np.empty(2 * n, dtype=np.int64)
        pos = np.full(1, -1, dtype=np.int64)   # the root visit fetches nothing
        for plan, before in zip(fetching, first):
            # An item comes right after its parent and the subtrees of
            # its elder siblings.
            qs = plan.qual_start
            pos = (before[:-1] + np.repeat(pos + 1 - before.take(qs[:-1]),
                                           np.diff(qs)))
            at1 = 2 * pos + plan.fetch2_first
            at2 = 2 * pos + (not plan.fetch2_first)
            sides[at1], levels[at1], pages[at1] = 0, plan.child_l1, plan.child1
            sides[at2], levels[at2], pages[at2] = 1, plan.child_l2, plan.child2
        charged = pages != np.where(sides == 0, self.pinned1, self.pinned2)
        sides, levels, pages = (sides[charged], levels[charged],
                                pages[charged])
        readers = (self.reader1, self.reader2)
        hits = self.reader1.buffer.access_many(
            tuple(reader.label for reader in readers), sides, levels, pages)
        for side, reader in enumerate(readers):
            mine = sides == side
            na = np.bincount(levels[mine])
            da = np.bincount(levels[mine & ~hits], minlength=len(na))
            for level in np.flatnonzero(na).tolist():
                reader.stats.record_counts(reader.label, level,
                                           int(na[level]), int(da[level]))
        self.comparisons += sum(int(plan.cost.sum()) for plan in plans)
        if plans[-1].kind == "leaf":
            self.pair_count += plans[-1].qual_total
        self.stack.pop()
        self._emit(plans, base)

    def _replay(self, root: _ReplayFrame, plans: list[_LevelPlan]) -> None:
        """Charge the planned visit tree in ``ReadPage`` order, one
        descent at a time: the run :meth:`_stepwise` says can stop or
        must be watched mid-way.

        Each turn of the loop opens one visit — a leaf visit is counted
        whole, any other joins ``work`` — then makes the next descent:
        the next qualifying item of the innermost open visit, its two
        fetches in the stack machine's order.  That is O(NA) steps
        under every enumeration; the pairs are collected once, by
        :meth:`_emit`, when the replay returns or trips.

        The governor is polled where a budget can newly trip, which is
        where the stack machine's poll before every item first sees it:
        NA and DA move only in a descent and the result count only in a
        leaf visit, so the poll comes after each descent (before the
        child is looked at — one past the slicer horizon is never
        read) and, under a result budget, after the pair that spends
        it.  A deadline or a cancellation lands on the same boundaries,
        at most one node pair late.  The frames, cursors and exact
        comparison count a checkpoint reads are derived by
        :meth:`_trip`, and only then.
        """
        plans = [plan.listed() for plan in plans]
        governor = self.governor
        limit = governor.budget.max_results if governor is not None else None
        sampling = self.tracer is not None and self.tracer.sample_pairs > 0
        fetch1, fetch2 = self._fetch1, self._fetch2
        base = self.pair_count
        # Open non-leaf visits, root first, as [depth, visit, next
        # qualifying index, end]: an item's index is its child's visit
        # index, so pages and cursors follow from these and the plans.
        work: list[list[int]] = []
        depth = v = 0           # the visit being opened ...
        cursor = 0              # ... and how far into it a trip finds us
        try:
            while True:
                if governor is not None:
                    governor.check(self.stats, self.pair_count)
                    if depth == len(plans):
                        raise RuntimeError(
                            "level-batch sub-budget slicer reached an "
                            "unplanned depth without a budget trip")
                plan = plans[depth]
                start = plan.qual_start[v]
                end = plan.qual_start[v + 1]
                # Charged whole on opening; _trip takes back what an
                # open visit has not got to.
                self.comparisons += plan.cost[v]
                if plan.kind != "leaf":
                    work.append([depth, v, start, end])
                else:
                    full = limit is not None \
                        and end - start >= limit - self.pair_count
                    if full:
                        # The pair that spends the result budget ends
                        # the visit here; the poll after it trips, with
                        # the leaf frame still open.
                        end = start + limit - self.pair_count
                        cursor = self._cursor(plan, v, end)
                    self.pair_count += end - start
                    if sampling:
                        self._sample(root, plans, depth, v, cursor if full
                                     else self._cursor(plan, v, end + 1))
                    if full:
                        governor.check(self.stats, self.pair_count)
                while True:
                    if not work:
                        self.stack.pop()
                        self._emit(plans, base)
                        return
                    frame = work[-1]
                    depth, v, idx, end = frame
                    plan = plans[depth]
                    if sampling:
                        # idx == end consumes the visit's trailing items.
                        self._sample(root, plans, depth, v,
                                     self._cursor(plan, v, idx + 1)
                                     - self._cursor(plan, v, idx))
                    if idx < end:
                        break
                    work.pop()
                frame[2] = idx + 1
                p1 = plan.child1[idx]
                p2 = plan.child2[idx]
                if plan.fetch2_first:
                    fetch2(p2, plan.child_l2)
                    fetch1(p1, plan.child_l1)
                else:
                    fetch1(p1, plan.child_l1)
                    fetch2(p2, plan.child_l2)
                depth, v = depth + 1, idx
        except (BudgetExceeded, Cancelled):
            self._emit(plans, base)
            self._trip(root, plans, work, depth, v, cursor)
            raise

    def _emit(self, plans: list[_LevelPlan], base: int) -> None:
        """Collect the pairs the replay counted past ``base``, in one
        slice: depth-first order opens the leaf visits in index order,
        so they are the first ``pair_count - base`` leaf items."""
        n = self.pair_count - base
        if self.collect_pairs and n:
            leaf = plans[-1]
            self.pairs.extend(zip(leaf.child1[:n].tolist(),
                                  leaf.child2[:n].tolist()))

    @staticmethod
    def _cursor(plan: _LevelPlan, v: int, idx: int) -> int:
        """The stack machine's cursor in visit ``v`` once the visit's
        qualifying items before global index ``idx`` are consumed; an
        ``idx`` past the visit's last one means its trailing items are
        too (the frame is exhausted)."""
        start, end = plan.qual_start[v], plan.qual_start[v + 1]
        if not plan.raw:
            return min(idx, end) - start
        if idx > end:
            return plan.cost[v]
        return plan.qual_pos[idx - 1] + 1 if idx > start else 0

    @staticmethod
    def _frame(root: _ReplayFrame, plans: list[_LevelPlan], depth: int,
               v: int, cursor: int) -> _ReplayFrame:
        """Visit ``v`` of ``depth`` as a frame: the node pair that item
        ``v`` of the depth above fetched."""
        if depth == 0:
            return _ReplayFrame(root.n1, root.n2, cursor)
        up = plans[depth - 1]
        return _ReplayFrame(_PageRef(up.child1[v], up.child_l1),
                            _PageRef(up.child2[v], up.child_l2), cursor)

    def _sample(self, root: _ReplayFrame, plans: list[_LevelPlan],
                depth: int, v: int, consumed: int) -> None:
        """Count ``consumed`` more items of a visit (the skipped
        non-qualifying ones included) and emit the sampled ones."""
        every = self.tracer.sample_pairs
        seen = self.visits
        self.visits = seen + consumed
        sampled = range(seen - seen % every + every, self.visits + 1, every)
        if sampled:
            at = self._frame(root, plans, depth, v, 0)
            for visit in sampled:
                self.tracer.node_pair(self.join_id, visit,
                                      at.n1.page_id, at.n1.level,
                                      at.n2.page_id, at.n2.level)

    def _trip(self, root: _ReplayFrame, plans: list[_LevelPlan],
              work: list[list[int]], depth: int, v: int,
              cursor: int) -> None:
        """Leave the state a stack machine stopped at this poll leaves:
        one frame per open visit, root first, and comparisons exact to
        the last consumed item."""
        visits = [(d, u, self._cursor(plans[d], u, idx))
                  for d, u, idx, _end in work]
        frames = []
        for d, u, at in visits + [(depth, v, cursor)]:
            # A visit at cursor 0 was polled before it was charged.
            if at and plans[d].raw:
                self.comparisons -= plans[d].cost[u] - at
            frames.append(self._frame(root, plans, d, u, at))
        self.stack[-1:] = frames
