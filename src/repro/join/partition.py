"""PBSM-style partition-based spatial join (grid + per-tile sweep).

The synchronized traversal of :mod:`repro.join.sync` is the paper's
engine; this module is its first real competitor, after Patel &
DeWitt's Partition Based Spatial-Merge join: read the *leaf entries* of
both trees once, scatter them over a uniform grid of tiles, and solve
each tile independently with the plane sweep of
:mod:`repro.join.plane_sweep`.  Tiles share nothing, but they are
solved one after another in the calling thread: a probe of 100 ms is
shorter than a pool start-up, and on both paper-scale workloads a
thread or process pool over the tiles was slower than this loop
(``docs/performance.md`` has the measurement), so
:class:`~repro.exec.ExecutionConfig` refuses ``strategy="pbsm"`` with
``workers > 1``.  The optimizer weighs the engine's one-scan I/O
profile against the traversal's revisit-heavy one
(:func:`repro.optimizer.make_pbsm_join`).

**Columnar throughout.**  Every tree has a
:class:`~repro.geometry.TreeArena` and every predicate a
:meth:`~repro.join.JoinPredicate.pair_mask` kernel (a predicate without
one of its own passes every candidate to its exact test), so the whole
pipeline after the charged page scan runs on the arenas' coordinate
blocks: the scan collects leaf *page ids*, the arena index turns them
into one slot array per tree, the scatter replicates and sorts slots
into CSR tile segments, and each segment pair is probed in place
without a Python loop per opener (``docs/performance.md`` has the
layout).

**NA/DA semantics for a non-tree engine.**  The cost currencies stay
:class:`~repro.storage.AccessStats` charges through a
:class:`~repro.storage.MeteredReader`, so PBSM numbers are directly
comparable with the traversal's: the *partition build* walks each tree
once, charging every non-root page exactly one ``ReadPage`` (roots are
pinned and uncharged, as in Section 3.1) — since no page is ever
re-fetched, ``DA == NA`` for this engine regardless of buffer.  The
*probe* phase runs over the in-memory tiles and charges nothing.  Thus
``NA = DA = (pages(R1) - 1) + (pages(R2) - 1)``, the "one full scan of
each input" floor the optimizer's partitioning cost formula prices.

**Duplicate avoidance (reference-point rule).**  An entry is replicated
into every tile its rectangle touches (the R2 side inflated by the
predicate's :meth:`~repro.join.JoinPredicate.sweep_slack`, so distance
joins stay correct), which would report a pair once per shared tile.
Each candidate pair therefore designates one *reference point* —
per axis ``ref_k = max(lo1_k, lo2_k - slack)``, a point contained in
both (inflated) rectangles whenever the pair can qualify — and is
emitted only by the tile that contains that point.  Tile membership is
the **monotone floor map** ``tile(x) = clamp(floor((x - origin) /
width))``: every coordinate, including degenerate (zero-width)
rectangles and rectangles ending exactly on a tile boundary, maps to
exactly one tile, so the reference point has exactly one owner — no
pair is emitted twice, and because the owner tile lies inside both
rectangles' replication ranges, none is dropped.

**Governance.**  The shared :class:`~repro.exec.ExecutionGovernor` is
checked at every build-phase page read and throughout the probe, per
:data:`_PROBE_CHUNK` candidates — so deadlines, NA/DA budgets (tripping
during the build scan), result budgets and cancellation stop the engine
cleanly.  With
``governor.partial`` a stop yields a
:class:`~repro.join.PartialJoinResult` whose pairs are the union of the
*completed* tiles — PBSM partials carry ``checkpoint=None`` and are
**not resumable** (tile progress is not serialized; re-run the join).
Admission, the trip handling and the telemetry around the engine are
:class:`~repro.join.run.JoinRun`'s, as for every engine.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from ..exec import ExecutionGovernor
from ..exec.config import ExecutionConfig
from ..geometry.arena import run_slots
from ..reliability import RetryPolicy
from ..rtree import RTreeBase
from ..storage import AccessStats, BufferManager, PathBuffer
from .predicates import OVERLAP, JoinPredicate
from .result import R1, R2, JoinResult, PairList
from .run import JoinRun, charged_reader

__all__ = ["partition_spatial_join", "DEFAULT_TILE_TARGET",
           "MAX_TILES_PER_AXIS"]

#: Grid-sizing target: tiles per axis are chosen so an *average* tile
#: holds about this many entries of the larger input (see
#: ``docs/performance.md``).
DEFAULT_TILE_TARGET = 512

#: Upper bound on tiles per axis — past this, replication overhead and
#: per-tile bookkeeping outweigh the smaller sweeps.
MAX_TILES_PER_AXIS = 64

#: Candidate pairs expanded per filter pass (and governor check) of the
#: arena probe; bounds the probe's memory whatever the tile holds.
_PROBE_CHUNK = 8192


class _Grid:
    """The uniform tile grid over the first ``axes`` dimensions.

    ``tile_column`` is the monotone floor-and-clamp map, over a float64
    column, that gives every coordinate exactly one tile — the explicit
    tiebreak for degenerate rectangles and tile-boundary coordinates the
    reference-point rule relies on (module docstring).
    """

    __slots__ = ("origin", "width", "tiles", "axes", "slack")

    def __init__(self, origin: tuple[float, ...],
                 width: tuple[float, ...], tiles: tuple[int, ...],
                 slack: float):
        self.origin = origin
        self.width = width
        self.tiles = tiles
        self.axes = len(tiles)
        self.slack = slack

    def tile_column(self, k: int, x):
        t = ((x - self.origin[k]) / self.width[k]) \
            .astype(np.int64)                # truncates toward zero
        return np.clip(t, 0, self.tiles[k] - 1, out=t)


def _tiles_per_axis(n_entries: int, axes: int,
                    tiles: int | None) -> int:
    """The grid resolution: explicit override, or the density heuristic."""
    if tiles is not None:
        if tiles < 1:
            raise ValueError("tiles must be >= 1")
        return tiles
    per_axis = math.ceil(
        (max(1, n_entries) / DEFAULT_TILE_TARGET) ** (1.0 / axes))
    return max(1, min(int(per_axis), MAX_TILES_PER_AXIS))


def _make_grid(lo: list[float], hi: list[float], per_axis: int,
               slack: float) -> _Grid:
    width = []
    for a, b in zip(lo, hi):
        step = (b - a) / per_axis
        # A degenerate axis (all coordinates equal), or an extent so
        # small that the step underflows to zero, collapses to one tile
        # column; any positive width keeps tile_column well-defined.
        width.append(step if step > 0.0 else 1.0)
    return _Grid(tuple(lo), tuple(width), (per_axis,) * len(lo), slack)


def _scan_leaves(tree: RTreeBase, reader,
                 governor: ExecutionGovernor | None,
                 stats: AccessStats) -> list:
    """The partition build for one tree: one charged read per non-root
    page, in deterministic depth-first order, governor-checked per page.
    Returns the leaf nodes in scan order.
    """
    root = reader.read_pinned(tree.root_id, tree.height)
    if root.is_leaf:
        return [root]
    leaves = []
    stack = [(e.ref, root.level - 1) for e in reversed(root.entries)]
    while stack:
        if governor is not None:
            governor.check(stats)
        page_id, level = stack.pop()
        node = reader.fetch(page_id, level)
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend((e.ref, node.level - 1)
                         for e in reversed(node.entries))
    return leaves


def _leaf_slots(arena, leaves):
    """Arena slots of every entry of the scanned leaves, in scan order."""
    spans = [arena.index[node.page_id] for node in leaves]
    return run_slots(np.array([s[0] for s in spans], dtype=np.int64),
                     np.array([s[1] for s in spans], dtype=np.int64))


def _scatter_arena(grid: _Grid, slots, lo, hi, refs,
                   inflate: float):
    """Replicate each slot into every tile its rectangle touches and
    sort the replicas into CSR tile segments.

    Returns ``(replicas, tile_ids, offsets)``: the replicated slots
    ordered by ``(tile, lo0, hi0, ref)`` — row-major tile id, then the
    sweep key, so every segment is already in sweep order — the ids of
    the occupied tiles ascending, and the ``len(tile_ids) + 1`` segment
    boundaries into ``replicas``.
    """
    first = [grid.tile_column(k, lo[k] - inflate)
             for k in range(grid.axes)]
    span = [grid.tile_column(k, hi[k] + inflate) - first[k] + 1
            for k in range(grid.axes)]
    count = span[0] if grid.axes == 1 else span[0] * span[1]
    total = int(count.sum())
    rep = np.repeat(np.arange(len(slots)), count)
    within = np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    if grid.axes == 1:
        tile = first[0][rep] + within
    else:
        cols = span[1][rep]
        tile = ((first[0][rep] + within // cols) * grid.tiles[1]
                + first[1][rep] + within % cols)
    # lexsort: last key is primary.  The sort is stable, so replicas
    # with equal keys keep scan order.
    order = np.lexsort((refs[rep], hi[0][rep], lo[0][rep], tile))
    tile = tile[order]
    starts = np.flatnonzero(
        np.concatenate(([True], tile[1:] != tile[:-1])))
    return slots[rep[order]], tile[starts], np.append(starts, total)


def _partition_arena(arenas, leaves1, leaves2, axes: int,
                     tiles: int | None, slack: float):
    """Grid, tile tasks and entry/replica counts of the partition.

    A task is ``(tile, slots1, slots2)`` — two sweep-ordered slices of
    the replica arrays.  ``None`` when either input is empty.
    """
    sides = []
    lo_bound = [math.inf] * axes
    hi_bound = [-math.inf] * axes
    for arena, leaves, inflate in ((arenas[0], leaves1, 0.0),
                                   (arenas[1], leaves2, slack)):
        slots = _leaf_slots(arena, leaves)
        if not len(slots):
            return None
        lo, hi = arena._coords[:, :axes].take(slots, axis=2)
        for k in range(axes):
            lo_bound[k] = min(lo_bound[k], float((lo[k] - inflate).min()))
            hi_bound[k] = max(hi_bound[k], float((hi[k] + inflate).max()))
        sides.append((slots, lo, hi, arena._refs[slots], inflate))
    per_axis = _tiles_per_axis(max(len(side[0]) for side in sides), axes,
                               tiles)
    grid = _make_grid(lo_bound, hi_bound, per_axis, slack)
    (rep1, ids1, off1), (rep2, ids2, off2) = (
        _scatter_arena(grid, *side) for side in sides)
    # Ascending tile id is row-major tile order, which keeps the pair
    # list deterministic; one-sided tiles cannot produce pairs.
    common, at1, at2 = np.intersect1d(ids1, ids2, assume_unique=True,
                                      return_indices=True)
    tasks = [((t,) if axes == 1 else divmod(t, per_axis),
              rep1[off1[i]:off1[i + 1]], rep2[off2[j]:off2[j + 1]])
             for t, i, j in np.stack((common, at1, at2), axis=1).tolist()]
    return grid, tasks, (len(sides[0][0]), len(sides[1][0]),
                         len(rep1), len(rep2))


def _probe_tile(arenas, slots1, slots2, predicate: JoinPredicate,
                grid: _Grid, tile: tuple[int, ...], collect_pairs: bool,
                governor: ExecutionGovernor | None, stats: AccessStats,
                base_results: int,
                ) -> tuple[list[PairList], int, int]:
    """One tile's probe: the plane sweep without a loop per opener.

    ``slots1``/``slots2`` are one tile's CSR segments, already in sweep
    order.  The merged opener order of the two-pointer sweep (R1 opens
    key ties) is one ``lexsort`` with a side flag; an opener's first
    partner is the count of other-side openers before it (a
    ``cumsum``), its last the position of ``hi + slack`` among the
    other side's lower bounds (one ``searchsorted`` per side).
    Candidates are expanded :data:`_PROBE_CHUNK` at a time, in sweep
    order, and filtered cheapest-rejection first: the predicate kernel,
    then the reference-point owner rule on the survivors, then the
    exact confirm an inexact kernel needs.  The filters are pure
    per-candidate tests, so their order changes neither the surviving
    pairs nor their order; ``comparisons`` counts every candidate.
    ``base_results`` is the pair count of the tiles already solved, so
    the result budget is enforced against the join's running count.
    The surviving pairs are kept per chunk as their two ``int64`` ref
    columns, in sweep order.
    """
    coords1, coords2 = arenas[0]._coords, arenas[1]._coords
    lo1, hi1 = coords1.take(slots1, axis=2)      # tile-local blocks
    lo2, hi2 = coords2.take(slots2, axis=2)
    refs1, refs2 = arenas[0]._refs[slots1], arenas[1]._refs[slots2]
    slack = grid.slack
    n1 = len(slots1)
    n = n1 + len(slots2)
    position = np.arange(n)
    side = position >= n1                    # False: an R1 opener
    order = np.lexsort((side, np.concatenate((refs1, refs2)),
                        np.concatenate((hi1[0], hi2[0])),
                        np.concatenate((lo1[0], lo2[0]))))
    side = side[order]
    own = np.where(side, order - n1, order)
    before2 = np.cumsum(side) - side         # R2 openers already past
    start = np.where(side, position - before2, before2)
    end = np.concatenate(
        (np.searchsorted(lo2[0], hi1[0] + slack, side="right"),
         np.searchsorted(lo1[0], hi2[0] + slack, side="right")))[order]
    width = np.maximum(end - start, 0)
    upto = np.cumsum(width)
    total = int(upto[-1])

    pairs: list[PairList] = []
    count = 0
    a = done = 0
    while done < total:
        # The shortest run of openers holding a full chunk, as a sweep
        # that flushes once enough candidates are pending.
        b = min(n, int(np.searchsorted(upto, done + _PROBE_CHUNK)) + 1)
        size = int(upto[b - 1]) - done
        w = width[a:b]
        other = np.arange(size) + np.repeat(
            start[a:b] - (upto[a:b] - w - done), w)
        opener = np.repeat(own[a:b], w)
        flipped = np.repeat(side[a:b], w)
        idx1 = np.where(flipped, other, opener)
        idx2 = np.where(flipped, opener, other)
        mask, exact = predicate.pair_mask(
            lo1.take(idx1, axis=1), hi1.take(idx1, axis=1),
            lo2.take(idx2, axis=1), hi2.take(idx2, axis=1))
        idx1, idx2 = idx1[mask], idx2[mask]
        keep = None
        for k in range(grid.axes):
            ref = np.maximum(lo1[k].take(idx1),
                             lo2[k].take(idx2) - slack)
            m = grid.tile_column(k, ref) == tile[k]
            keep = m if keep is None else keep & m
        idx1, idx2 = idx1[keep], idx2[keep]
        if not exact and len(idx1):
            keep = np.array(predicate.confirm(
                lo1.take(idx1, axis=1), hi1.take(idx1, axis=1),
                lo2.take(idx2, axis=1), hi2.take(idx2, axis=1)),
                dtype=bool)
            idx1, idx2 = idx1[keep], idx2[keep]
        count += len(idx1)
        if collect_pairs and len(idx1):
            pairs.append(PairList(refs1[idx1], refs2[idx2]))
        if governor is not None:
            governor.check(stats, base_results + count)
        a, done = b, done + size
    return pairs, count, total


def partition_spatial_join(tree1: RTreeBase, tree2: RTreeBase,
                           buffer: BufferManager | None = None,
                           predicate: JoinPredicate = OVERLAP,
                           collect_pairs: bool = True,
                           retry_policy: RetryPolicy | None = None,
                           governor: ExecutionGovernor | None = None,
                           tracer=None, metrics=None,
                           config: ExecutionConfig | None = None,
                           tiles: int | None = None) -> JoinResult:
    """Join two R-trees with the PBSM partition engine.

    The pair set — both predicates, degenerate and tile-boundary
    rectangles included — equals the synchronized traversal's (the
    property tests in ``tests/test_partition_join.py`` prove it); only
    the I/O profile differs (module docstring).  ``tree1`` is R1 (data
    role), ``tree2`` R2, matching :func:`~repro.join.spatial_join`.

    Parameters mirror the synchronized join where they apply.  Of
    ``config`` only the refusal of a worker pool matters
    (``pair_enumeration``, ``traversal`` and ``mode`` are ignored: tiles
    always sweep, one after another); ``tiles`` overrides the per-axis
    grid resolution (default: the :data:`DEFAULT_TILE_TARGET`
    heuristic).  Partial results carry ``checkpoint=None`` and cannot
    be resumed.  The accuracy ledger is deliberately *not* fed: Eq.
    7/10 price the traversal, and a PBSM measurement would poison the
    estimator's calibration.
    """
    # Whatever the caller's config says, what runs here is PBSM, and
    # the config itself refuses a pool for it.
    config = (config if config is not None
              else ExecutionConfig()).with_options(strategy="pbsm")
    run = JoinRun(tree1, tree2, config, governor=governor, tracer=tracer,
                  metrics=metrics)
    buffer = buffer if buffer is not None else PathBuffer()
    slack = predicate.sweep_slack()
    arenas = tree1.arena(), tree2.arena()
    run.start("pbsm", None, buffer.kind)

    buffer.reset()
    stats = AccessStats()
    #: Per tile, in tile order: ``(pair chunks, count, comparisons)``.
    solved: list[tuple[list[PairList], int, int]] = []
    tasks: list[tuple] = []

    def work() -> None:
        leaves1, leaves2 = (
            _scan_leaves(tree, charged_reader(tree.pager, label, stats,
                                              buffer, retry_policy, tracer),
                         governor, stats)
            for tree, label in ((tree1, R1), (tree2, R2)))
        partition = _partition_arena(arenas, leaves1, leaves2,
                                     min(tree1.ndim, 2), tiles, slack)
        if partition is None:
            return
        grid, tile_tasks, (entries1, entries2,
                           replicas1, replicas2) = partition
        tasks.extend(tile_tasks)
        if tracer is not None:
            tracer.emit(
                "partition", join=run.join_id, tiles=len(tasks),
                grid=list(grid.tiles), entries1=entries1, entries2=entries2,
                replicas1=replicas1, replicas2=replicas2)
        done_count = 0
        for tile, side1, side2 in tasks:
            if governor is not None:
                governor.check(stats, done_count)
            solved.append(_probe_tile(
                arenas, side1, side2, predicate, grid, tile, collect_pairs,
                governor, stats, done_count))
            done_count += solved[-1][1]

    def conclude() -> JoinResult:
        # Ownership makes the tile outputs disjoint, so concatenation
        # in tile order is the exact pair set; a tile a budget trip
        # interrupted contributes nothing.
        pairs = PairList.concat(chain.from_iterable(
            p for p, _, _ in solved))
        if metrics is not None:
            metrics.counter("pbsm.joins").inc()
            metrics.counter("pbsm.tiles").inc(len(tasks))
        return JoinResult(pairs, stats, sum(c for _, _, c in solved),
                          pair_count=sum(n for _, n, _ in solved),
                          engine="pbsm")

    return run.execute(work, conclude)
