"""Simulated parallel spatial join (the paper's §5 / [BKS96] item).

The paper lists "parallel processing of spatial join" as future work,
citing Brinkhoff et al.'s approach: decompose the join into independent
subtree-pair tasks and spread them over processors with their own disks.
This module simulates exactly that:

* **tasks** — the overlapping pairs of root entries (one subtree from
  each tree); every SJ recursion below the roots belongs to exactly one
  task, so tasks partition the work and the union of their outputs is
  the sequential join's output;
* **workers** — each worker owns a private path buffer ("its own disk"),
  executes its tasks sequentially, and accumulates its own NA/DA;
* **assignment** — round-robin, or greedy longest-processing-time using
  the per-task cost estimate the paper's own formulas enable (the
  overlap-area of the two subtree MBRs as the cost proxy);
* **makespan** — the parallel cost is the maximum per-worker DA, the
  quantity a shared-nothing parallel SDBMS waits for.

Three execution modes drive the workers.  ``"serial"`` (default) runs
the buckets one after another in the calling thread — fully
deterministic.  ``"threads"`` runs each bucket in a thread pool: the
access accounting is identical (workers share nothing but the
read-only pagers).  ``"processes"`` runs each bucket in its own OS
process — real CPU parallelism for the vectorized enumerators, in the
shared-nothing setting of [BKS96]: every worker has its own pager and
path buffer over both trees, executes its bucket and ships plain-data
results back; the coordinator merges the per-worker
:class:`~repro.storage.AccessStats` into counters equal to the serial
mode's.  How the two pools are driven — the abort token that drains
sibling threads, the rebased worker budget and coordinator polling of
the process pool, the watchdog and the crash policy — is the business
of :mod:`repro.join.fanout`, the one driver this join shares with the
PBSM engine's tiles.
"""

from __future__ import annotations

from ..exec import ExecutionGovernor
from ..exec.budget import Budget, BudgetExceeded, Cancelled
from ..exec.config import (ASSIGNMENT_STRATEGIES, EXECUTION_MODES,
                           ON_WORKER_CRASH, ExecutionConfig)
from ..rtree import RTreeBase
from ..rtree.arena_view import ArenaTreeHandle, share_tree
from ..storage import AccessStats, MeteredReader, PathBuffer
from .batch import arena_pair
from .fanout import WorkerCrashed, fan_out, worker_governor
from .predicates import OVERLAP, JoinPredicate
from .result import R1, R2
from .sync import select_traversal, traversal_state

__all__ = ["parallel_spatial_join", "ParallelJoinResult",
           "ASSIGNMENT_STRATEGIES", "EXECUTION_MODES",
           "ON_WORKER_CRASH", "WorkerCrashed"]

# ASSIGNMENT_STRATEGIES / EXECUTION_MODES / ON_WORKER_CRASH are
# canonically defined on repro.exec.ExecutionConfig, WorkerCrashed on
# repro.join.fanout; both are re-exported here for compatibility.


class ParallelJoinResult:
    """Outcome of a simulated parallel SJ execution (``engine`` and
    ``fallback`` as on :class:`~repro.join.JoinResult`)."""

    def __init__(self, pairs: list[tuple[int, int]],
                 worker_stats: list[AccessStats], pair_count: int, *,
                 engine: str | None = None, fallback: str | None = None):
        self.pairs = pairs
        self.worker_stats = worker_stats
        self.pair_count = pair_count
        self.engine = engine
        self.fallback = fallback

    @property
    def workers(self) -> int:
        return len(self.worker_stats)

    @property
    def total_na(self) -> int:
        """Summed node accesses over all workers (the resource cost)."""
        return sum(s.na() for s in self.worker_stats)

    @property
    def total_da(self) -> int:
        """Summed disk accesses over all workers."""
        return sum(s.da() for s in self.worker_stats)

    @property
    def makespan_na(self) -> int:
        """Node accesses of the busiest worker (the wall-clock cost)."""
        return max((s.na() for s in self.worker_stats), default=0)

    @property
    def makespan_da(self) -> int:
        """Disk accesses of the busiest worker."""
        return max((s.da() for s in self.worker_stats), default=0)

    def speedup_da(self, sequential_da: int) -> float | None:
        """Wall-clock speedup over a given sequential DA measurement.

        Returns ``None`` — JSON-safe, unlike the ``inf`` it used to
        produce — when the parallel makespan is zero but the sequential
        measurement is not (the ratio is undefined; it previously broke
        every consumer that serialized or formatted the value).
        """
        if self.makespan_da == 0:
            return None if sequential_da > 0 else 1.0
        return sequential_da / self.makespan_da

    def __repr__(self) -> str:
        return (f"ParallelJoinResult(workers={self.workers}, "
                f"pairs={self.pair_count}, "
                f"makespan_da={self.makespan_da}, "
                f"total_da={self.total_da})")


def _run_bucket(bucket: list[tuple], tree1: RTreeBase, tree2: RTreeBase,
                root1, root2, predicate: JoinPredicate,
                collect_pairs: bool,
                governor: ExecutionGovernor | None,
                config: ExecutionConfig, metrics=None,
                ) -> tuple[AccessStats, list[tuple[int, int]], int,
                           object]:
    """Execute one worker's task bucket against a private buffer.

    This is the worker body for every execution mode; any exception it
    raises carries this function in its traceback, so a failure
    surfacing at the pool boundary still points at the worker code.

    ``metrics`` is a worker-*private*
    :class:`~repro.obs.MetricsRegistry` (or ``None``): the worker
    records its own delta, and ships the registry back as the fourth
    element of the result tuple for the coordinator to merge — no
    shared mutable state between workers.

    The traversal engine is whatever
    :func:`~repro.join.traversal_state` builds for ``config``: on
    level-batch one frontier plan per task over the arenas (in
    ``"processes"`` mode the zero-copy shared-memory arenas of the
    attached :class:`~repro.rtree.ArenaTreeView`), NA/DA/pairs
    identical to the stack machine; unsupported configurations keep the
    stack machine, exactly as in the serial join.
    """
    stats = AccessStats()
    buffer = PathBuffer()                # each worker owns its disk/buffer
    state = traversal_state(
        config, predicate, tree1, tree2,
        MeteredReader(tree1.pager, R1, stats, buffer),
        MeteredReader(tree2.pager, R2, stats, buffer),
        collect_pairs, stats, governor, metrics=metrics)
    for _cost, e1, e2 in bucket:
        if governor is not None:
            governor.check(stats, state.pair_count)
        c1 = (root1 if e1 is None
              else state._fetch1(e1.ref, root1.level - 1))
        c2 = (root2 if e2 is None
              else state._fetch2(e2.ref, root2.level - 1))
        state.join(c1, c2)
    if metrics is not None:
        metrics.counter("worker.count").inc()
        metrics.counter("worker.tasks").inc(len(bucket))
        metrics.counter("worker.pairs").inc(state.pair_count)
        metrics.counter("worker.comparisons").inc(state.comparisons)
        metrics.record_access_stats(stats, prefix="worker")
        if governor is not None:
            metrics.counter("governor.checks").inc(governor.checks)
    return stats, state.pairs, state.pair_count, metrics


def _process_bucket(bucket: list[tuple], tree1: RTreeBase,
                    tree2: RTreeBase, predicate: JoinPredicate,
                    collect_pairs: bool, config: ExecutionConfig,
                    budget: Budget | None,
                    collect_metrics: bool = False,
                    ) -> tuple[dict, list[tuple[int, int]], int,
                               dict | None]:
    """Worker-*process* body: plain picklable data in, plain data out.

    Each tree arrives either as an :class:`ArenaTreeHandle` — the
    shared-memory fast path: the worker attaches the coordinator's
    columnar arena zero-copy and materializes only the nodes its bucket
    visits — or, when there was no arena to export, as a full pickled
    tree copy (private pager included).  Either way the traversal below is
    identical and its NA/DA/pairs are bit-identical to the serial
    join's.

    The governor cannot cross the process boundary (tokens and clocks
    are process-local), so the worker builds a fresh one from the
    shipped budget — whose deadline the coordinator already rebased to
    the time remaining at dispatch — and starts its clock immediately.
    Stats travel back as their ``as_dict`` form because
    :class:`AccessStats` itself is not picklable; with
    ``collect_metrics`` the worker's metric delta ships the same way
    (``MetricsRegistry.as_dict``) for the coordinator to merge.
    """
    if isinstance(tree1, ArenaTreeHandle):
        tree1 = tree1.attach()
    if isinstance(tree2, ArenaTreeHandle):
        tree2 = tree2.attach()
    stats, pairs, count, metrics = _run_bucket(
        bucket, tree1, tree2, tree1.root(), tree2.root(), predicate,
        collect_pairs, worker_governor(budget), config,
        _fresh_metrics(collect_metrics))
    return (stats.as_dict(), pairs, count,
            metrics.as_dict() if metrics is not None else None)


def _decode_bucket(result: tuple) -> tuple:
    """A process worker's result in the shape ``_run_bucket`` returns."""
    stats_doc, pairs, count, metrics_doc = result
    return AccessStats.from_dict(stats_doc), pairs, count, metrics_doc


def parallel_spatial_join(tree1: RTreeBase, tree2: RTreeBase, *,
                          predicate: JoinPredicate = OVERLAP,
                          collect_pairs: bool = True,
                          governor: ExecutionGovernor | None = None,
                          tracer=None, metrics=None,
                          config: ExecutionConfig | None = None,
                          ) -> ParallelJoinResult:
    """Run the SJ join split into subtree-pair tasks over workers.

    The execution knobs — worker count, driving ``mode``, bucket
    ``assignment``, ``pair_enumeration`` kernel, ``traversal`` engine,
    crash policy and watchdog timeout — live on one
    :class:`~repro.exec.ExecutionConfig` passed as ``config``;
    everything after ``tree2`` is keyword-only.
    On the level-batch engine each worker advances its subtree pairs
    frontier-at-a-time through :mod:`repro.join.batch` (process
    workers batch directly over the zero-copy shared-memory arenas of
    their :class:`~repro.rtree.ArenaTreeView`); all counters stay
    identical to the stack machine's.

    The result set equals the sequential join's; only the access
    accounting is partitioned.

    With a ``governor``, every worker runs under a
    :meth:`~repro.exec.ExecutionGovernor.spawn`-ed view of it: the
    budget applies per worker (each worker's own NA/DA — the makespan
    currency), the deadline and cancellation token are shared, and a
    stop raises the typed error at this call's boundary.  Partial mode
    is not supported here (checkpoints describe a single synchronized
    traversal): a partial governor is refused.

    ``mode="threads"`` and ``mode="processes"`` hand the buckets to
    :func:`~repro.join.fanout.fan_out`: the first worker failure is
    re-raised with its original traceback while the siblings drain, and
    a SIGKILLed, OOM-killed or hung worker process can never hang this
    call — ``worker_timeout`` bounds the wait and ``on_worker_crash``
    picks between a typed :class:`WorkerCrashed` naming the lost
    buckets (``"raise"``, the default) and re-running exactly those
    buckets here (``"serial"``; completed buckets are kept, so the
    result equals an undisturbed run's).

    In ``"processes"`` mode, when both trees have an arena, they are
    exported once as columnar arenas in
    ``multiprocessing.shared_memory`` segments and each submission
    ships only the segment names plus the index tables — workers attach
    zero-copy and materialize just the nodes their bucket visits.  The
    segments are unlinked in the driver's ``finally`` (crash and
    governor-stop paths included) with an ``atexit`` backstop for
    abnormal teardown; the coordinator keeps the real trees, so the
    serial re-run stays valid after the segments are gone.  When a
    tree has no arena, or the export raises ``OSError`` (a ``/dev/shm``
    that is too small), a private pickled tree copy goes into every
    worker instead; ``join_start`` records which ``transport`` ran and
    the ``transport_fallback`` reason.

    ``tracer``/``metrics`` are the :mod:`repro.obs` hooks.  Workers
    never touch the tracer (sinks don't cross process boundaries; the
    coordinator emits the per-worker events from the collected
    results), but each worker records into a *private*
    :class:`~repro.obs.MetricsRegistry` whose delta travels back with
    its ``AccessStats`` — in ``"processes"`` mode as a plain dict — and
    is merged into the caller's registry in bucket order.  Both hooks
    are write-only: pairs/NA/DA of an observed run are bit-identical to
    an unobserved one.
    """
    if config is None:
        config = ExecutionConfig()
    workers = config.workers
    mode = config.mode
    if governor is not None and governor.partial:
        raise ValueError(
            "parallel_spatial_join cannot produce partial results; "
            "use a non-partial governor (checkpoints belong to the "
            "synchronized single-traversal join)")
    if tree1.ndim != tree2.ndim:
        raise ValueError(
            f"dimensionality mismatch: {tree1.ndim} vs {tree2.ndim}")
    if config.strategy == "pbsm":
        # The partition engine parallelizes over its own tiles, not
        # over subtree-pair buckets: delegate wholesale and wrap the
        # result.  All build I/O happens on the coordinator's "disk",
        # so the single AccessStats is both the total and the makespan.
        from .partition import partition_spatial_join
        result = partition_spatial_join(
            tree1, tree2, predicate=predicate,
            collect_pairs=collect_pairs, governor=governor,
            tracer=tracer, metrics=metrics, config=config)
        return ParallelJoinResult(result.pairs, [result.stats],
                                  result.pair_count, engine=result.engine,
                                  fallback=result.fallback)

    root1 = tree1.root()
    root2 = tree2.root()
    # Task decomposition depends on which roots are internal:
    #   * both internal  -> one task per overlapping root-entry pair;
    #   * one is a leaf  -> one task per qualifying entry of the
    #     internal root (the pinned leaf root joins each subtree);
    #   * both leaves    -> a single trivial task.
    tasks: list[tuple[float, object, object]] = []
    if not root1.is_leaf and not root2.is_leaf:
        for e2 in root2.entries:         # the paper's loop order
            for e1 in root1.entries:
                if predicate.node_test(e1.rect, e2.rect):
                    cost_proxy = e1.rect.intersection_area(e2.rect)
                    tasks.append((cost_proxy, e1, e2))
    elif root1.is_leaf and not root2.is_leaf:
        if root1.entries:
            mbr1 = root1.mbr()
            for e2 in root2.entries:
                if predicate.node_test(mbr1, e2.rect):
                    tasks.append(
                        (mbr1.intersection_area(e2.rect), None, e2))
    elif not root1.is_leaf and root2.is_leaf:
        if root2.entries:
            mbr2 = root2.mbr()
            for e1 in root1.entries:
                if predicate.node_test(e1.rect, mbr2):
                    tasks.append(
                        (e1.rect.intersection_area(mbr2), e1, None))
    else:
        if root1.entries and root2.entries:
            tasks.append((1.0, None, None))

    buckets: list[list[tuple]] = [[] for _ in range(workers)]
    if config.assignment == "round-robin":
        for i, task in enumerate(tasks):
            buckets[i % workers].append(task)
    else:
        # Longest-processing-time greedy: biggest estimated task to the
        # currently least loaded worker.
        loads = [0.0] * workers
        for task in sorted(tasks, key=lambda t: t[0], reverse=True):
            w = loads.index(min(loads))
            buckets[w].append(task)
            loads[w] += task[0]

    # What the workers' traversal_state will decide, decided here first:
    # the trace gets the engine, and the cached whole-tree arenas are
    # warm before any thread worker can race on their lazy build.
    engine, _arenas, fallback = select_traversal(config, predicate,
                                                 tree1, tree2)

    if governor is not None:
        governor.start()                 # deadline shared by all workers

    with_metrics = metrics is not None

    def run_local(bucket, spawned):
        return _run_bucket(bucket, tree1, tree2, root1, root2, predicate,
                           collect_pairs, spawned, config,
                           _fresh_metrics(with_metrics))

    leases: list = []
    shipped = (tree1, tree2)
    transport = transport_fallback = None
    join_id = None
    collected: dict[int, tuple] = {}
    try:
        if mode == "processes":
            shipped, transport_fallback = _export_trees(tree1, tree2, leases)
            transport = "pickle" if transport_fallback else "shared-memory"
        if tracer is not None:
            join_id = tracer.new_join_id()
            tracer.join_start(
                join_id, n1=len(tree1), n2=len(tree2), mode=mode,
                workers=workers, assignment=config.assignment,
                tasks=len(tasks),
                pair_enumeration=config.pair_enumeration,
                engine=engine, fallback=fallback, transport=transport,
                transport_fallback=transport_fallback,
                governed=governor is not None)
        if mode == "serial":
            for index, bucket in enumerate(buckets):
                collected[index] = run_local(
                    bucket,
                    governor.spawn() if governor is not None else None)
        else:
            # Empty stats for the coordinator's own checks: all
            # charging happens in the workers, so only the deadline and
            # the token can trip here.
            fan_out(buckets, run_local,
                    lambda bucket, budget: (
                        _process_bucket, bucket, *shipped, predicate,
                        collect_pairs, config, budget, with_metrics),
                    config=config, governor=governor, stats=AccessStats(),
                    collected=collected, decode=_decode_bucket,
                    tracer=tracer, join_id=join_id, metrics=metrics)
    except (BudgetExceeded, Cancelled) as exc:
        if tracer is not None:
            tracer.budget_trip(join_id, exc.as_dict())
        if metrics is not None:
            metrics.counter("governor.trips").inc()
        raise
    finally:
        for lease in leases:             # the pool is gone: unlink now
            lease.close()

    all_pairs: list[tuple[int, int]] = []
    pair_count = 0
    worker_stats: list[AccessStats] = []
    for index, bucket in enumerate(buckets):
        stats, pairs, count, delta = collected[index]
        worker_stats.append(stats)
        all_pairs.extend(pairs)
        pair_count += count
        if metrics is not None and delta is not None:
            metrics.merge(delta)     # a registry, or a dict from a process
        if tracer is not None:
            tracer.worker_finish(join_id, index, na=stats.na(),
                                 da=stats.da(), pairs=count,
                                 tasks=len(bucket))
    result = ParallelJoinResult(all_pairs, worker_stats, pair_count,
                                engine=engine, fallback=fallback)
    if metrics is not None:
        metrics.counter("parallel.joins").inc()
        if fallback is not None:
            metrics.counter(f"join.fallback.{fallback}").inc()
        hist = metrics.histogram("parallel.worker_da")
        for stats in worker_stats:
            hist.observe(stats.da())
    if tracer is not None:
        tracer.join_finish(join_id, na=result.total_na,
                           da=result.total_da, pairs=result.pair_count,
                           complete=True, mode=mode,
                           makespan_na=result.makespan_na,
                           makespan_da=result.makespan_da)
    return result


def _export_trees(tree1: RTreeBase, tree2: RTreeBase, leases: list):
    """What crosses the process boundary, from what this process can
    observe: ``((ship1, ship2), why)``.

    With ``why`` ``None`` both are :class:`ArenaTreeHandle` s of
    shared-memory exports whose leases were appended to ``leases``.
    Otherwise both are the trees themselves, to be pickled into every
    worker, because a tree has no arena (an :func:`arena_pair` reason)
    or creating a segment raised ``OSError`` (``"export-failed"``: a
    ``/dev/shm`` that is too small; what was exported before it is
    unlinked here).
    """
    arenas, why = arena_pair(tree1, tree2)
    if arenas is None:
        return (tree1, tree2), why
    handles = []
    try:
        for tree in (tree1, tree2):
            handle, lease = share_tree(tree)
            leases.append(lease)
            handles.append(handle)
    except OSError:
        while leases:
            leases.pop().close()
        return (tree1, tree2), "export-failed"
    return tuple(handles), None


def _fresh_metrics(enabled: bool):
    """A worker-private registry, or ``None`` when metrics are off."""
    if not enabled:
        return None
    from ..obs import MetricsRegistry   # local import: obs is optional
    return MetricsRegistry()
