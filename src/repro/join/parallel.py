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
of :mod:`repro.join.fanout`; admission, the trip handling and the
telemetry around the whole join are :class:`~repro.join.run.JoinRun`'s,
as for every engine.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..exec import ExecutionGovernor
from ..exec.budget import Budget
from ..exec.config import (ASSIGNMENT_STRATEGIES, EXECUTION_MODES,
                           ON_WORKER_CRASH, ExecutionConfig)
from ..reliability import FaultyPager
from ..rtree import RTreeBase
from ..rtree.arena_view import ArenaTreeHandle, share_tree
from ..storage import AccessStats, MeteredReader, PathBuffer
from .fanout import WorkerCrashed, fan_out, worker_governor
from .predicates import OVERLAP, JoinPredicate
from .result import R1, R2, JoinResult, PairList
from .run import JoinRun
from .sync import select_traversal, traversal_state

__all__ = ["parallel_spatial_join", "ParallelJoinResult",
           "ASSIGNMENT_STRATEGIES", "EXECUTION_MODES",
           "ON_WORKER_CRASH", "WorkerCrashed"]

# ASSIGNMENT_STRATEGIES / EXECUTION_MODES / ON_WORKER_CRASH are
# canonically defined on repro.exec.ExecutionConfig, WorkerCrashed on
# repro.join.fanout; both are re-exported here for compatibility.


class ParallelJoinResult(JoinResult):
    """Outcome of a simulated parallel SJ execution.

    A :class:`~repro.join.JoinResult` whose ``stats`` are the workers'
    counters merged (so ``na_total``/``da_total``/``na(tree)`` read as
    on a serial join's result) with the partition kept beside them in
    ``worker_stats``.  ``comparisons`` sums the workers' and the
    root-pair decomposition's predicate evaluations: under the
    ``nested-loop`` and ``vectorized`` enumerations it equals the
    serial join's; under the plane-sweep enumerations it differs by the
    root level, which is always decomposed by nested loops.
    """

    def __init__(self, pairs: Iterable,
                 worker_stats: list[AccessStats], pair_count: int,
                 comparisons: int = 0, *,
                 engine: str | None = None, fallback: str | None = None):
        merged = AccessStats()
        for stats in worker_stats:
            merged.merge(stats)
        super().__init__(pairs, merged, comparisons, pair_count,
                         engine=engine, fallback=fallback)
        self.worker_stats = worker_stats

    @property
    def workers(self) -> int:
        return len(self.worker_stats)

    @property
    def total_na(self) -> int:
        """Summed node accesses over all workers (the resource cost)."""
        return self.na_total

    @property
    def total_da(self) -> int:
        """Summed disk accesses over all workers."""
        return self.da_total

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
                ) -> tuple[AccessStats, PairList, int, int, object]:
    """Execute one worker's task bucket against a private buffer.

    This is the worker body for every execution mode; any exception it
    raises carries this function in its traceback, so a failure
    surfacing at the pool boundary still points at the worker code.

    ``metrics`` is a worker-*private*
    :class:`~repro.obs.MetricsRegistry` (or ``None``): the worker
    records its own delta, and ships the registry back as the last
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
    return (stats, PairList.of(state.pairs), state.pair_count,
            state.comparisons, metrics)


def _process_bucket(bucket: list[tuple], tree1: RTreeBase,
                    tree2: RTreeBase, predicate: JoinPredicate,
                    collect_pairs: bool, config: ExecutionConfig,
                    budget: Budget | None,
                    collect_metrics: bool = False,
                    ) -> tuple[dict, PairList, int, int, dict | None]:
    """Worker-*process* body: plain picklable data in, plain data out.

    Each tree arrives either as an :class:`ArenaTreeHandle` — the
    shared-memory fast path: the worker attaches the coordinator's
    columnar arena zero-copy and materializes only the nodes its bucket
    visits — or, when the export failed, as a full pickled tree copy
    (private pager included).  Either way the traversal below is
    identical and its NA/DA/pairs are bit-identical to the serial
    join's.

    The governor cannot cross the process boundary (tokens and clocks
    are process-local), so the worker builds a fresh one from the
    shipped budget — whose deadline the coordinator already rebased to
    the time remaining at dispatch — and starts its clock immediately.
    Stats travel back as their ``as_dict`` form because
    :class:`AccessStats` itself is not picklable, the pairs as the two
    arrays of their :class:`~repro.join.PairList`; with
    ``collect_metrics`` the worker's metric delta ships the same way
    (``MetricsRegistry.as_dict``) for the coordinator to merge.
    """
    if isinstance(tree1, ArenaTreeHandle):
        tree1 = tree1.attach()
    if isinstance(tree2, ArenaTreeHandle):
        tree2 = tree2.attach()
    stats, *counted, metrics = _run_bucket(
        bucket, tree1, tree2, tree1.root(), tree2.root(), predicate,
        collect_pairs, worker_governor(budget), config,
        _fresh_metrics(collect_metrics))
    return (stats.as_dict(), *counted,
            metrics.as_dict() if metrics is not None else None)


def _decode_bucket(result: tuple) -> tuple:
    """A process worker's result in the shape ``_run_bucket`` returns."""
    stats_doc, *rest = result
    return (AccessStats.from_dict(stats_doc), *rest)


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
    stop raises the typed error at this call's boundary.  Admission
    control prices the whole join once, before any worker starts, as
    for :func:`~repro.join.spatial_join`.  Partial mode is not
    supported here (checkpoints describe a single synchronized
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

    In ``"processes"`` mode both trees are exported once as columnar
    arenas in ``multiprocessing.shared_memory`` segments and each
    submission
    ships only the segment names plus the index tables — workers attach
    zero-copy and materialize just the nodes their bucket visits.  The
    segments are unlinked in the driver's ``finally`` (crash and
    governor-stop paths included) with an ``atexit`` backstop for
    abnormal teardown; the coordinator keeps the real trees, so the
    serial re-run stays valid after the segments are gone.  When the
    export raises ``OSError`` (a ``/dev/shm`` that is too small), a
    private pickled tree copy goes into every worker instead;
    ``join_start`` records which ``transport`` ran and the
    ``transport_fallback`` reason (``"export-failed"``).  A tree whose
    pager injects faults is refused with ``ValueError``: a worker
    process reads the exported arena, or unpickles its own copy of the
    injector, so it could never reproduce the serial fault sequence.

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
    if config.strategy == "pbsm":
        raise ValueError(
            "parallel_spatial_join decomposes the synchronized "
            "traversal; strategy='pbsm' runs in the calling thread "
            "(spatial_join or partition_spatial_join)")
    if mode == "processes" and any(isinstance(tree.pager, FaultyPager)
                                   for tree in (tree1, tree2)):
        raise ValueError(
            "mode='processes' cannot inject faults: a worker process "
            "would not draw from this process's injector")
    run = JoinRun(tree1, tree2, config, governor=governor, tracer=tracer,
                  metrics=metrics)

    root1 = tree1.root()
    root2 = tree2.root()
    # Task decomposition depends on which roots are internal:
    #   * both internal  -> one task per overlapping root-entry pair;
    #   * one is a leaf  -> one task per qualifying entry of the
    #     internal root (the pinned leaf root joins each subtree);
    #   * both leaves    -> a single trivial task.
    # A task is ``(cost proxy, e1, e2)``, ``None`` standing for a leaf
    # root joined whole; ``root_tests`` counts the predicate
    # evaluations spent here, the comparisons the serial join charges
    # to its root pair.
    sides = [[(e.rect, e) for e in root.entries] if not root.is_leaf
             else [(root.mbr(), None)] if root.entries else []
             for root in (root1, root2)]
    if root1.is_leaf and root2.is_leaf:
        root_tests = 0
        tasks = [(1.0, None, None)] if sides[0] and sides[1] else []
    else:
        root_tests = len(sides[0]) * len(sides[1])
        tasks = [(r1.intersection_area(r2), e1, e2)
                 for r2, e2 in sides[1]  # the paper's loop order
                 for r1, e1 in sides[0]
                 if predicate.node_test(r1, r2)]

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

    with_metrics = metrics is not None

    def run_local(bucket, spawned):
        return _run_bucket(bucket, tree1, tree2, root1, root2, predicate,
                           collect_pairs, spawned, config,
                           _fresh_metrics(with_metrics))

    leases: list = []
    shipped = (tree1, tree2)
    transport = transport_fallback = None
    collected: dict[int, tuple] = {}

    def work() -> None:
        if mode == "serial":
            for index, bucket in enumerate(buckets):
                collected[index] = run_local(
                    bucket,
                    governor.spawn() if governor is not None else None)
        else:
            fan_out(buckets, run_local,
                    lambda bucket, budget: (
                        _process_bucket, bucket, *shipped, predicate,
                        collect_pairs, config, budget, with_metrics),
                    _decode_bucket, config=config, governor=governor,
                    collected=collected, tracer=tracer,
                    join_id=run.join_id, metrics=metrics)

    def conclude() -> ParallelJoinResult:
        # Bucket order; a bucket a stop interrupted contributes nothing.
        parts: list[PairList] = []
        pair_count = 0
        comparisons = root_tests
        worker_stats: list[AccessStats] = []
        for index in sorted(collected):
            stats, pairs, count, compared, delta = collected[index]
            worker_stats.append(stats)
            parts.append(pairs)
            pair_count += count
            comparisons += compared
            if metrics is not None and delta is not None:
                metrics.merge(delta)  # a registry, or a dict from a process
            if tracer is not None:
                tracer.worker_finish(run.join_id, index, na=stats.na(),
                                     da=stats.da(), pairs=count,
                                     tasks=len(buckets[index]))
        if metrics is not None:
            metrics.counter("parallel.joins").inc()
            hist = metrics.histogram("parallel.worker_da")
            for stats in worker_stats:
                hist.observe(stats.da())
        return ParallelJoinResult(PairList.concat(parts), worker_stats,
                                  pair_count, comparisons, engine=engine,
                                  fallback=fallback)

    try:
        if mode == "processes":
            shipped, transport_fallback = _export_trees(tree1, tree2, leases)
            transport = "pickle" if transport_fallback else "shared-memory"
        # Every worker owns a path buffer ("its own disk").
        run.start(engine, fallback, "path", mode=mode, workers=workers,
                  assignment=config.assignment, tasks=len(tasks),
                  transport=transport,
                  transport_fallback=transport_fallback)
        return run.execute(work, conclude)
    finally:
        for lease in leases:             # the pool is gone: unlink now
            lease.close()


def _export_trees(tree1: RTreeBase, tree2: RTreeBase, leases: list):
    """What crosses the process boundary: ``((ship1, ship2), why)``.

    With ``why`` ``None`` both are :class:`ArenaTreeHandle` s of
    shared-memory exports whose leases were appended to ``leases``.
    Otherwise both are the trees themselves, to be pickled into every
    worker, because creating a segment raised ``OSError``
    (``"export-failed"``: a ``/dev/shm`` that is too small; what was
    exported before it is unlinked here).
    """
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
