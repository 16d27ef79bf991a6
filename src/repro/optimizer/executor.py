"""Plan execution: run an optimized plan against real indexes.

The optimizer prices plans with the paper's formulas; the executor runs
them, so predicted and actual costs can be compared end to end — the
loop a real SDBMS closes.  Execution semantics:

* :class:`~.plans.IndexScanPlan` — resolves to a built R-tree from the
  supplied index registry (no I/O of its own; consumers drive reads);
* :class:`~.plans.SpatialJoinPlan` — the SJ synchronized traversal with
  a path buffer, honouring the plan's data/query role assignment;
* :class:`~.plans.PBSMJoinPlan` — the partition-based engine
  (``strategy="pbsm"``): both trees scanned once into a uniform grid,
  tiles plane-swept in memory;
* :class:`~.plans.IndexNestedLoopPlan` — executes its stream sub-plan,
  then probes the indexed relation once per streamed tuple, with the
  tuple's combined MBR as the window.

A result tuple is ``(joined MBR, components)`` where ``components`` maps
relation names to object ids — enough to verify executor output against
a naive multi-way join in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec import ExecutionGovernor
from ..exec.config import ExecutionConfig
from ..geometry import Rect
from ..rtree import RTreeBase
from ..storage import AccessStats, MeteredReader, PathBuffer
from .plans import (IndexNestedLoopPlan, IndexScanPlan, PBSMJoinPlan,
                    Plan, SpatialJoinPlan)

__all__ = ["execute_plan", "ExecutionResult", "ResultTuple"]


@dataclass(frozen=True)
class ResultTuple:
    """One joined result: its MBR plus per-relation object ids."""

    rect: Rect
    components: tuple[tuple[str, int], ...]

    def oid(self, relation: str) -> int:
        """This tuple's object id for one of its relations."""
        for name, oid in self.components:
            if name == relation:
                return oid
        raise KeyError(f"{relation!r} not in this tuple")


class ExecutionResult:
    """Tuples plus the measured I/O of executing a plan."""

    def __init__(self, tuples: list[ResultTuple], stats: AccessStats):
        self.tuples = tuples
        self.stats = stats

    @property
    def cardinality(self) -> int:
        return len(self.tuples)

    @property
    def da_total(self) -> int:
        """Measured disk accesses (the metric plans are priced in)."""
        return self.stats.da()

    @property
    def na_total(self) -> int:
        return self.stats.na()

    def key_set(self) -> set[tuple[tuple[str, int], ...]]:
        """Canonical component sets, for output comparison in tests."""
        return {tuple(sorted(t.components)) for t in self.tuples}

    def __repr__(self) -> str:
        return (f"ExecutionResult(tuples={len(self.tuples)}, "
                f"NA={self.na_total}, DA={self.da_total})")


def execute_plan(plan: Plan, indexes: dict[str, RTreeBase],
                 governor: ExecutionGovernor | None = None, *,
                 tracer=None, metrics=None,
                 config: ExecutionConfig | None = None,
                 ) -> ExecutionResult:
    """Run a plan against real trees keyed by relation name.

    A ``governor`` rides through every plan operator: the SJ node checks
    it per node-pair visit (against its own traversal counters, merged
    into the plan totals when it finishes), the INL node per streamed
    probe against the accumulated plan counters and result count.
    Partial mode is refused — a multi-operator plan has no single
    resumable frontier; use :meth:`repro.join.SpatialJoin.run` directly
    for checkpointable joins.  ``config``
    (:class:`~repro.exec.ExecutionConfig`) carries the execution knobs;
    its ``pair_enumeration`` selects the node-pair matching kernel for
    every SJ operator in the plan (see
    :data:`~repro.join.PAIR_ENUMERATIONS`); DA — what plans are priced
    in — is identical across kernels except the plane sweeps' slightly
    shifted buffer-hit pattern.

    ``tracer``/``metrics`` are the :mod:`repro.obs` hooks: every SJ
    operator in the plan runs traced/metered, and the plan's end-to-end
    totals are reported as a ``plan_finish`` event and ``plan.*``
    counters.  Both are write-only — executing an observed plan yields
    the same tuples and counters as an unobserved one.
    """
    if config is None:
        config = ExecutionConfig()
    if governor is not None and governor.partial:
        raise ValueError(
            "execute_plan cannot produce partial results; run the join "
            "operator directly for checkpoint/resume")
    stats = AccessStats()
    if governor is not None:
        governor.start()
    tuples = _execute(plan, indexes, stats, governor, config,
                      tracer, metrics)
    if tracer is not None:
        tracer.emit("plan_finish", plan=type(plan).__name__,
                    tuples=len(tuples), na=stats.na(), da=stats.da())
    if metrics is not None:
        metrics.counter("plan.count").inc()
        metrics.counter("plan.tuples").inc(len(tuples))
        metrics.record_access_stats(stats, prefix="plan")
    return ExecutionResult(tuples, stats)


def _execute(plan: Plan, indexes: dict[str, RTreeBase],
             stats: AccessStats, governor: ExecutionGovernor | None,
             config: ExecutionConfig, tracer, metrics,
             ) -> list[ResultTuple]:
    if isinstance(plan, IndexScanPlan):
        return _execute_scan(plan, indexes)
    if isinstance(plan, SpatialJoinPlan):
        return _execute_join(plan, indexes, stats, governor,
                             config, tracer, metrics)
    if isinstance(plan, PBSMJoinPlan):
        # The partition engine runs in the calling thread; a worker
        # count meant for the plan's other operators stays with them.
        return _execute_join(plan, indexes, stats, governor,
                             config.with_options(strategy="pbsm",
                                                 workers=1),
                             tracer, metrics)
    if isinstance(plan, IndexNestedLoopPlan):
        return _execute_inl(plan, indexes, stats, governor,
                            config, tracer, metrics)
    raise TypeError(f"cannot execute plan node {type(plan).__name__}")


def _tree_for(plan: IndexScanPlan,
              indexes: dict[str, RTreeBase]) -> RTreeBase:
    name = plan.entry.name
    try:
        return indexes[name]
    except KeyError:
        raise KeyError(
            f"no index registered for relation {name!r}") from None


def _execute_scan(plan: IndexScanPlan,
                  indexes: dict[str, RTreeBase]) -> list[ResultTuple]:
    """Materialise a base relation (only sensible as a plan root)."""
    tree = _tree_for(plan, indexes)
    name = plan.entry.name
    return [ResultTuple(e.rect, ((name, e.ref),))
            for e in tree.leaf_entries()]


def _execute_join(plan: SpatialJoinPlan | PBSMJoinPlan,
                  indexes: dict[str, RTreeBase], stats: AccessStats,
                  governor: ExecutionGovernor | None,
                  config: ExecutionConfig, tracer, metrics,
                  ) -> list[ResultTuple]:
    """Either binary join operator; ``config.strategy`` names the engine."""
    from ..join import SpatialJoin   # local import: avoids a cycle

    tree1 = _tree_for(plan.data, indexes)
    tree2 = _tree_for(plan.query, indexes)
    join = SpatialJoin(tree1, tree2, buffer=PathBuffer(),
                       governor=governor, tracer=tracer,
                       metrics=metrics, config=config)
    result = join.run(collect_pairs=True)
    stats.merge(result.stats)
    return _pair_tuples(plan, tree1, tree2, result.pairs)


def _pair_tuples(plan, tree1: RTreeBase, tree2: RTreeBase,
                 pairs) -> list[ResultTuple]:
    name1 = plan.data.entry.name
    name2 = plan.query.entry.name
    rects1 = {e.ref: e.rect for e in tree1.leaf_entries()}
    rects2 = {e.ref: e.rect for e in tree2.leaf_entries()}
    out = []
    for oid1, oid2 in pairs:
        rect = rects1[oid1].union(rects2[oid2])
        out.append(ResultTuple(rect, ((name1, oid1), (name2, oid2))))
    return out


def _execute_inl(plan: IndexNestedLoopPlan,
                 indexes: dict[str, RTreeBase],
                 stats: AccessStats,
                 governor: ExecutionGovernor | None,
                 config: ExecutionConfig, tracer, metrics,
                 ) -> list[ResultTuple]:
    stream = _execute(plan.stream, indexes, stats, governor,
                      config, tracer, metrics)
    tree = _tree_for(plan.indexed, indexes)
    name = plan.indexed.entry.name
    reader = MeteredReader(tree.pager, name, stats, PathBuffer(),
                           tracer=tracer)
    if metrics is not None:
        metrics.counter("plan.inl_probes").inc(len(stream))

    rects = {e.ref: e.rect for e in tree.leaf_entries()}
    out = []
    for tup in stream:
        if governor is not None:
            governor.check(stats, len(out))
        for oid in tree.range_query(tup.rect, reader=reader):
            rect = tup.rect.union(rects[oid])
            out.append(ResultTuple(
                rect, tup.components + ((name, oid),)))
    return out
