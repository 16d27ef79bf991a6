"""The governed join run: the one protocol around every join engine.

A join here is priced before it runs (Eqs. 7/10, from two primitive
properties per data set), admitted or refused on that price, bounded
while it runs and reported when it ends.  None of that is an engine's
business: the synchronized traversal (:mod:`repro.join.sync`), the
partition engine (:mod:`repro.join.partition`) and the bucket-parallel
driver (:mod:`repro.join.parallel`) are *bodies* inside one
:class:`JoinRun`, which owns

* **price → admit** — ``join_start`` (one schema for every engine) and
  the Eq. 7/10 verdict with its ``admission`` event, before any page
  is read;
* **trace → trip** — ``governor.start()`` and the handler of
  :class:`~repro.exec.BudgetExceeded`/:class:`~repro.exec.Cancelled`:
  ``budget_trip``, ``governor.trips``, ``join_finish(complete=False)``,
  then a :class:`~repro.join.PartialJoinResult` or the typed error;
* **report** — ``join_finish``, the ``join.*`` counters, the fallback
  counter, ``governor.checks`` and the accuracy ledger.
"""

from __future__ import annotations

from typing import Callable

from ..exec import ExecutionGovernor, JoinCheckpoint, predict_join_cost
from ..exec.budget import BudgetExceeded, Cancelled
from ..exec.config import ExecutionConfig
from ..reliability import ResilientReader, RetryPolicy
from ..storage import AccessStats, BufferManager, MeteredReader
from .result import JoinResult, PartialJoinResult

__all__ = ["JoinRun", "charged_reader"]


def charged_reader(pager, label: object, stats: AccessStats,
                   buffer: BufferManager, retry_policy: RetryPolicy | None,
                   tracer) -> MeteredReader:
    """The charged access path of one tree: retrying under a policy."""
    if retry_policy is not None:
        return ResilientReader(pager, label, stats, buffer, retry_policy,
                               tracer=tracer)
    return MeteredReader(pager, label, stats, buffer, tracer=tracer)


class JoinRun:
    """One execution of one join under its governor and the write-only
    :mod:`repro.obs` hooks; ``join_id`` is its id in the trace (``None``
    untraced).  Call :meth:`start`, then :meth:`execute` — or, to
    continue a checkpoint, admitted when it first ran, :meth:`execute`
    alone.
    """

    def __init__(self, tree1, tree2, config: ExecutionConfig, *,
                 governor: ExecutionGovernor | None = None,
                 tracer=None, metrics=None, ledger=None):
        if tree1.ndim != tree2.ndim:
            raise ValueError(
                f"dimensionality mismatch: {tree1.ndim} vs {tree2.ndim}")
        self.tree1 = tree1
        self.tree2 = tree2
        self.config = config
        self.governor = governor
        self.tracer = tracer
        self.metrics = metrics
        self.ledger = ledger
        self.join_id = tracer.new_join_id() if tracer is not None else None

    def start(self, engine: str, fallback: str | None, buffer: str,
              mode: str = "serial", workers: int = 1,
              **parallel) -> None:
        """Announce the run and put it to admission control.

        ``engine``/``fallback`` say what the body decided will run and
        why it is not what the config names, ``buffer`` the buffer
        kind, ``mode``/``workers`` how the body is driven, ``parallel``
        what only the parallel join has to say.  With a governor in
        ``"warn"``/``"reject"`` admission mode, the Eq. 7/10
        predictions are evaluated against the budget *before* the
        first page read; ``"reject"`` raises
        :class:`~repro.exec.AdmissionRejected` for a query that cannot
        fit, with all access counters still at zero.  The price is the
        synchronized traversal's — a conservative ceiling for PBSM,
        whose build scan never exceeds the traversal's page reads.
        """
        tracer, governor = self.tracer, self.governor
        if tracer is not None:
            tracer.join_start(
                self.join_id, n1=len(self.tree1), n2=len(self.tree2),
                height1=self.tree1.height, height2=self.tree2.height,
                strategy=self.config.strategy, engine=engine,
                fallback=fallback,
                pair_enumeration=self.config.pair_enumeration,
                buffer=buffer, governed=governor is not None,
                mode=mode, workers=workers, **parallel)
        if governor is None or governor.admission == "off":
            return
        try:
            governor.admit(self.tree1, self.tree2)
        finally:
            # admit() sets last_admission before raising, so a rejection
            # is traced too.
            if tracer is not None and governor.last_admission is not None:
                tracer.admission(self.join_id,
                                 governor.last_admission.as_dict())

    def execute(self, work: Callable[[], None],
                conclude: Callable[[], JoinResult],
                checkpoint: Callable[[BudgetExceeded | Cancelled],
                                     JoinCheckpoint] | None = None,
                ) -> JoinResult:
        """Run ``work`` under the governor and report how it ended.

        ``conclude()`` builds the result of the work done so far and
        ships the body's own telemetry; it is called once, after
        ``work`` returned or was stopped.  A stop under a partial
        governor comes back as a :class:`~repro.join.PartialJoinResult`:
        with ``checkpoint`` — an engine whose stop is resumable — its
        frontier is serialized and the outstanding cost estimated from
        the Eq. 7/10 predictions minus the observed counters; without,
        it carries ``checkpoint=None`` and no estimate (the predictions
        price a traversal the engine is not running).
        """
        governor = self.governor
        if governor is not None:
            governor.start()
        try:
            work()
        except (BudgetExceeded, Cancelled) as exc:
            if self.tracer is not None:
                self.tracer.budget_trip(self.join_id, exc.as_dict())
            if self.metrics is not None:
                self.metrics.counter("governor.trips").inc()
            result = self._report(conclude(), complete=False)
            if governor is None or not governor.partial:
                raise
            frontier = remaining_na = remaining_da = None
            if checkpoint is not None:
                frontier = checkpoint(exc)
                predicted = predict_join_cost(self.tree1, self.tree2)
                if predicted is not None:
                    remaining_na = max(0.0, predicted[0] - result.na_total)
                    remaining_da = max(0.0, predicted[1] - result.da_total)
            return PartialJoinResult(
                result.pairs, result.stats, result.comparisons,
                result.pair_count, frontier, exc, remaining_na,
                remaining_da, engine=result.engine,
                fallback=result.fallback)
        return self._report(conclude(), complete=True)

    def _report(self, result: JoinResult, complete: bool) -> JoinResult:
        """Ship the finished (or stopped) run to the telemetry hooks."""
        tracer, metrics, ledger = self.tracer, self.metrics, self.ledger
        stats = result.stats
        if tracer is not None:
            tracer.join_finish(
                self.join_id, na=stats.na(), da=stats.da(),
                pairs=result.pair_count, comparisons=result.comparisons,
                complete=complete)
        if metrics is not None:
            metrics.counter("join.count").inc()
            metrics.counter("join.pairs").inc(result.pair_count)
            metrics.counter("join.comparisons").inc(result.comparisons)
            if result.fallback is not None:
                metrics.counter(f"join.fallback.{result.fallback}").inc()
            metrics.record_access_stats(stats, prefix="join")
            if self.governor is not None:
                metrics.counter("governor.checks").inc(
                    self.governor.checks)
        if ledger is not None and complete:
            # The accuracy ledger only accepts complete measurements —
            # a truncated run must never pass as a calibration point.
            predicted = predict_join_cost(self.tree1, self.tree2)
            est_na, est_da = predicted if predicted is not None \
                else (None, None)
            ledger.record_join(stats, est_na, est_da,
                               pairs=result.pair_count,
                               label=self.join_id or "join")
        return result
