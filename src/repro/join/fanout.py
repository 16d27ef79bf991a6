"""The governed fan-out driver: independent join tasks on a worker pool.

The parallel join decomposes a join into tasks that share nothing —
the subtree-pair buckets of :mod:`repro.join.parallel` — and hands
them to a pool.  The worker body is the join's; everything about
*driving* the pool lives here:

* ``mode="threads"`` — a thread pool whose workers observe one internal
  abort token (linked into each worker's governor): the first failure
  other than :class:`~repro.exec.Cancelled` cancels it, the siblings
  drain at their next governor check, and the failure re-raised at the
  pool boundary is the first *cause* with its original worker
  traceback, never the secondary ``Cancelled`` it induced.
* ``mode="processes"`` — a process pool.  A process can observe neither
  the coordinator's cancellation token nor a clock started elsewhere,
  so enforcement is split: workers self-enforce the budget with the
  deadline rebased to the time remaining at dispatch, and the
  coordinator re-checks its governor every
  :data:`_PROCESS_POLL_INTERVAL` seconds between completions — a trip
  cancels the queued tasks and raises without waiting for the queue to
  drain.
* Worker *death* is handled by a watchdog, never by blocking: a broken
  pool (a child was SIGKILLed, OOM-killed or segfaulted) or
  ``worker_timeout`` seconds without any task completing kills the
  remaining children, shuts the pool down without joining it, and
  either raises a typed :class:`WorkerCrashed` naming the lost tasks or
  (``on_worker_crash="serial"``) re-runs exactly those tasks in the
  coordinator.
* Completed tasks are salvaged into the caller's ``collected`` mapping
  on every exit path (a stopped join reports the work its completed
  buckets did).  Shared-memory segments the submissions name are
  the caller's: it exports them before the call and closes its leases
  after it — the pool is gone by then on every path.
"""

from __future__ import annotations

import time
from concurrent.futures import (BrokenExecutor, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)

from ..exec import CancellationToken, ExecutionGovernor
from ..exec.budget import Budget, BudgetExceeded, Cancelled
from ..exec.config import ExecutionConfig
from ..reliability import ReproError
from ..storage import AccessStats

__all__ = ["WorkerCrashed", "fan_out", "worker_governor"]

#: Seconds between coordinator governor polls in ``"processes"`` mode.
_PROCESS_POLL_INTERVAL = 0.05


class WorkerCrashed(ReproError):
    """A parallel worker process died or hung instead of finishing.

    Raised in ``mode="processes"`` with ``on_worker_crash="raise"`` when
    the OS kills a worker (SIGKILL, OOM), the pool breaks, or no task
    completes within the watchdog timeout.  ``buckets`` lists the task
    indices (subtree-pair buckets) whose results were lost; ``cause``
    is a short machine-readable reason string.
    """

    def __init__(self, buckets: list[int], cause: str,
                 message: str | None = None):
        self.buckets = list(buckets)
        self.cause = cause
        super().__init__(
            message or f"parallel worker crashed ({cause}); "
                       f"lost buckets {self.buckets}")

    def as_dict(self) -> dict[str, object]:
        """Machine-readable reason (the CLI prints this as JSON)."""
        return {"error": "worker-crashed", "buckets": self.buckets,
                "cause": self.cause}

    def __reduce__(self):
        return (WorkerCrashed, (self.buckets, self.cause, str(self)))


def fan_out(tasks: list, run_local, call, decode, *,
            config: ExecutionConfig,
            governor: ExecutionGovernor | None, collected: dict,
            tracer=None, join_id=None, metrics=None) -> None:
    """Run ``tasks`` on the pool ``config.mode`` names.

    ``collected[index]`` receives the result of ``tasks[index]``; on a
    failure it still holds every task that completed, and the failure
    is raised.

    ``run_local(task, governor)`` is the worker body in this process:
    what a thread worker runs, and what re-runs a lost task after a
    crash.  ``call(task, budget)`` yields the picklable
    ``(function, *arguments)`` of one ``"processes"`` submission.
    ``decode`` turns a process worker's plain-data result into the
    shape ``run_local`` returns.
    """
    max_workers = max(1, min(config.workers, len(tasks)))
    if config.mode == "threads":
        _run_threads(tasks, run_local, max_workers, governor, collected)
    else:
        _run_processes(tasks, run_local, call, decode, max_workers, config,
                       governor, collected, tracer, join_id, metrics)


def _first_cause(failure: BaseException | None,
                 exc: BaseException) -> BaseException:
    """The failure to re-raise: the first one, except that a real cause
    replaces the ``Cancelled`` drain it induced in a sibling."""
    if failure is None or (isinstance(failure, Cancelled)
                           and not isinstance(exc, Cancelled)):
        return exc
    return failure


def _run_threads(tasks, run_local, max_workers, governor,
                 collected) -> None:
    abort = CancellationToken()

    def on_done(fut) -> None:
        if not fut.cancelled():
            exc = fut.exception()
            if exc is not None and not isinstance(exc, Cancelled):
                abort.cancel()           # make the siblings drain

    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=max_workers,
                            thread_name_prefix="join-worker") as pool:
        futures = []
        for task in tasks:
            spawned = (governor.spawn(abort) if governor is not None
                       else ExecutionGovernor(token=abort))
            fut = pool.submit(run_local, task, spawned)
            fut.add_done_callback(on_done)
            futures.append(fut)
        for index, fut in enumerate(futures):
            try:
                collected[index] = fut.result()
            except Exception as exc:
                failure = _first_cause(failure, exc)
    if failure is not None:
        raise failure


def _rebased_budget(governor: ExecutionGovernor | None) -> Budget | None:
    """The budget a worker process should self-enforce.

    The deadline is rebased to the wall-clock time remaining *now*, at
    dispatch: the worker's fresh clock then expires when the
    coordinator's would have.  An already-expired deadline raises here,
    before any process is spawned.
    """
    if governor is None:
        return None
    budget = governor.budget
    deadline = budget.deadline
    if deadline is None:
        return budget
    governor.start()
    remaining = deadline - governor.elapsed()
    if remaining <= 0.0:
        raise BudgetExceeded("deadline", deadline, governor.elapsed())
    return Budget(deadline=remaining, max_na=budget.max_na,
                  max_da=budget.max_da, max_results=budget.max_results)


def worker_governor(budget: Budget | None) -> ExecutionGovernor | None:
    """The governor a process worker runs under, clock already started.

    Tokens and clocks are process-local, so the worker builds its own
    from the rebased budget the coordinator shipped.
    """
    if budget is None or budget.unlimited:
        return None
    governor = ExecutionGovernor(budget)
    governor.start()
    return governor


def _run_processes(tasks, run_local, call, decode, max_workers, config,
                   governor, collected, tracer, join_id, metrics) -> None:
    # All charging happens in the workers: the coordinator's own checks
    # run against empty counters, so only the deadline and the token
    # can trip here.
    stats = AccessStats()
    if governor is not None:
        # Trip a pre-cancelled token or spent deadline before paying
        # for a single process spawn.
        governor.check(stats)
    budget = _rebased_budget(governor)
    worker_timeout = config.worker_timeout
    failure: BaseException | None = None
    crash_cause: str | None = None
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [pool.submit(*call(task, budget)) for task in tasks]
        pending = set(futures)
        last_progress = time.monotonic()
        while pending:
            done, pending = wait(pending, timeout=_PROCESS_POLL_INTERVAL)
            if done:
                last_progress = time.monotonic()
            for fut in done:
                if fut.cancelled():
                    continue
                exc = fut.exception()
                if isinstance(exc, BrokenExecutor):
                    crash_cause = "broken-pool"
                elif exc is not None:
                    failure = _first_cause(failure, exc)
            if crash_cause is None and pending \
                    and worker_timeout is not None \
                    and time.monotonic() - last_progress >= worker_timeout:
                crash_cause = "watchdog-timeout"
            if crash_cause is not None:
                break
            if pending and governor is not None and failure is None:
                try:
                    # Only the deadline and the token can have changed
                    # since the pre-flight — exactly the axes workers
                    # cannot share.
                    governor.check(stats)
                except (BudgetExceeded, Cancelled) as exc:
                    failure = exc
            if failure is not None:
                for fut in pending:
                    fut.cancel()         # queued tasks never start
                break
        if crash_cause is not None:
            # Put the pool beyond doubt: surviving children may be
            # mid-task (their results are lost anyway) and must be
            # killed, not joined.
            for proc in list((getattr(pool, "_processes", None)
                              or {}).values()):
                if proc.is_alive():
                    proc.kill()
            pool.shutdown(wait=False, cancel_futures=True)
        lost = []
        for index, fut in enumerate(futures):
            if fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                collected[index] = decode(fut.result())
            else:
                lost.append(index)
        if crash_cause is None:
            if failure is not None:
                raise failure
            return
        if metrics is not None:
            metrics.counter("parallel.worker_crashes").inc()
        if config.on_worker_crash == "raise":
            crash = WorkerCrashed(lost, crash_cause)
            if tracer is not None:
                tracer.emit("worker_crash", join=join_id,
                            reason=crash.as_dict())
            raise crash
        # Degrade gracefully: the union of task outputs does not depend
        # on where the tasks ran, so re-running exactly the lost ones
        # here gives the result of an undisturbed run.
        if tracer is not None:
            tracer.emit("degraded_serial", join=join_id,
                        cause=crash_cause, buckets=lost)
        if metrics is not None:
            metrics.counter("parallel.degraded_serial").inc()
        for index in lost:
            collected[index] = run_local(
                tasks[index],
                governor.spawn() if governor is not None else None)
    finally:
        # Non-crash paths drain normally (every future is done or
        # cancelled, bar tasks still running when a failure broke the
        # loop).  The crash path already shut the pool down without
        # waiting — this second shutdown is a no-op, crucially never a
        # join on a dead or hung child.
        pool.shutdown(wait=crash_cause is None)
