"""The simulated parallel spatial join (§5 / BKS96)."""

import traceback

import pytest

from repro.exec import (Budget, BudgetExceeded, Cancelled,
                        CancellationToken, ExecutionConfig,
                        ExecutionGovernor)
from repro.join import naive_join, parallel_spatial_join, spatial_join
from repro.reliability import CorruptPageError, FaultInjector, FaultyPager

from .conftest import arena_segments, build_rstar, make_items


def with_workers(n: int, **knobs) -> ExecutionConfig:
    return ExecutionConfig(workers=n, **knobs)


@pytest.fixture(scope="module")
def joined():
    a = make_items(500, seed=1)
    b = make_items(500, seed=2)
    return a, b, build_rstar(a, max_entries=8), \
        build_rstar(b, max_entries=8)


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("assignment", ["round-robin", "greedy"])
    def test_same_output_as_sequential(self, joined, workers, assignment):
        a, b, t1, t2 = joined
        result = parallel_spatial_join(t1, t2, config=with_workers(
            workers, assignment=assignment))
        assert sorted(result.pairs) == sorted(naive_join(a, b))
        assert result.pair_count == len(result.pairs)

    def test_mixed_heights(self):
        small = make_items(30, seed=3)
        large = make_items(500, seed=4)
        ts = build_rstar(small)
        tl = build_rstar(large)
        assert ts.height != tl.height
        for t1, t2, items1, items2 in ((ts, tl, small, large),
                                       (tl, ts, large, small)):
            result = parallel_spatial_join(t1, t2, config=with_workers(3))
            assert sorted(result.pairs) == \
                sorted(naive_join(items1, items2))

    def test_empty_tree(self):
        from repro.rtree import RStarTree
        empty = RStarTree(2, 8)
        other = build_rstar(make_items(50, seed=5))
        result = parallel_spatial_join(empty, other, config=with_workers(4))
        assert result.pairs == []
        assert result.makespan_da == 0

    def test_height_one_trees(self):
        tiny1 = build_rstar(make_items(5, seed=6))
        tiny2 = build_rstar(make_items(5, seed=7))
        assert tiny1.height == tiny2.height == 1
        result = parallel_spatial_join(tiny1, tiny2, config=with_workers(2))
        assert sorted(result.pairs) == sorted(
            naive_join(make_items(5, seed=6), make_items(5, seed=7)))

    def test_invalid_args(self, joined):
        _a, _b, t1, t2 = joined
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2, config=with_workers(0))
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2,
                                  config=with_workers(2, assignment="random"))


class TestAccounting:
    def test_makespan_shrinks_with_workers(self, joined):
        _a, _b, t1, t2 = joined
        makespans = [parallel_spatial_join(
                         t1, t2, config=with_workers(w)).makespan_da
                     for w in (1, 2, 4, 8)]
        assert makespans[0] >= makespans[1] >= makespans[3]
        assert makespans[3] < makespans[0]

    def test_speedup_over_sequential(self, joined):
        _a, _b, t1, t2 = joined
        sequential = spatial_join(t1, t2, collect_pairs=False).da_total
        result = parallel_spatial_join(t1, t2, collect_pairs=False,
                                       config=with_workers(4))
        assert result.speedup_da(sequential) > 1.5

    def test_total_work_roughly_preserved(self, joined):
        # Splitting loses some buffer locality but must not blow the
        # aggregate cost up: total DA within 2x of sequential.
        _a, _b, t1, t2 = joined
        sequential = spatial_join(t1, t2, collect_pairs=False).da_total
        result = parallel_spatial_join(t1, t2, collect_pairs=False,
                                       config=with_workers(8))
        assert sequential <= result.total_da <= 2 * sequential

    def test_greedy_balances_at_least_as_well_on_average(self, joined):
        _a, _b, t1, t2 = joined
        rr = parallel_spatial_join(
            t1, t2, collect_pairs=False,
            config=with_workers(4, assignment="round-robin"))
        greedy = parallel_spatial_join(
            t1, t2, collect_pairs=False,
            config=with_workers(4, assignment="greedy"))
        # Greedy LPT has a 4/3 worst-case bound; allow slack but expect
        # no catastrophic imbalance relative to round-robin.
        assert greedy.makespan_da <= rr.makespan_da * 1.34

    def test_single_worker_matches_sequential_structure(self, joined):
        _a, _b, t1, t2 = joined
        one = parallel_spatial_join(t1, t2, collect_pairs=False,
                                    config=with_workers(1))
        assert one.workers == 1
        assert one.total_da == one.makespan_da

    def test_worker_stats_per_tree(self, joined):
        _a, _b, t1, t2 = joined
        result = parallel_spatial_join(t1, t2, collect_pairs=False,
                                       config=with_workers(3))
        for stats in result.worker_stats:
            assert stats.da() <= stats.na()


class TestThreadsMode:
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_same_output_as_serial_mode(self, joined, workers):
        a, b, t1, t2 = joined
        serial = parallel_spatial_join(t1, t2, config=with_workers(workers))
        threaded = parallel_spatial_join(
            t1, t2, config=with_workers(workers, mode="threads"))
        assert sorted(threaded.pairs) == sorted(serial.pairs)
        assert sorted(threaded.pairs) == sorted(naive_join(a, b))
        # Deterministic accounting: workers share nothing, so per-
        # worker stats are identical to the serial drive, in order.
        assert [s.as_dict() for s in threaded.worker_stats] == \
            [s.as_dict() for s in serial.worker_stats]

    def test_invalid_mode(self, joined):
        _a, _b, t1, t2 = joined
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2,
                                  config=with_workers(2, mode="fibers"))

    def test_invalid_pair_enumeration(self, joined):
        _a, _b, t1, t2 = joined
        with pytest.raises(ValueError):
            parallel_spatial_join(
                t1, t2, config=with_workers(2, pair_enumeration="simd"))

    def test_partial_governor_refused(self, joined):
        _a, _b, t1, t2 = joined
        gov = ExecutionGovernor(Budget(max_na=10), partial=True)
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2, governor=gov, config=with_workers(2))

    @pytest.mark.parametrize("mode", ["serial", "threads"])
    def test_per_worker_budget_raises(self, joined, mode):
        _a, _b, t1, t2 = joined
        gov = ExecutionGovernor(Budget(max_na=3))
        with pytest.raises(BudgetExceeded) as err:
            parallel_spatial_join(t1, t2, governor=gov,
                                  config=with_workers(4, mode=mode))
        assert err.value.resource == "na"

    @pytest.mark.parametrize("mode", ["serial", "threads"])
    def test_pre_cancelled_token(self, joined, mode):
        _a, _b, t1, t2 = joined
        gov = ExecutionGovernor()
        gov.token.cancel()
        with pytest.raises(Cancelled):
            parallel_spatial_join(t1, t2, governor=gov,
                                  config=with_workers(4, mode=mode))

    def test_generous_budget_completes(self, joined):
        a, b, t1, t2 = joined
        gov = ExecutionGovernor(Budget(max_na=10**9))
        result = parallel_spatial_join(t1, t2, governor=gov,
                                       config=with_workers(4, mode="threads"))
        assert sorted(result.pairs) == sorted(naive_join(a, b))

    def test_poisoned_worker_propagates_original_traceback(self, joined):
        # One worker hits a corrupt page; the failure must surface at
        # the pool boundary as the original typed error, with the
        # worker body (_run_bucket) in its traceback — not as a bare
        # "exception in thread" or a secondary Cancelled.
        _a, _b, t1, t2 = joined
        injector = FaultInjector(seed=5, corrupt_rate=0.02)
        t1.pager = FaultyPager(t1.pager, injector)
        t2.pager = FaultyPager(t2.pager, injector)
        try:
            with pytest.raises(CorruptPageError) as err:
                parallel_spatial_join(t1, t2,
                                      config=with_workers(4, mode="threads"))
            frames = traceback.format_tb(err.value.__traceback__)
            assert any("_run_bucket" in frame for frame in frames)
            assert not isinstance(err.value, Cancelled)
        finally:
            t1.pager = t1.pager.inner
            t2.pager = t2.pager.inner

    def test_poisoned_worker_cancels_siblings(self, joined):
        # The shared abort token is raised by the failing worker; a
        # sibling observing it drains as Cancelled rather than running
        # its bucket to completion.
        _a, _b, t1, t2 = joined
        abort = CancellationToken()
        gov = ExecutionGovernor(token=abort)
        injector = FaultInjector(seed=5, corrupt_rate=0.02)
        t1.pager = FaultyPager(t1.pager, injector)
        t2.pager = FaultyPager(t2.pager, injector)
        try:
            with pytest.raises(CorruptPageError):
                parallel_spatial_join(t1, t2, governor=gov,
                                      config=with_workers(4, mode="threads"))
            assert abort.cancelled is False   # caller token untouched
        finally:
            t1.pager = t1.pager.inner
            t2.pager = t2.pager.inner


class TestProcessesMode:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_same_output_as_serial_mode(self, joined, workers):
        a, b, t1, t2 = joined
        serial = parallel_spatial_join(t1, t2, config=with_workers(workers))
        proc = parallel_spatial_join(
            t1, t2, config=with_workers(workers, mode="processes"))
        assert proc.pairs == serial.pairs
        assert sorted(proc.pairs) == sorted(naive_join(a, b))
        # Shared-nothing workers on private tree copies: the merged
        # counters must equal the serial drive's, worker for worker.
        assert [s.as_dict() for s in proc.worker_stats] == \
            [s.as_dict() for s in serial.worker_stats]

    def test_vectorized_enumeration_matches(self, joined):
        _a, _b, t1, t2 = joined
        base = parallel_spatial_join(t1, t2, config=with_workers(3))
        vec = parallel_spatial_join(
            t1, t2, config=with_workers(
                3, mode="processes", pair_enumeration="vectorized"))
        assert vec.pairs == base.pairs
        for got, want in zip(vec.worker_stats, base.worker_stats):
            got, want = got.as_dict(), want.as_dict()
            assert got["node_accesses"] == want["node_accesses"]
            assert got["disk_accesses"] == want["disk_accesses"]

    def test_per_worker_budget_raises(self, joined):
        _a, _b, t1, t2 = joined
        gov = ExecutionGovernor(Budget(max_na=3))
        with pytest.raises(BudgetExceeded) as err:
            parallel_spatial_join(t1, t2, governor=gov,
                                  config=with_workers(4, mode="processes"))
        assert err.value.resource == "na"

    def test_expired_deadline_aborts_before_spawn(self, joined):
        _a, _b, t1, t2 = joined
        clock = iter([0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        gov = ExecutionGovernor(Budget(deadline=1.0),
                                clock=lambda: next(clock))
        gov.start()
        with pytest.raises(BudgetExceeded) as err:
            parallel_spatial_join(t1, t2, governor=gov,
                                  config=with_workers(4, mode="processes"))
        assert err.value.resource == "deadline"

    def test_pre_cancelled_token_polled(self, joined):
        _a, _b, t1, t2 = joined
        gov = ExecutionGovernor()
        gov.token.cancel()
        with pytest.raises(Cancelled):
            parallel_spatial_join(t1, t2, governor=gov,
                                  config=with_workers(4, mode="processes"))

    def test_budget_error_pickles_across_boundary(self):
        import pickle
        err = pickle.loads(pickle.dumps(BudgetExceeded("na", 5, 6)))
        assert (err.resource, err.limit, err.observed) == ("na", 5, 6)
        assert "na budget" in str(err)


def _sigkill_worker(*_args, **_kwargs):
    """Worker body that dies the way an OOM killer kills: no cleanup."""
    import os
    import signal
    os.kill(os.getpid(), signal.SIGKILL)


def _hung_worker(*_args, **_kwargs):
    """Worker body that never finishes (a stuck child, not a dead one)."""
    import time
    time.sleep(600)


_FORK_ONLY = pytest.mark.skipif(
    __import__("multiprocessing").get_start_method() != "fork",
    reason="worker-body injection relies on fork inheritance")


@_FORK_ONLY
class TestWorkerCrash:
    """A SIGKILLed or hung worker must never hang the coordinator.

    Subtree-pair buckets are the only tasks left on the fan-out driver
    (PBSM runs in the calling thread), so the ``strategy``
    parametrisation has one value; it keeps the test ids.
    """

    STRATEGIES = pytest.mark.parametrize("strategy", ["sync"])

    @pytest.fixture(autouse=True)
    def _no_leak(self):
        before = set(arena_segments())
        yield
        assert set(arena_segments()) == before

    def _crashing(self, monkeypatch, strategy, body, **knobs):
        """Swap the process-worker body for ``body``; the config that
        then runs into it."""
        import repro.join.parallel as parallel_mod
        monkeypatch.setattr(parallel_mod, "_process_bucket", body)
        return ExecutionConfig(strategy=strategy, workers=2,
                               mode="processes", **knobs)

    def _undisturbed(self, t1, t2, strategy):
        return parallel_spatial_join(t1, t2, config=ExecutionConfig(
            strategy=strategy, workers=2))

    @STRATEGIES
    def test_sigkilled_worker_raises_typed_error(self, joined, strategy,
                                                 monkeypatch):
        from repro.join import WorkerCrashed
        _a, _b, t1, t2 = joined
        config = self._crashing(monkeypatch, strategy, _sigkill_worker,
                                worker_timeout=60.0)
        with pytest.raises(WorkerCrashed) as err:
            parallel_spatial_join(t1, t2, config=config)
        doc = err.value.as_dict()
        assert doc["error"] == "worker-crashed"
        assert doc["buckets"]          # the lost buckets are named
        assert doc["cause"] in ("broken-pool", "watchdog-timeout")

    @STRATEGIES
    def test_sigkilled_worker_degrades_to_serial(self, joined, strategy,
                                                 monkeypatch):
        _a, _b, t1, t2 = joined
        want = self._undisturbed(t1, t2, strategy)
        config = self._crashing(monkeypatch, strategy, _sigkill_worker,
                                worker_timeout=60.0,
                                on_worker_crash="serial")
        got = parallel_spatial_join(t1, t2, config=config)
        assert got.pairs == want.pairs
        assert [s.as_dict() for s in got.worker_stats] == \
            [s.as_dict() for s in want.worker_stats]

    @STRATEGIES
    def test_degraded_run_is_observable(self, joined, strategy,
                                        monkeypatch):
        from repro.obs import MemorySink, MetricsRegistry, Tracer
        _a, _b, t1, t2 = joined
        config = self._crashing(monkeypatch, strategy, _sigkill_worker,
                                worker_timeout=60.0,
                                on_worker_crash="serial")
        sink = MemorySink()
        metrics = MetricsRegistry()
        parallel_spatial_join(t1, t2, config=config,
                              tracer=Tracer(sink), metrics=metrics)
        events = {r["event"] for r in sink.records}
        assert "degraded_serial" in events
        snap = metrics.as_dict()["counters"]
        assert snap["parallel.worker_crashes"] == 1
        assert snap["parallel.degraded_serial"] == 1

    @STRATEGIES
    def test_watchdog_catches_hung_worker(self, joined, strategy,
                                          monkeypatch):
        import time
        from repro.join import WorkerCrashed
        _a, _b, t1, t2 = joined
        config = self._crashing(monkeypatch, strategy, _hung_worker,
                                worker_timeout=1.0)
        started = time.monotonic()
        with pytest.raises(WorkerCrashed) as err:
            parallel_spatial_join(t1, t2, config=config)
        assert err.value.cause == "watchdog-timeout"
        # The whole point: we came back in ~the timeout, not "forever".
        assert time.monotonic() - started < 30.0

    @STRATEGIES
    def test_hung_worker_degrades_to_serial(self, joined, strategy,
                                            monkeypatch):
        _a, _b, t1, t2 = joined
        want = self._undisturbed(t1, t2, strategy)
        config = self._crashing(monkeypatch, strategy, _hung_worker,
                                worker_timeout=1.0,
                                on_worker_crash="serial")
        got = parallel_spatial_join(t1, t2, config=config)
        assert got.pairs == want.pairs

    def test_crash_error_pickles(self):
        import pickle
        from repro.join import WorkerCrashed
        err = pickle.loads(pickle.dumps(
            WorkerCrashed([1, 3], "broken-pool")))
        assert err.buckets == [1, 3]
        assert err.cause == "broken-pool"

    def test_invalid_crash_policy_rejected(self, joined):
        _a, _b, t1, t2 = joined
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2,
                                  config=with_workers(2, mode="processes",
                                                      on_worker_crash="panic"))
        with pytest.raises(ValueError):
            parallel_spatial_join(t1, t2,
                                  config=with_workers(2, mode="processes",
                                                      worker_timeout=0.0))


class TestSpeedupDa:
    def test_zero_makespan_nonzero_sequential_is_none(self):
        from repro.storage import AccessStats
        from repro.join.parallel import ParallelJoinResult
        r = ParallelJoinResult([], [AccessStats()], 0)
        assert r.speedup_da(100) is None       # was float("inf")
        import json
        json.dumps({"speedup": r.speedup_da(100)})  # JSON-safe

    def test_zero_over_zero_is_one(self):
        from repro.storage import AccessStats
        from repro.join.parallel import ParallelJoinResult
        r = ParallelJoinResult([], [AccessStats()], 0)
        assert r.speedup_da(0) == 1.0
