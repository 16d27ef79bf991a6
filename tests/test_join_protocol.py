"""One governed run around every engine (``repro.join.run.JoinRun``).

The synchronized traversal on both of its engines, the partition engine
and the bucket-parallel driver in its three modes are bodies inside one
price → admit → trace → trip → report protocol, so what a trace, a
metrics registry and a caller see of a join does not depend on which of
them ran it.
"""

import pytest

from repro.exec import (AdmissionRejected, Budget, BudgetExceeded,
                        ExecutionConfig, ExecutionGovernor)
from repro.join import JoinResult, parallel_spatial_join, spatial_join
from repro.obs import MemorySink, MetricsRegistry, Tracer

from .conftest import arena_segments, build_rstar, make_items

#: What every ``join_start`` carries, whatever ran.
COMMON_START = {"n1", "n2", "height1", "height2", "strategy", "engine",
                "fallback", "pair_enumeration", "buffer", "governed",
                "mode", "workers"}
#: What the parallel join adds to it.
PARALLEL_START = {"assignment", "tasks", "transport", "transport_fallback"}
#: The trace envelope of any event.
ENVELOPE = {"event", "join", "schema", "seq", "ts", "elapsed"}

JOIN_COUNTERS = {"join.count", "join.pairs", "join.comparisons",
                 "join.na", "join.da", "join.na.R1", "join.na.R2",
                 "join.da.R1", "join.da.R2"}

ROWS = [
    pytest.param(spatial_join, ExecutionConfig(traversal="stack"),
                 id="sync-stack"),
    pytest.param(spatial_join, ExecutionConfig(traversal="level-batch"),
                 id="sync-level-batch"),
    pytest.param(spatial_join, ExecutionConfig(strategy="pbsm"), id="pbsm"),
    pytest.param(parallel_spatial_join,
                 ExecutionConfig(workers=2, mode="serial"),
                 id="parallel-serial"),
    pytest.param(parallel_spatial_join,
                 ExecutionConfig(workers=2, mode="threads"),
                 id="parallel-threads"),
    pytest.param(parallel_spatial_join,
                 ExecutionConfig(workers=2, mode="processes"),
                 id="parallel-processes"),
]


@pytest.fixture(scope="module")
def trees():
    return (build_rstar(make_items(400, seed=81)),
            build_rstar(make_items(400, seed=82)))


@pytest.fixture(autouse=True)
def no_segment_leak():
    before = set(arena_segments())
    yield
    assert set(arena_segments()) == before


def observed(join, config, trees, governor=None):
    """``(result or raised error, events, counters)`` of one observed run."""
    sink, metrics = MemorySink(), MetricsRegistry()
    try:
        outcome = join(*trees, config=config, governor=governor,
                       tracer=Tracer(sink), metrics=metrics)
    except BudgetExceeded as exc:
        outcome = exc
    return outcome, list(sink.records), metrics.as_dict()["counters"]


def names(events):
    return [e["event"] for e in events]


@pytest.mark.parametrize("join,config", ROWS)
def test_complete_run(join, config, trees):
    result, events, counters = observed(join, config, trees)
    start, = [e for e in events if e["event"] == "join_start"]
    extra = PARALLEL_START if join is parallel_spatial_join else set()
    assert set(start) == ENVELOPE | COMMON_START | extra
    assert start["strategy"] == config.strategy
    assert start["engine"] == result.engine is not None
    assert start["fallback"] == result.fallback
    assert (start["mode"], start["workers"]) == (
        (config.mode, config.workers) if extra else ("serial", 1))

    assert isinstance(result, JoinResult) and result.complete
    reference = spatial_join(*trees)
    assert sorted(result.pairs) == sorted(reference.pairs)
    assert result.pair_count == reference.pair_count
    assert result.na_total == result.na("R1") + result.na("R2") > 0
    if config.strategy == "sync":
        assert result.na_total == reference.na_total
        # The default enumeration is nested-loop, under which the
        # decomposition's root tests are the serial join's.
        assert result.comparisons == reference.comparisons

    finish, = [e for e in events if e["event"] == "join_finish"]
    assert names(events)[-1] == "join_finish"
    assert set(finish) == ENVELOPE | {"na", "da", "pairs", "comparisons",
                                      "complete"}
    assert (finish["na"], finish["da"], finish["pairs"],
            finish["comparisons"], finish["complete"]) == (
        result.na_total, result.da_total, result.pair_count,
        result.comparisons, True)
    assert JOIN_COUNTERS <= set(counters)
    assert counters["join.count"] == 1
    assert counters["join.pairs"] == result.pair_count
    assert counters["join.comparisons"] == result.comparisons
    assert counters["join.na"] == result.na_total
    assert "governor.trips" not in counters


@pytest.mark.parametrize("join,config", ROWS)
def test_admission_rejects_before_any_read(join, config, trees):
    governor = ExecutionGovernor(Budget(max_na=5), admission="reject")
    error, events, counters = observed(join, config, trees, governor)
    assert isinstance(error, AdmissionRejected)
    assert error.as_dict()["predicted"] is True
    assert names(events) == ["join_start", "admission"]
    assert events[1]["decision"]["allowed"] is False
    # Nothing ran: no page was charged anywhere, no worker started.
    assert not any(name.endswith((".na", ".da")) for name in counters)
    assert governor.checks == 0


@pytest.mark.parametrize("join,config", ROWS)
def test_mid_run_trip(join, config, trees):
    governor = ExecutionGovernor(Budget(max_na=20))
    error, events, counters = observed(join, config, trees, governor)
    assert isinstance(error, BudgetExceeded)
    assert not isinstance(error, AdmissionRejected)
    assert error.resource == "na"
    kinds = [k for k in names(events)
             if k in ("join_start", "budget_trip", "join_finish")]
    assert kinds == ["join_start", "budget_trip", "join_finish"]
    finish = events[-1]
    assert finish["event"] == "join_finish"
    assert finish["complete"] is False
    assert finish["pairs"] <= spatial_join(*trees).pair_count
    assert counters["governor.trips"] == 1
    assert counters["join.count"] == 1
    assert counters["join.na"] == finish["na"]
