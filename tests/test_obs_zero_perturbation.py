"""Observability must not perturb execution: the tentpole guarantee.

Tracing, metrics and the accuracy ledger are write-only hooks; a run
with all three enabled must produce NA/DA counters, result pairs,
comparison counts and checkpoint files that are *bit-identical* to an
unobserved run.  These tests assert exactly that, across both
pair-enumeration backends, both traversal engines (with the
``engine``/``fallback`` fields their selection records), both parallel
driver modes, and the PBSM partition engine in all three of its
execution modes.
"""

import pytest

from repro.exec import Budget, ExecutionConfig, ExecutionGovernor
from repro.join import (SpatialJoin, parallel_spatial_join,
                        partition_spatial_join)
from repro.obs import AccuracyLedger, MemorySink, MetricsRegistry, Tracer
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(400, seed=11), max_entries=8)
    t2 = build_rstar(make_items(400, seed=12), max_entries=8)
    return t1, t2


def observed_hooks(sample_pairs=5):
    tracer = Tracer(MemorySink(capacity=100_000),
                    sample_pairs=sample_pairs, sample_buffer=3)
    return tracer, MetricsRegistry(), AccuracyLedger(tracer=tracer)


ENUMS = ["nested-loop", "vectorized"]


class TestSerialJoin:
    @pytest.mark.parametrize("enum", ENUMS)
    def test_counters_bit_identical(self, trees, enum):
        t1, t2 = trees
        config = ExecutionConfig(pair_enumeration=enum)
        plain = SpatialJoin(t1, t2, buffer=PathBuffer(),
                            config=config).run(collect_pairs=True)
        tracer, metrics, ledger = observed_hooks()
        traced = SpatialJoin(t1, t2, buffer=PathBuffer(), config=config,
                             tracer=tracer, metrics=metrics,
                             ledger=ledger).run(collect_pairs=True)
        assert traced.stats.as_dict() == plain.stats.as_dict()
        assert sorted(traced.pairs) == sorted(plain.pairs)
        assert traced.pair_count == plain.pair_count
        # ... and the trace actually recorded the run.
        assert any(r["event"] == "node_pair"
                   for r in tracer.sink.records)
        assert metrics.as_dict()["counters"]["join.na"] == plain.na_total

    @pytest.mark.parametrize("enum", ENUMS)
    def test_checkpoint_bytes_identical(self, trees, enum, tmp_path):
        t1, t2 = trees

        def partial_run(observe, path):
            governor = ExecutionGovernor(Budget(max_na=40), partial=True)
            kwargs = {}
            if observe:
                tracer, metrics, ledger = observed_hooks()
                kwargs = dict(tracer=tracer, metrics=metrics,
                              ledger=ledger)
            sj = SpatialJoin(t1, t2, buffer=PathBuffer(), governor=governor,
                             config=ExecutionConfig(pair_enumeration=enum),
                             **kwargs)
            result = sj.run(collect_pairs=False)
            result.checkpoint.save(path)
            return result

        plain = partial_run(False, str(tmp_path / "plain.json"))
        traced = partial_run(True, str(tmp_path / "traced.json"))
        assert not plain.complete and not traced.complete
        assert (tmp_path / "traced.json").read_bytes() == \
            (tmp_path / "plain.json").read_bytes()
        assert traced.stats.as_dict() == plain.stats.as_dict()


    @pytest.mark.parametrize("enum", ["vectorized", "plane-sweep"])
    def test_engine_and_fallback_fields_do_not_perturb(self, trees, enum,
                                                       tmp_path):
        # ``level-batch`` with an enumeration it runs and with one it
        # falls back on: recording ``engine``/``fallback`` (and counting
        # the reason) changes neither a complete run nor a cut one.
        t1, t2 = trees
        config = ExecutionConfig(traversal="level-batch",
                                 pair_enumeration=enum)

        def run(path, **hooks):
            full = SpatialJoin(t1, t2, buffer=PathBuffer(), config=config,
                               **hooks).run()
            cut = SpatialJoin(
                t1, t2, buffer=PathBuffer(), config=config,
                governor=ExecutionGovernor(Budget(max_na=40), partial=True),
                **hooks).run()
            cut.checkpoint.save(str(path))
            return full, cut, path.read_bytes()

        tracer, metrics, ledger = observed_hooks()
        plain = run(tmp_path / "plain.json")
        traced = run(tmp_path / "traced.json", tracer=tracer,
                     metrics=metrics, ledger=ledger)
        for got, want in zip(traced[:2], plain[:2]):
            assert got.pairs == want.pairs           # order included
            assert got.comparisons == want.comparisons
            assert got.stats.as_dict() == want.stats.as_dict()
        assert traced[2] == plain[2]                 # checkpoint bytes
        starts = [r for r in tracer.sink.records
                  if r["event"] == "join_start"]
        assert len(starts) == 2
        expected = {"vectorized": ("level-batch", None),
                    "plane-sweep": ("stack", "enumeration")}[enum]
        counters = metrics.as_dict()["counters"]
        for start in starts:
            assert (start["engine"], start["fallback"]) == expected
            assert (start["fallback"] is None) == (not any(
                name.startswith("join.fallback.") for name in counters))
        # The results carry the same two facts as the events — the
        # complete run and the cut one, observed or not — and neither
        # reaches the checkpoint.
        for result, bare, start in zip(traced[:2], plain[:2], starts):
            assert (result.engine, result.fallback) \
                == (bare.engine, bare.fallback) \
                == (start["engine"], start["fallback"])
        assert b"engine" not in plain[2] and b"fallback" not in plain[2]


class TestParallelJoin:
    @pytest.mark.parametrize("mode", ["threads", "processes"])
    @pytest.mark.parametrize("enum", ENUMS)
    def test_counters_bit_identical(self, trees, mode, enum):
        t1, t2 = trees
        config = ExecutionConfig(workers=3, mode=mode,
                                 pair_enumeration=enum)
        plain = parallel_spatial_join(t1, t2, config=config)
        tracer, metrics, _ = observed_hooks()
        traced = parallel_spatial_join(t1, t2, config=config,
                                       tracer=tracer, metrics=metrics)
        assert traced.total_na == plain.total_na
        assert traced.total_da == plain.total_da
        assert sorted(traced.pairs) == sorted(plain.pairs)
        for got, want in zip(traced.worker_stats, plain.worker_stats):
            assert got.as_dict() == want.as_dict()
        counters = metrics.as_dict()["counters"]
        assert counters["worker.na"] == plain.total_na
        assert counters["worker.da"] == plain.total_da
        finishes = [r for r in tracer.sink.records
                    if r["event"] == "worker_finish"]
        assert len(finishes) == 3
        # Coordinator emits worker events in bucket order, so the
        # trace itself is deterministic too.
        assert [r["worker"] for r in finishes] == [0, 1, 2]


class TestPartitionJoin:
    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_traced_pbsm_bit_identical(self, trees, mode):
        # PBSM runs in the calling thread whatever ``mode`` says (the
        # config refuses it a second worker).
        t1, t2 = trees
        config = ExecutionConfig(strategy="pbsm", mode=mode)
        plain = partition_spatial_join(t1, t2, buffer=PathBuffer(),
                                       config=config, tiles=3)
        tracer, metrics, _ = observed_hooks()
        traced = partition_spatial_join(t1, t2, buffer=PathBuffer(),
                                        config=config, tiles=3,
                                        tracer=tracer, metrics=metrics)
        assert traced.pairs == plain.pairs           # order included
        assert traced.pair_count == plain.pair_count
        assert traced.comparisons == plain.comparisons
        assert traced.stats.as_dict() == plain.stats.as_dict()
        # ... and the trace says what the partition did; the engine
        # and its (absent) fallback are join_start's.
        [event] = [r for r in tracer.sink.records
                   if r["event"] == "partition"]
        [start] = [r for r in tracer.sink.records
                   if r["event"] == "join_start"]
        counters = metrics.as_dict()["counters"]
        assert (start["engine"], start["fallback"]) == ("pbsm", None)
        assert "engine" not in event and "fallback" not in event
        assert not any(".fallback." in name for name in counters)
        assert event["tiles"] == counters["pbsm.tiles"]
        assert event["replicas1"] >= event["entries1"] == len(t1)
        assert event["replicas2"] >= event["entries2"] == len(t2)
        assert any(r["event"] == "buffer_access"
                   for r in tracer.sink.records)
        assert counters["join.na"] == plain.na_total


class TestAccuracyLedgerIntegration:
    def test_ledger_matches_run_stats_exactly(self, trees):
        t1, t2 = trees
        governor = ExecutionGovernor(Budget(max_na=10_000))
        tracer, metrics, ledger = observed_hooks()
        result = SpatialJoin(t1, t2, buffer=PathBuffer(),
                             governor=governor, tracer=tracer,
                             metrics=metrics,
                             ledger=ledger).run(collect_pairs=False)
        assert result.complete
        [rec] = ledger.records
        assert rec.na_observed == result.stats.na()
        assert rec.da_observed == result.stats.da()
        assert rec.pairs == result.pair_count
        assert rec.per_level["node_accesses"] == \
            result.stats.as_dict()["node_accesses"]
        assert rec.na_estimated is not None      # Eq. 7 was available
        # ... and the trace carries the same row as an accuracy event.
        [event] = [r for r in tracer.sink.records
                   if r["event"] == "accuracy"]
        assert event["na_observed"] == result.stats.na()
        assert event["da_observed"] == result.stats.da()

    def test_partial_run_records_no_ledger_row(self, trees):
        t1, t2 = trees
        governor = ExecutionGovernor(Budget(max_na=40), partial=True)
        tracer, metrics, ledger = observed_hooks()
        result = SpatialJoin(t1, t2, buffer=PathBuffer(),
                             governor=governor, tracer=tracer,
                             metrics=metrics,
                             ledger=ledger).run(collect_pairs=False)
        assert not result.complete
        assert ledger.records == []      # incomplete runs never enter
        [finish] = [r for r in tracer.sink.records
                    if r["event"] == "join_finish"]
        assert finish["complete"] is False
