"""JoinService behaviour: admission, queueing, quotas, degradation, drain.

Everything here drives the transport-agnostic core directly; the HTTP
mapping has its own suite (``test_serve_http.py``).
"""

import threading
import time

import pytest

import repro.serve.service as service_mod
from repro.exec import AdmissionRejected, Cancelled, ExecutionConfig
from repro.join import SpatialJoin, parallel_spatial_join
from repro.reliability import MalformedFileError
from repro.serve import (JoinService, Overloaded, QuotaExceeded,
                         ServeConfig, ServiceDraining, UnknownTree,
                         decode_resume_token)
from repro.serve.service import JoinRequest
from repro.storage import LRUBuffer, PathBuffer

from .conftest import COERCED_FIELDS, build_rstar, make_items


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(300, seed=91), max_entries=8)
    t2 = build_rstar(make_items(260, seed=92), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def direct(trees):
    t1, t2 = trees
    return SpatialJoin(t1, t2, PathBuffer()).run()


def make_service(trees, **config_kw):
    svc = JoinService(ServeConfig(**config_kw))
    svc.register_tree("a", trees[0])
    svc.register_tree("b", trees[1])
    return svc


class _SlowGate:
    """Monkeypatch helper: makes the next _run block until released."""

    def __init__(self, service, monkeypatch):
        self.started = threading.Event()
        self.release = threading.Event()
        original = service._run

        def gated(req, reg1, reg2, checkpoint, token, join_id):
            self.started.set()
            assert self.release.wait(30), "test never released the gate"
            return original(req, reg1, reg2, checkpoint, token, join_id)

        monkeypatch.setattr(service, "_run", gated)


class TestBitIdentical:
    """A served join equals a direct SpatialJoin run, bit for bit."""

    def test_counters_and_pairs(self, trees, direct):
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "collect_pairs": True})
        assert resp["status"] == "complete"
        assert resp["na"] == direct.na_total
        assert resp["da"] == direct.da_total
        assert resp["na_by_tree"] == {"R1": direct.na("R1"),
                                      "R2": direct.na("R2")}
        assert resp["da_by_tree"] == {"R1": direct.da("R1"),
                                      "R2": direct.da("R2")}
        assert resp["pair_count"] == direct.pair_count
        assert sorted(map(tuple, resp["pairs"])) == sorted(direct.pairs)
        assert resp["comparisons"] == direct.comparisons

    def test_lru_buffer_spec_respected(self, trees):
        t1, t2 = trees
        expect = SpatialJoin(t1, t2, LRUBuffer(8)).run(
            collect_pairs=False)
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "buffer": "lru:8"})
        assert resp["na"] == expect.na_total
        assert resp["da"] == expect.da_total

    def test_level_batch_traversal_matches_direct(self, trees, direct):
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "collect_pairs": True,
                            "traversal": "level-batch"})
        assert resp["status"] == "complete"
        assert resp["na"] == direct.na_total
        assert resp["da"] == direct.da_total
        assert resp["pair_count"] == direct.pair_count
        assert sorted(map(tuple, resp["pairs"])) == sorted(direct.pairs)

    def test_response_carries_cost_estimate(self, trees):
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b"})
        assert resp["predicted_na"] > 0
        assert resp["predicted_da"] > 0


class TestAdmission:
    def test_server_ceiling_rejects_before_any_read(self, trees):
        svc = make_service(trees, max_predicted_na=1)
        reads = []
        for reg in ("a", "b"):
            tree = svc._lookup(reg).tree
            original = tree.pager.read
            tree.pager.read = lambda pid, _o=original: (
                reads.append(pid), _o(pid))[1]
        try:
            with pytest.raises(AdmissionRejected) as err:
                svc.execute({"tree1": "a", "tree2": "b"})
        finally:
            for reg in ("a", "b"):
                tree = svc._lookup(reg).tree
                del tree.pager.read          # restore the class method
        assert reads == []
        doc = err.value.as_dict()
        assert doc["predicted"] is True and doc["observed"] > 1
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.rejected.admission"] == 1
        assert "serve.admitted" not in snap["counters"]

    def test_request_budget_checked_when_asked(self, trees):
        svc = make_service(trees)
        with pytest.raises(AdmissionRejected):
            svc.execute({"tree1": "a", "tree2": "b", "max_na": 1,
                         "admission": "reject"})

    def test_admission_off_skips_request_budget_only(self, trees):
        # The join still runs (and trips its NA budget mid-flight),
        # returning a partial result rather than a rejection.
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b", "max_na": 10,
                            "admission": "off"})
        assert resp["status"] == "partial"
        assert resp["reason"]["resource"] == "na"

    def test_unknown_tree(self, trees):
        svc = make_service(trees)
        with pytest.raises(UnknownTree):
            svc.execute({"tree1": "a", "tree2": "nope"})

    @pytest.mark.parametrize("bad", [
        {"tree2": "b"},
        {"tree1": "a", "tree2": "b", "bogus": 1},
        {"tree1": "a", "tree2": "b", "pair_enumeration": "wat"},
        {"tree1": "a", "tree2": "b", "traversal": "wat"},
        {"tree1": "a", "tree2": "b", "workers": 0},
        {"tree1": "a", "tree2": "b", "buffer": "hash:9"},
        {"tree1": "a", "tree2": "b", "buffer": "garbage"},
        {"tree1": "a", "tree2": "b", "buffer": "lru:abc"},
        {"tree1": "a", "tree2": "b", "buffer": "lru:0"},
        {"tree1": "a", "tree2": "b", "buffer": 7},
        {"tree1": "a", "tree2": "b", "admission": "warn"},
        {"tree1": "a", "tree2": "b", "workers": 2,
         "resume_token": "x"},
    ])
    def test_malformed_requests(self, trees, bad):
        svc = make_service(trees)
        with pytest.raises(ValueError):
            svc.execute(bad)

    def test_malformed_buffer_specs_consume_no_slot(self, trees):
        # Regression: bad buffer specs used to raise only after the
        # concurrency slot was held, leaking the _running entry; with
        # max_concurrency such requests the daemon shed everything.
        svc = make_service(trees, max_concurrency=1, queue_limit=0)
        for bad in ("garbage", "lru:abc", "lru:0"):
            with pytest.raises(ValueError):
                svc.execute({"tree1": "a", "tree2": "b", "buffer": bad})
        assert svc._running == {}
        resp = svc.execute({"tree1": "a", "tree2": "b"})
        assert resp["status"] == "complete"

    def test_bad_resume_token_is_typed(self, trees):
        svc = make_service(trees)
        with pytest.raises(MalformedFileError):
            svc.execute({"tree1": "a", "tree2": "b",
                         "resume_token": "garbage"})


class TestRequestExecutionConfig:
    """One ``ExecutionConfig`` per request, validated by the config."""

    @pytest.mark.parametrize("field, value", COERCED_FIELDS)
    def test_fields_are_type_checked_not_coerced(self, trees, field,
                                                 value, tmp_path):
        doc = {"tree1": "a", "tree2": "b", field: value}
        with pytest.raises(ValueError, match=field):
            JoinRequest(doc, ServeConfig())
        svc = make_service(trees, state_dir=str(tmp_path))
        with pytest.raises(ValueError, match=field):
            svc.execute(doc)
        assert svc._running == {}            # no slot held ...
        assert svc.durable.journal.appends == 0     # ... nothing journaled

    @pytest.mark.parametrize("field", ["mode", "strategy", "traversal",
                                       "pair_enumeration"])
    def test_bad_knob_raises_the_configs_own_error(self, trees, field):
        svc = make_service(trees)
        with pytest.raises(ValueError) as want:
            ExecutionConfig(**{field: "wat"})
        with pytest.raises(ValueError) as err:
            svc.execute({"tree1": "a", "tree2": "b", field: "wat"})
        assert str(err.value) == str(want.value)
        assert svc._running == {}            # refused before any slot

    def test_request_fields_override_service_defaults(self, trees):
        defaults = ExecutionConfig(workers=4, mode="threads",
                                   traversal="stack")
        req = JoinRequest({"tree1": "a", "tree2": "b", "strategy": "pbsm",
                           "pair_enumeration": "vectorized"},
                          ServeConfig(execution=defaults))
        assert req.execution == defaults.with_options(
            workers=1, on_worker_crash="serial", strategy="pbsm",
            pair_enumeration="vectorized")

    @pytest.mark.parametrize("path, request_fields, config_kw", [
        ("serial", {}, {}),
        ("durable", {}, {"spill_na_interval": 50}),
        ("parallel", {"workers": 2, "mode": "threads"},
         {"serial_threshold": 1}),
    ])
    def test_every_path_runs_on_the_requests_one_config(
            self, trees, path, request_fields, config_kw, tmp_path,
            monkeypatch):
        if path == "durable":
            config_kw["state_dir"] = str(tmp_path)
        svc = make_service(trees, **config_kw)
        built, used = [], []

        class SpyRequest(JoinRequest):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.execution)

        class SpyJoin(SpatialJoin):
            def __init__(self, *args, config, **kw):
                used.append(config)
                super().__init__(*args, config=config, **kw)

        def spy_parallel(*args, config, **kw):
            used.append(config)
            return parallel_spatial_join(*args, config=config, **kw)

        monkeypatch.setattr(service_mod, "JoinRequest", SpyRequest)
        monkeypatch.setattr(service_mod, "SpatialJoin", SpyJoin)
        monkeypatch.setattr(service_mod, "parallel_spatial_join",
                            spy_parallel)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "traversal": "level-batch", **request_fields})
        assert resp["status"] == "complete" and resp["degraded"] is None
        # The response says which engine ran (chosen, not requested):
        # a durable join finishes its last slice resumed, on the stack
        # machine.
        want = (("stack", "resume") if path == "durable"
                else ("level-batch", None))
        assert (resp["engine"], resp["fallback"]) == want
        [config] = built
        assert config.traversal == "level-batch"
        assert len(used) > (1 if path == "durable" else 0)
        assert all(c is config for c in used)
        if path == "durable":
            svc.drain(grace=0.1)


class TestDeadlineAndResume:
    def test_deadline_yields_token_then_resume_completes(self, trees,
                                                         direct):
        svc = make_service(trees)
        first = svc.execute({"tree1": "a", "tree2": "b",
                             "deadline": 1e-6})
        assert first["status"] == "partial"
        assert first["reason"]["resource"] == "deadline"
        assert first["remaining_na_estimate"] is not None
        assert first["retry_after"] > 0
        decode_resume_token(first["resume_token"])   # valid checkpoint
        final = svc.execute({"tree1": "a", "tree2": "b",
                             "resume_token": first["resume_token"]})
        # Resumed counters are cumulative: the finished execution's
        # NA/DA equal the uninterrupted run's exactly.
        assert final["status"] == "complete"
        assert final["na"] == direct.na_total
        assert final["da"] == direct.da_total
        assert final["pair_count"] == direct.pair_count
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.partial"] == 1
        assert snap["counters"]["serve.resumed"] == 1

    def test_default_deadline_applies(self, trees):
        svc = make_service(trees, default_deadline=1e-6)
        resp = svc.execute({"tree1": "a", "tree2": "b"})
        assert resp["status"] == "partial"

    def test_cancellation_yields_partial(self, trees, monkeypatch):
        svc = make_service(trees)
        gate = _SlowGate(svc, monkeypatch)
        box = {}

        def run():
            box["resp"] = svc.execute({"tree1": "a", "tree2": "b"})

        worker = threading.Thread(target=run)
        worker.start()
        assert gate.started.wait(10)
        join_id = next(iter(svc._running))
        assert svc.cancel(join_id)
        assert not svc.cancel("j999")
        gate.release.set()
        worker.join(30)
        assert box["resp"]["status"] == "partial"
        assert box["resp"]["reason"] == {"error": "cancelled"}
        assert "resume_token" in box["resp"]


class TestBackpressure:
    def test_queue_full_sheds_with_cost_hint(self, trees, monkeypatch):
        svc = make_service(trees, max_concurrency=1, queue_limit=0)
        gate = _SlowGate(svc, monkeypatch)
        worker = threading.Thread(
            target=svc.execute, args=({"tree1": "a", "tree2": "b"},))
        worker.start()
        assert gate.started.wait(10)
        try:
            with pytest.raises(Overloaded) as err:
                svc.execute({"tree1": "a", "tree2": "b"})
        finally:
            gate.release.set()
            worker.join(30)
        assert err.value.reason == "queue-full"
        doc = err.value.as_dict()
        assert doc["retry_after"] > 0
        assert doc["predicted_na"] > 0     # the shed request's estimate
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.shed.queue"] == 1

    def test_queued_request_gets_the_freed_slot(self, trees, direct,
                                                monkeypatch):
        svc = make_service(trees, max_concurrency=1, queue_limit=1)
        gate = _SlowGate(svc, monkeypatch)
        results = []
        first = threading.Thread(
            target=lambda: results.append(
                svc.execute({"tree1": "a", "tree2": "b"})))
        first.start()
        assert gate.started.wait(10)
        gate.release.set()              # both pass the gate afterwards
        second = threading.Thread(
            target=lambda: results.append(
                svc.execute({"tree1": "a", "tree2": "b"})))
        second.start()
        first.join(30)
        second.join(30)
        assert len(results) == 2
        assert all(r["na"] == direct.na_total for r in results)

    def test_queue_wait_timeout(self, trees, monkeypatch):
        svc = make_service(trees, max_concurrency=1, queue_limit=1,
                           queue_wait_limit=0.05)
        gate = _SlowGate(svc, monkeypatch)
        worker = threading.Thread(
            target=svc.execute, args=({"tree1": "a", "tree2": "b"},))
        worker.start()
        assert gate.started.wait(10)
        try:
            with pytest.raises(Overloaded) as err:
                svc.execute({"tree1": "a", "tree2": "b"})
        finally:
            gate.release.set()
            worker.join(30)
        assert err.value.reason == "queue-timeout"

    def test_queue_wait_deadline_is_absolute(self, trees, monkeypatch):
        # Regression: each Condition wakeup used to restart a fresh
        # queue_wait_limit window, so a waiter that kept losing the
        # slot race could wait unboundedly.  Wake the waiter far more
        # often than the window and check it still times out on
        # schedule — and that serve.queued counts requests, not
        # wakeups.
        svc = make_service(trees, max_concurrency=1, queue_limit=1,
                           queue_wait_limit=0.3)
        gate = _SlowGate(svc, monkeypatch)
        worker = threading.Thread(
            target=svc.execute, args=({"tree1": "a", "tree2": "b"},))
        worker.start()
        assert gate.started.wait(10)
        stop = threading.Event()

        def chatter():
            while not stop.is_set():
                with svc._cond:
                    svc._cond.notify_all()
                time.sleep(0.02)

        noisy = threading.Thread(target=chatter)
        noisy.start()
        begin = time.monotonic()
        try:
            with pytest.raises(Overloaded) as err:
                svc.execute({"tree1": "a", "tree2": "b"})
            elapsed = time.monotonic() - begin
        finally:
            stop.set()
            noisy.join(10)
            gate.release.set()
            worker.join(30)
        assert err.value.reason == "queue-timeout"
        assert elapsed < 5.0
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.queued"] == 1

    def test_tenant_quota_sheds(self, trees):
        t1, t2 = trees
        footprint = t1.height + t2.height      # path-buffer pages
        svc = make_service(trees,
                           tenant_quotas={"small": footprint - 1})
        with pytest.raises(QuotaExceeded) as err:
            svc.execute({"tree1": "a", "tree2": "b",
                         "tenant": "small"})
        assert err.value.retry_after is not None
        assert svc.pool.held() == 0            # nothing leaked
        # An unconstrained tenant still runs, and pages drain after.
        resp = svc.execute({"tree1": "a", "tree2": "b", "tenant": "big"})
        assert resp["status"] == "complete"
        assert svc.pool.held() == 0

    def test_none_buffer_holds_no_pages(self, trees):
        svc = make_service(trees, tenant_quotas={"t": 1})
        resp = svc.execute({"tree1": "a", "tree2": "b", "tenant": "t",
                            "buffer": "none"})
        assert resp["status"] == "complete"


class TestDegradation:
    def test_small_tree_processes_request_runs_serial(self, trees,
                                                      direct):
        svc = make_service(trees, serial_threshold=10**6)
        resp = svc.execute({"tree1": "a", "tree2": "b", "workers": 4,
                            "mode": "processes"})
        assert resp["degraded"] == "serial-small-tree"
        assert resp["status"] == "complete"
        assert resp["na"] == direct.na_total     # the serial engine ran
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.degraded.small_tree"] == 1
        # The generic counter aggregates every degradation reason.
        assert snap["counters"]["serve.degraded"] == 1

    def test_degraded_field_always_present(self, trees):
        # Graceful degradation must be observable, not silent: every
        # response carries the field (None = ran as requested) and the
        # generic serve.degraded counter only moves on real fallbacks.
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b"})
        assert resp["degraded"] is None
        assert "serve.degraded" not in \
            svc.metrics_snapshot()["counters"]

    def test_parallel_threads_above_threshold(self, trees, direct):
        svc = make_service(trees, serial_threshold=1)
        resp = svc.execute({"tree1": "a", "tree2": "b", "workers": 2,
                            "mode": "threads"})
        assert resp["status"] == "complete"
        assert resp["workers"] == 2
        assert resp["pair_count"] == direct.pair_count
        # One result shape: a parallel join counts comparisons too.
        assert resp["comparisons"] == direct.comparisons
        assert resp["degraded"] is None     # ran exactly as requested


class TestDrain:
    def test_idle_drain_is_clean(self, trees):
        svc = make_service(trees)
        assert svc.drain(grace=0.5) is True
        with pytest.raises(ServiceDraining):
            svc.execute({"tree1": "a", "tree2": "b"})
        assert svc.status()["status"] == "draining"

    def test_drain_waits_for_running_join(self, trees, monkeypatch):
        svc = make_service(trees)
        gate = _SlowGate(svc, monkeypatch)
        box = {}
        worker = threading.Thread(
            target=lambda: box.update(
                resp=svc.execute({"tree1": "a", "tree2": "b"})))
        worker.start()
        assert gate.started.wait(10)
        releaser = threading.Timer(0.2, gate.release.set)
        releaser.start()
        assert svc.drain(grace=10.0) is True     # finished inside grace
        worker.join(30)
        assert box["resp"]["status"] == "complete"

    def test_drain_cancels_stragglers(self, trees, monkeypatch):
        svc = make_service(trees)
        gate = _SlowGate(svc, monkeypatch)
        box = {}
        worker = threading.Thread(
            target=lambda: box.update(
                resp=svc.execute({"tree1": "a", "tree2": "b"})))
        worker.start()
        assert gate.started.wait(10)
        releaser = threading.Timer(0.5, gate.release.set)
        releaser.start()
        clean = svc.drain(grace=0.05)            # expires before release
        worker.join(30)
        assert clean is False
        # The cancelled join still surfaced a resumable partial result.
        assert box["resp"]["status"] == "partial"
        assert box["resp"]["reason"] == {"error": "cancelled"}


class TestIntrospection:
    def test_status_shape(self, trees):
        svc = make_service(trees)
        status = svc.status()
        assert status["status"] == "ok"
        assert status["trees"] == ["a", "b"]
        assert status["running"] == 0
        assert status["uptime"] >= 0

    def test_trees_listing(self, trees):
        svc = make_service(trees)
        listing = svc.trees()
        assert [t["name"] for t in listing] == ["a", "b"]
        assert all(t["priceable"] for t in listing)

    def test_metrics_gauges_refresh(self, trees):
        svc = make_service(trees)
        svc.execute({"tree1": "a", "tree2": "b"})
        snap = svc.metrics_snapshot()
        assert snap["gauges"]["serve.running"] == 0
        assert snap["gauges"]["serve.na_per_second"] > 0
        assert snap["histograms"]["serve.latency_ms"]["count"] == 1

    def test_register_tree_validates_name(self, trees):
        svc = JoinService(ServeConfig())
        with pytest.raises(ValueError):
            svc.register_tree("", trees[0])
        with pytest.raises(ValueError):
            svc.register_tree("a/b", trees[0])


class TestPBSMStrategy:
    """The partition engine through the serve request schema."""

    def test_pbsm_request_matches_direct_pairs(self, trees, direct):
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "strategy": "pbsm", "collect_pairs": True})
        assert resp["status"] == "complete"
        assert resp["degraded"] is None
        assert sorted(map(tuple, resp["pairs"])) == \
            sorted(direct.pairs)
        # PBSM never revisits a page: NA == DA.
        assert resp["na"] == resp["da"]

    def test_unknown_strategy_rejected(self, trees):
        svc = make_service(trees)
        with pytest.raises(ValueError, match="strategy must be one of"):
            svc.execute({"tree1": "a", "tree2": "b",
                         "strategy": "grid"})

    def test_pbsm_resume_token_rejected(self, trees):
        svc = make_service(trees)
        with pytest.raises(ValueError,
                           match="incompatible with strategy 'pbsm'"):
            svc.execute({"tree1": "a", "tree2": "b",
                         "strategy": "pbsm", "resume_token": "abc"})

    def test_pbsm_partial_has_null_resume_token(self, trees):
        # A budget-tripped PBSM join yields the completed tiles but no
        # checkpoint — the response says so with an explicitly null
        # token instead of crashing the encoder.
        svc = make_service(trees)
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "strategy": "pbsm", "max_na": 5,
                            "admission": "off"})
        assert resp["status"] == "partial"
        assert resp["resume_token"] is None

    def test_durable_pbsm_degrades_without_spilling(self, trees,
                                                    tmp_path):
        svc = JoinService(ServeConfig(state_dir=str(tmp_path)))
        svc.register_tree("a", trees[0])
        svc.register_tree("b", trees[1])
        resp = svc.execute({"tree1": "a", "tree2": "b",
                            "strategy": "pbsm"})
        assert resp["status"] == "complete"
        assert resp["degraded"] == "pbsm-no-spill"
        counters = svc.metrics_snapshot()["counters"]
        assert counters["serve.degraded.pbsm_no_spill"] == 1
        assert counters["serve.degraded"] == 1
        assert "serve.journal.spills" not in counters
        svc.drain(grace=0.1)
