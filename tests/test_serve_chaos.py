"""Chaos harness: seeded transport faults against a live daemon.

A :class:`~repro.reliability.StreamFaultInjector` plans the abuse —
connections dropped mid-request and mid-response, JSON frames truncated
after promising their full Content-Length, slow-loris trickle — and
:class:`~repro.serve.ChaosClient` executes it over raw sockets.  The
daemon's contract under that storm: no leaked concurrency slots or
pool pages, well-formed answers for every surviving request, and the
slow-client guard turning a trickling sender into a 408, never a held
slot.
"""

import time

import pytest

from repro.join import SpatialJoin
from repro.reliability import StreamFault, StreamFaultInjector
from repro.serve import ChaosClient, ServeClient, ServeConfig
from repro.storage import PathBuffer

from .conftest import DaemonHarness, build_rstar, make_items

REQUEST = {"tree1": "a", "tree2": "b"}


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(280, seed=101), max_entries=8)
    t2 = build_rstar(make_items(240, seed=102), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def direct(trees):
    t1, t2 = trees
    return SpatialJoin(t1, t2, PathBuffer()).run(collect_pairs=False)


@pytest.fixture(scope="module")
def harness(trees, tmp_path_factory):
    state = tmp_path_factory.mktemp("chaos-state")
    h = DaemonHarness(ServeConfig(port=0,
                                  state_dir=str(state / "state")))
    h.service.register_tree("a", trees[0])
    h.service.register_tree("b", trees[1])
    yield h
    h.close()


def _host_port(harness):
    hostport = harness.http_url.removeprefix("http://")
    host, _, port = hostport.rpartition(":")
    return host, int(port)


def _settle(harness, timeout=10.0):
    """Wait for the daemon to shed every in-flight request."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = harness.service.status()
        if status["running"] == 0 and harness.service.pool.held() == 0:
            return
        time.sleep(0.05)
    raise AssertionError("daemon never settled after the chaos storm")


class TestInjectorDeterminism:
    def test_same_seed_same_plan(self):
        kwargs = dict(seed=11, drop_request_rate=0.3,
                      truncate_frame_rate=0.3, slow_loris_rate=0.2,
                      drop_response_rate=0.1)
        a = StreamFaultInjector(**kwargs)
        b = StreamFaultInjector(**kwargs)
        plans = [(f.kind, f.fraction) for f in (a.plan()
                                                for _ in range(50))]
        assert plans == [(f.kind, f.fraction)
                        for f in (b.plan() for _ in range(50))]
        assert a.counts.as_dict() == b.counts.as_dict()

    def test_reset_replays_identically(self):
        inj = StreamFaultInjector(seed=3, drop_request_rate=0.5)
        first = [inj.plan().kind for _ in range(20)]
        inj.reset()
        assert [inj.plan().kind for _ in range(20)] == first
        assert inj.counts.requests == 20

    def test_zero_rates_never_inject(self):
        inj = StreamFaultInjector(seed=1)
        assert all(inj.plan().kind == "none" for _ in range(100))


class TestChaosStorm:
    def test_storm_leaks_nothing(self, harness, direct):
        host, port = _host_port(harness)
        injector = StreamFaultInjector(
            seed=7, drop_request_rate=0.25, truncate_frame_rate=0.25,
            slow_loris_rate=0.15, drop_response_rate=0.15,
            chunk=16, delay=0.001)
        chaos = ChaosClient(host, port, injector)
        good = ServeClient(harness.http_url, timeout=30.0)

        outcomes = []
        for i in range(40):
            outcomes.append(chaos.join(REQUEST))
            if i % 10 == 9:
                # A well-behaved client must not notice the storm.
                resp = good.join("a", "b")
                assert resp["status"] == "complete"
                assert resp["na"] == direct.na_total

        counts = injector.counts.as_dict()
        assert counts["requests"] == 40
        tally = {}
        for o in outcomes:
            tally[o.kind] = tally.get(o.kind, 0) + 1
        assert tally.get("drop-request", 0) == counts["drop_request"]
        assert tally.get("truncate-frame", 0) == counts["truncate_frame"]
        assert tally.get("slow-loris", 0) == counts["slow_loris"]
        assert tally.get("drop-response", 0) == counts["drop_response"]

        # Requests the fault let through still got full valid answers.
        for o in outcomes:
            if o.kind in ("none", "slow-loris") and o.status is not None:
                assert o.status == 200
                assert o.doc["status"] == "complete"
                assert o.doc["na"] == direct.na_total

        _settle(harness)
        final = good.join("a", "b")
        assert final["na"] == direct.na_total
        assert final["da"] == direct.da_total

    def test_lost_response_recovered_by_idempotent_retry(self, harness,
                                                         direct):
        # The injector's reason to exist: a response lost in transit is
        # exactly what an idempotency key + retry must paper over.
        host, port = _host_port(harness)
        chaos = ChaosClient(host, port, StreamFaultInjector())
        outcome = chaos.execute(StreamFault("drop-response"), REQUEST,
                                idempotency_key="chaos-lost")
        assert outcome.sent > 0
        _settle(harness)      # server finishes the join regardless

        good = ServeClient(harness.http_url, timeout=30.0)
        before = good.metrics()["counters"].get(
            "serve.idempotent_hits", 0)
        resp = good.join("a", "b", idempotency_key="chaos-lost")
        assert resp["status"] == "complete"
        assert resp["na"] == direct.na_total
        after = good.metrics()["counters"]["serve.idempotent_hits"]
        assert after == before + 1


class TestSlowLorisGuard:
    @pytest.fixture()
    def slow_harness(self, trees, tmp_path):
        h = DaemonHarness(ServeConfig(port=0, read_timeout=0.3))
        h.service.register_tree("a", trees[0])
        h.service.register_tree("b", trees[1])
        yield h
        h.close()

    def test_trickling_client_gets_408_not_a_slot(self, slow_harness):
        host, port = _host_port(slow_harness)
        chaos = ChaosClient(host, port, StreamFaultInjector(),
                            timeout=30.0)
        # ~180 bytes at 2 bytes / 20ms ≈ 1.8s of trickle against a
        # 0.3s read timeout: the daemon must cut the client off.
        outcome = chaos.execute(
            StreamFault("slow-loris", chunk=2, delay=0.02), REQUEST)
        assert outcome.status == 408 or outcome.error is not None
        snap = slow_harness.service.metrics_snapshot()
        assert snap["counters"]["serve.slow_client_timeouts"] >= 1
        assert slow_harness.service.status()["running"] == 0
        # The guard punishes slow clients only: a normal join after it
        # sails through.
        resp = ServeClient(slow_harness.http_url,
                           timeout=30.0).join("a", "b")
        assert resp["status"] == "complete"
