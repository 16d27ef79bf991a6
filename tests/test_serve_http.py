"""The asyncio daemon end to end: real sockets, typed errors, CLI codes.

A module-scoped harness runs :class:`ServeDaemon` on a background event
loop listening on an ephemeral TCP port *and* a unix socket; tests talk
to it with :class:`ServeClient` exactly as a remote caller would.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.cli import EXIT_BUDGET, EXIT_USAGE, main
from repro.exec import AdmissionRejected, ExecutionConfig
from repro.join import SpatialJoin
from repro.reliability import MalformedFileError
from repro.serve import (JoinService, Overloaded, ServeClient,
                         ServeConfig, ServeDaemon, ServiceDraining,
                         UnknownTree)
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items
from .test_serve_service import COERCED_FIELDS


class DaemonHarness:
    """A ServeDaemon on its own event-loop thread."""

    def __init__(self, config: ServeConfig):
        self.service = JoinService(config)
        self.daemon = ServeDaemon(self.service)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.addresses = asyncio.run_coroutine_threadsafe(
            self.daemon.start(), self.loop).result(timeout=10)

    @property
    def http_url(self) -> str:
        return next(a for a in self.addresses if a.startswith("http://"))

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.daemon.stop(grace=5.0), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(280, seed=101), max_entries=8)
    t2 = build_rstar(make_items(240, seed=102), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def direct(trees):
    t1, t2 = trees
    return SpatialJoin(t1, t2, PathBuffer()).run()


@pytest.fixture(scope="module")
def harness(trees, tmp_path_factory):
    sock_path = str(tmp_path_factory.mktemp("serve") / "repro.sock")
    h = DaemonHarness(ServeConfig(port=0, unix_path=sock_path,
                                  max_concurrency=4, queue_limit=8))
    h.service.register_tree("a", trees[0])
    h.service.register_tree("b", trees[1])
    yield h
    h.close()


@pytest.fixture(scope="module")
def client(harness):
    return ServeClient(harness.http_url, timeout=30.0)


class TestEndpoints:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["trees"] == ["a", "b"]

    def test_trees(self, client):
        doc = client.trees()
        assert [t["name"] for t in doc["trees"]] == ["a", "b"]

    def test_join_complete_matches_direct(self, client, direct):
        doc = client.join("a", "b", collect_pairs=True)
        assert doc["status"] == "complete"
        assert doc["na"] == direct.na_total
        assert doc["da"] == direct.da_total
        assert sorted(map(tuple, doc["pairs"])) == sorted(direct.pairs)

    def test_join_over_unix_socket(self, harness, direct):
        unix_url = next(a for a in harness.addresses
                        if a.startswith("unix:"))
        doc = ServeClient(unix_url, timeout=30.0).join("a", "b")
        assert doc["na"] == direct.na_total

    def test_metrics_scrape(self, client):
        client.join("a", "b")
        doc = client.metrics()
        assert doc["counters"]["serve.admitted"] >= 1
        assert doc["counters"]["serve.trees_registered"] == 2
        assert "serve.latency_ms" in doc["histograms"]

    def test_unknown_route_and_method(self, client):
        with pytest.raises(ValueError, match="404"):
            client.request("GET", "/nope")
        with pytest.raises(ValueError, match="405"):
            client.request("POST", "/metrics")

    def test_cancel_unknown_join_is_404(self, client):
        doc = client.request("POST", "/cancel", {"join_id": "j999"},
                             accept=(404,))
        assert doc["cancelled"] is False


class TestTypedErrorsOverHttp:
    def test_unknown_tree_404(self, client):
        with pytest.raises(UnknownTree):
            client.join("a", "missing")

    def test_bad_request_400(self, client):
        with pytest.raises(ValueError, match="400"):
            client.join("a", "b", bogus=1)

    @pytest.mark.parametrize("field", ["mode", "strategy", "traversal",
                                       "pair_enumeration"])
    def test_bad_execution_knob_400_with_the_config_message(self, client,
                                                            field):
        # The request schema does not re-check the vocabularies: the
        # 400 carries ExecutionConfig's own validation message.
        with pytest.raises(ValueError) as want:
            ExecutionConfig(**{field: "wat"})
        with pytest.raises(ValueError, match="400") as err:
            client.join("a", "b", **{field: "wat"})
        assert str(want.value) in str(err.value)

    def test_pbsm_with_workers_400(self, client):
        # The config refuses the combination; the daemon says so.
        with pytest.raises(ValueError, match="400.*workers must be 1"):
            client.join("a", "b", strategy="pbsm", workers=2)

    @pytest.mark.parametrize("field, value", COERCED_FIELDS)
    def test_coerced_field_400_names_the_field(self, harness, client,
                                               field, value):
        with pytest.raises(ValueError, match=f"400.*{field}"):
            client.join("a", "b", **{field: value})
        assert harness.service._running == {}

    def test_request_budget_rejection_413(self, client):
        with pytest.raises(AdmissionRejected) as err:
            client.join("a", "b", max_na=1, admission="reject")
        assert err.value.observed > 1     # machine-readable estimate

    def test_bad_resume_token_422(self, client):
        with pytest.raises(MalformedFileError):
            client.join("a", "b", resume_token="junk")

    def test_partial_then_resume_over_http(self, client, direct):
        first = client.join("a", "b", deadline=1e-6)
        assert first["status"] == "partial"
        final = client.join("a", "b",
                            resume_token=first["resume_token"])
        assert final["status"] == "complete"
        assert final["na"] == direct.na_total
        assert final["da"] == direct.da_total


class TestOverloadOverHttp:
    def test_queue_full_yields_429_with_retry_after(self, trees,
                                                    monkeypatch):
        h = DaemonHarness(ServeConfig(port=0, max_concurrency=1,
                                      queue_limit=0))
        try:
            h.service.register_tree("a", trees[0])
            h.service.register_tree("b", trees[1])
            started = threading.Event()
            release = threading.Event()
            original = h.service._run

            def gated(req, reg1, reg2, checkpoint, token, join_id):
                started.set()
                assert release.wait(30)
                return original(req, reg1, reg2, checkpoint, token,
                                join_id)

            monkeypatch.setattr(h.service, "_run", gated)
            c = ServeClient(h.http_url, timeout=30.0)
            occupier = threading.Thread(target=c.join, args=("a", "b"))
            occupier.start()
            assert started.wait(10)
            try:
                with pytest.raises(Overloaded) as err:
                    c.join("a", "b")
            finally:
                release.set()
                occupier.join(30)
            assert err.value.reason == "queue-full"
            assert err.value.retry_after > 0
        finally:
            h.close()

    def test_client_disconnect_cancels_join(self, trees, monkeypatch):
        h = DaemonHarness(ServeConfig(port=0))
        try:
            h.service.register_tree("a", trees[0])
            h.service.register_tree("b", trees[1])
            started = threading.Event()
            release = threading.Event()
            original = h.service._run

            def gated(req, reg1, reg2, checkpoint, token, join_id):
                started.set()
                assert release.wait(30)
                return original(req, reg1, reg2, checkpoint, token,
                                join_id)

            monkeypatch.setattr(h.service, "_run", gated)
            host, port = h.http_url[len("http://"):].split(":")
            body = json.dumps({"tree1": "a", "tree2": "b"}).encode()
            with socket.create_connection((host, int(port))) as raw:
                raw.sendall(b"POST /join HTTP/1.1\r\n"
                            b"Content-Length: %d\r\n\r\n%s"
                            % (len(body), body))
                assert started.wait(10)
            # Socket closed mid-join: the daemon should cancel the
            # request's token and record the disconnect.  The join is
            # held until it has, so that how fast the engine finishes
            # the join does not decide the test.
            c = ServeClient(h.http_url, timeout=30.0)
            import time

            def wait_for(counter):
                end = time.monotonic() + 10.0
                while time.monotonic() < end:
                    if c.metrics()["counters"].get(counter):
                        break
                    time.sleep(0.05)

            wait_for("serve.client_disconnects")
            release.set()
            wait_for("serve.partial")
            counters = c.metrics()["counters"]
            assert counters.get("serve.client_disconnects") == 1
            # The orphaned join stopped at its next governor check and
            # checkpointed as a resumable partial result.
            assert counters.get("serve.partial") == 1
        finally:
            h.close()


    def test_trailing_bytes_are_not_a_disconnect(self, trees, direct,
                                                 monkeypatch):
        # Regression: the disconnect watchdog completed on ANY readable
        # bytes, so a client that pipelined a second request (valid
        # HTTP/1.1) had its running join spuriously cancelled and got a
        # partial result.  Only a true EOF means the client went away.
        h = DaemonHarness(ServeConfig(port=0))
        try:
            h.service.register_tree("a", trees[0])
            h.service.register_tree("b", trees[1])
            started = threading.Event()
            release = threading.Event()
            original = h.service._run

            def gated(req, reg1, reg2, checkpoint, token, join_id):
                started.set()
                assert release.wait(30)
                return original(req, reg1, reg2, checkpoint, token,
                                join_id)

            monkeypatch.setattr(h.service, "_run", gated)
            host, port = h.http_url[len("http://"):].split(":")
            body = json.dumps({"tree1": "a", "tree2": "b"}).encode()
            with socket.create_connection((host, int(port))) as raw:
                raw.sendall(b"POST /join HTTP/1.1\r\n"
                            b"Content-Length: %d\r\n\r\n%s"
                            % (len(body), body))
                assert started.wait(10)
                raw.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                release.set()
                raw.settimeout(30)
                data = b""
                while chunk := raw.recv(65536):
                    data += chunk
            head, _, payload = data.partition(b"\r\n\r\n")
            assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 200 OK"
            doc = json.loads(payload)
            assert doc["status"] == "complete"
            assert doc["na"] == direct.na_total
            counters = h.service.metrics_snapshot()["counters"]
            assert "serve.client_disconnects" not in counters
        finally:
            h.close()


class TestDrainOverHttp:
    def test_draining_daemon_reports_503(self, trees):
        h = DaemonHarness(ServeConfig(port=0))
        try:
            h.service.register_tree("a", trees[0])
            h.service.register_tree("b", trees[1])
            c = ServeClient(h.http_url, timeout=30.0)
            assert h.service.drain(grace=1.0) is True
            assert c.healthz()["status"] == "draining"
            with pytest.raises(ServiceDraining):
                c.join("a", "b")
        finally:
            h.close()


class TestServeJoinCli:
    """``repro serve-join`` against a live daemon: the exit-code protocol."""

    def test_complete_exit_0(self, harness, direct, capsys):
        code = main(["serve-join", harness.http_url, "a", "b"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["na"] == direct.na_total

    def test_admission_rejected_exit_5_with_reason(self, harness,
                                                   capsys):
        code = main(["serve-join", harness.http_url, "a", "b",
                     "--max-na", "1"])
        assert code == EXIT_BUDGET
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "admission-rejected"
        assert doc["predicted"] is True

    def test_partial_exit_5_with_resume_token(self, harness, capsys):
        code = main(["serve-join", harness.http_url, "a", "b",
                     "--deadline", "0.000001"])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["status"] == "partial"
        assert "resume_token" in doc
        assert "--resume-token" in captured.err

    def test_unknown_tree_exit_2(self, harness, capsys):
        code = main(["serve-join", harness.http_url, "a", "missing"])
        assert code == EXIT_USAGE
