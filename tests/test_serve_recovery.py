"""Crash recovery: kill a durable daemon mid-join, restart, resume.

The in-process tests simulate the crash precisely (a ``BaseException``
raised from inside the spill path, so no ``abort`` record is ever
journaled — exactly the journal image a SIGKILL leaves).  The
end-to-end test then does it for real: a subprocess daemon is
SIGKILLed mid-join and a fresh daemon over the same ``--state-dir``
must restore the registrations, finish the orphaned join from its last
checkpoint, and answer the retried idempotency key bit-identically —
the issue's acceptance criterion.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.io import save_tree
from repro.join import SpatialJoin
from repro.serve import JoinService, ServeClient, ServeConfig
from repro.serve.service import wire_body
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items

REQUEST = {"tree1": "a", "tree2": "b", "collect_pairs": True}


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(280, seed=101), max_entries=8)
    t2 = build_rstar(make_items(240, seed=102), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def direct(trees):
    t1, t2 = trees
    return SpatialJoin(t1, t2, PathBuffer()).run()


def make_durable_service(trees, state_dir, **config_kw):
    config_kw.setdefault("spill_na_interval", 40)
    svc = JoinService(ServeConfig(state_dir=str(state_dir), **config_kw))
    svc.register_tree("a", trees[0])
    svc.register_tree("b", trees[1])
    return svc


def assert_matches_direct(resp, direct):
    assert resp["status"] == "complete"
    assert resp["na"] == direct.na_total
    assert resp["da"] == direct.da_total
    assert resp["pair_count"] == direct.pair_count
    assert sorted(map(tuple, resp["pairs"])) == sorted(direct.pairs)


class TestIdempotency:
    def test_retried_key_replays_without_reexecution(self, trees, direct,
                                                     tmp_path):
        svc = make_durable_service(trees, tmp_path / "state")
        first = svc.execute(dict(REQUEST, idempotency_key="k-1"))
        again = svc.execute(dict(REQUEST, idempotency_key="k-1"))
        assert again == first
        assert_matches_direct(again, direct)
        snap = svc.metrics_snapshot()
        assert snap["counters"]["serve.idempotent_hits"] == 1
        assert snap["counters"]["serve.admitted"] == 1   # ran once
        svc.durable.close()

    def test_completed_key_survives_clean_restart(self, trees, direct,
                                                  tmp_path):
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        svc.execute(dict(REQUEST, idempotency_key="k-1"))
        assert svc.drain()                   # compacts + closes the state

        svc2 = JoinService(ServeConfig(state_dir=str(state)))
        report = svc2.recover()
        assert report["trees"] == 2
        assert report["completed_cached"] == 1
        assert report["resumed"] == report["replayed"] == 0
        resp = svc2.execute(dict(REQUEST, idempotency_key="k-1"))
        assert_matches_direct(resp, direct)
        assert "serve.admitted" not in \
            svc2.metrics_snapshot()["counters"]
        svc2.durable.close()

    def test_responses_do_not_alias_the_cache(self, trees, direct,
                                              tmp_path):
        # Regression: the cache held the very dict the first execute()
        # returned, and a replay was a shallow copy sharing "pairs", so
        # a caller's edit changed every later replay.
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        request = dict(REQUEST, idempotency_key="k-alias")
        first = svc.execute(request)
        expected = json.loads(json.dumps(first))
        assert_matches_direct(expected, direct)
        first["pairs"].clear()
        first["na"] = -1
        replay = svc.execute(request)
        assert replay == expected
        replay["pairs"].append([-1, -1])
        replay["na_by_tree"]["R1"] = -1
        assert svc.execute(request) == expected
        assert svc.drain()

        svc2 = JoinService(ServeConfig(state_dir=str(state)))
        svc2.recover()
        assert svc2.execute(request) == expected
        svc2.durable.close()

    @pytest.mark.parametrize("extra", [
        {},
        {"max_na": 30, "admission": "off"},      # partial: has "reason"
        {"workers": 2, "mode": "threads"},       # parallel: has "workers"
    ], ids=["complete", "partial", "parallel"])
    def test_restart_replays_the_first_bytes(self, trees, tmp_path,
                                             extra):
        # The journal keeps a response key-sorted; the recovered cache
        # must still answer with the bytes the first response carried.
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        request = dict(REQUEST, idempotency_key="k-bytes", **extra)
        first = wire_body(svc.execute(request))
        assert svc.admit(request).body == first
        assert svc.drain()
        svc2 = JoinService(ServeConfig(state_dir=str(state)))
        assert svc2.recover()["completed_cached"] == 1
        assert svc2.admit(request).body == first
        svc2.durable.close()

    def test_recover_is_idempotent(self, trees, tmp_path):
        svc = make_durable_service(trees, tmp_path / "state")
        report = svc.recover()
        assert svc.recover() is report
        svc.durable.close()


class TestCrashMidJoin:
    """SIGKILL-shaped interruption at several points of the spill loop."""

    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_restart_resumes_bit_identical(self, trees, direct, tmp_path,
                                           cut):
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        spills = {"n": 0}
        original = svc.durable.spill

        def crashing(rid, checkpoint, na=None):
            # KeyboardInterrupt is a BaseException: execute()'s
            # ``except Exception`` cannot journal an abort, exactly
            # like a process that died with the entry still open.
            if spills["n"] >= cut:
                raise KeyboardInterrupt
            spills["n"] += 1
            return original(rid, checkpoint, na)

        svc.durable.spill = crashing
        with pytest.raises(KeyboardInterrupt):
            svc.execute(dict(REQUEST, idempotency_key="k-crash"))
        # The dying service leaked nothing in-process...
        with svc._cond:
            assert not svc._running
        assert svc.pool.held() == 0
        svc.durable.close()

        # ...and the journal shows one genuinely in-flight entry.
        svc2 = JoinService(ServeConfig(state_dir=str(state),
                                       spill_na_interval=40))
        report = svc2.recover()
        assert report["trees"] == 2
        expected = "resumed" if cut > 0 else "replayed"
        assert report[expected] == 1
        assert report["failed"] == 0

        # The client's retry of the same key gets the full answer,
        # bit-identical to an uninterrupted run, without re-admission.
        resp = svc2.execute(dict(REQUEST, idempotency_key="k-crash"))
        assert_matches_direct(resp, direct)
        assert "serve.admitted" not in \
            svc2.metrics_snapshot()["counters"]
        svc2.durable.close()

    def test_corrupt_spill_falls_back_to_replay(self, trees, direct,
                                                tmp_path):
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        spills = {"n": 0}
        original = svc.durable.spill

        def crashing(rid, checkpoint, na=None):
            if spills["n"] >= 1:
                raise KeyboardInterrupt
            spills["n"] += 1
            return original(rid, checkpoint, na)

        svc.durable.spill = crashing
        with pytest.raises(KeyboardInterrupt):
            svc.execute(dict(REQUEST, idempotency_key="k-corrupt"))
        svc.durable.close()
        spill_files = list((state / "spills").iterdir())
        assert spill_files
        spill_files[0].write_bytes(b"not a checkpoint")

        svc2 = JoinService(ServeConfig(state_dir=str(state),
                                       spill_na_interval=40))
        report = svc2.recover()
        assert report["replayed"] == 1 and report["failed"] == 0
        snap = svc2.metrics_snapshot()
        assert snap["counters"]["serve.recovery.spill_failed"] == 1
        resp = svc2.execute(dict(REQUEST, idempotency_key="k-corrupt"))
        assert_matches_direct(resp, direct)
        svc2.durable.close()

    def test_missing_tree_file_contained(self, trees, tmp_path):
        state = tmp_path / "state"
        svc = make_durable_service(trees, state)
        svc.execute(dict(REQUEST, idempotency_key="k-1"))
        svc.durable.close()
        # Wreck one persisted tree object.
        victim = next((state / "trees").iterdir())
        victim.write_text("{}")

        svc2 = JoinService(ServeConfig(state_dir=str(state)))
        report = svc2.recover()
        assert report["trees_failed"] == 1
        assert report["trees"] == 1          # the other one still loads
        assert report["completed_cached"] == 1
        svc2.durable.close()


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


class TestKillAndRestartE2E:
    """The real thing: SIGKILL a subprocess daemon mid-join."""

    @pytest.fixture(scope="class")
    def big_trees(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("e2e-trees")
        t1 = build_rstar(make_items(2400, seed=201), max_entries=8)
        t2 = build_rstar(make_items(2200, seed=202), max_entries=8)
        save_tree(t1, root / "a.json")
        save_tree(t2, root / "b.json")
        expect = SpatialJoin(t1, t2, PathBuffer()).run(
            collect_pairs=False)
        return root, expect

    def _spawn(self, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env)

    def _started(self, proc):
        line = proc.stdout.readline()
        assert line, "daemon exited before announcing its address"
        doc = json.loads(line)
        return doc["serving"][0], doc

    def test_sigkill_midjoin_then_recover(self, big_trees, tmp_path):
        root, expect = big_trees
        state = tmp_path / "state"
        journal = state / "journal.jsonl"
        proc = self._spawn(["--state-dir", str(state),
                            "--spill-interval", "400",
                            "--journal-fsync", "0",
                            "--tree", f"a={root / 'a.json'}",
                            "--tree", f"b={root / 'b.json'}"])
        proc2 = None
        try:
            url, _doc = self._started(proc)
            client = ServeClient(url, timeout=60.0)
            errors = []

            def fire():
                try:
                    client.join("a", "b", idempotency_key="e2e-k")
                except Exception as exc:       # the daemon dies under it
                    errors.append(exc)

            worker = threading.Thread(target=fire, daemon=True)
            worker.start()
            # Journal records are compact JSON: no space after ':'.
            _wait_for(lambda: journal.exists()
                      and '"op":"spill"' in journal.read_text(),
                      timeout=60, what="a journaled spill")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            worker.join(timeout=30)
            assert errors, "client should have seen the crash"

            # Restart over the same state dir: no --tree flags, the
            # manifest is the only source of registrations.
            proc2 = self._spawn(["--state-dir", str(state),
                                 "--spill-interval", "400"])
            url2, doc2 = self._started(proc2)
            recovered = doc2["recovered"]
            assert sorted(doc2["trees"]) == ["a", "b"]
            assert recovered["trees"] == 2
            assert recovered["resumed"] + recovered["replayed"] == 1
            assert recovered["failed"] == 0

            client2 = ServeClient(url2, timeout=60.0)
            resp = client2.join("a", "b", idempotency_key="e2e-k")
            assert resp["status"] == "complete"
            assert resp["na"] == expect.na_total
            assert resp["da"] == expect.da_total
            assert resp["pair_count"] == expect.pair_count
            health = client2.healthz()
            assert health["running"] == 0
            # Served from the recovery result, not re-executed.
            metrics = client2.metrics()
            assert metrics["counters"]["serve.idempotent_hits"] == 1
            assert "serve.admitted" not in metrics["counters"]
        finally:
            for p in (proc, proc2):
                if p is not None and p.poll() is None:
                    p.send_signal(signal.SIGTERM)
                    try:
                        p.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        p.kill()
            proc.stdout.close()
            if proc2 is not None:
                proc2.stdout.close()

    def test_clean_shutdown_compacts_journal(self, big_trees, tmp_path):
        root, _expect = big_trees
        state = tmp_path / "state"
        proc = self._spawn(["--state-dir", str(state),
                            "--tree", f"a={root / 'a.json'}",
                            "--tree", f"b={root / 'b.json'}"])
        try:
            url, _doc = self._started(proc)
            ServeClient(url, timeout=60.0).healthz()
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            proc.stdout.close()
        assert code == 0
        # Drain compacted: the journal holds only completed records.
        raw = (state / "journal.jsonl").read_text() \
            if (state / "journal.jsonl").exists() else ""
        assert '"op":"begin"' not in raw
        manifest = (state / "manifest.jsonl").read_text()
        assert manifest.count('"op":"tree"') == 2
