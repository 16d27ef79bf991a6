"""``serve-mixed``: the daemon under a closed-loop mix of requests.

Why: governor, durable tier, admission, serialisation and transport
dominate a served join (three times the kernel's cost); build and arena
do nothing.  Journal writes sit beside idempotency-cache reads and
admission refusals in one mix, so a gain for one that costs another
shows.  ``op_ms`` is one executed join, request to full response;
``alt_ms`` is what the two requests of a mix that execute nothing cost
together: the replay of a recorded response and the refusal.

One ``ServeClient``, closed loop.  The daemon runs with
``--journal-fsync -1`` (never fsync: kill-safe, not power-safe) on every
run, so the sandbox's device is not what is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from urllib.parse import urlparse

from repro import (OVERLAP, AdmissionRejected, Estimator, PathBuffer,
                   load_tree, save_tree, spatial_join, str_pack,
                   uniform_rectangles)
from repro.serve import JoinService, ServeClient, ServeConfig

from ..inputs import mix
from ..oracle import LEVEL_BATCH, reference_join
from ..runner import ROOT
from .base import Workload, peak_rss_mb

MAX_ENTRIES = 24
#: name -> (cardinality, density).  ``b`` is smaller than ``a`` so the two
#: STR leaf grids do not coincide (see ``JoinUniform60k``); ``wide`` is so
#: dense that joining it with itself is priced above the daemon's ceiling.
TREES = {"a": (6_000, 0.5), "b": (5_200, 0.5), "wide": (6_000, 8.0)}
JOIN = {"collect_pairs": True, "traversal": "level-batch",
        "pair_enumeration": "vectorized"}
MIX = ["join"] * 7 + ["keyed", "replay", "oversized"]
READY_TIMEOUT = 60.0
IN_PROCESS_REPEATS = 9


class ServeMixed(Workload):
    name = "serve-mixed"

    def __init__(self, seed, rec, out):
        super().__init__(seed, rec, out)
        self.dir = out / f"serve-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        built = {}
        for name, (n, density) in TREES.items():
            data = uniform_rectangles(n, density, 2,
                                      seed=mix(seed, self.name, name))
            built[name] = str_pack(data.items, 2, MAX_ENTRIES)
        self.layer["io.save_tree_ms"] = statistics.median(
            self.timed("io.save_tree", save_tree, tree,
                       str(self.dir / f"{name}.json"))[0]
            for name, tree in built.items())
        admitted = Estimator.from_trees(built["a"], built["b"]).na()
        refused = Estimator.from_trees(built["wide"], built["wide"]).na()
        if refused < 1.5 * admitted:
            raise RuntimeError("the oversized request is not oversized")
        self.ceiling = (admitted * refused) ** 0.5
        # One client in a closed loop: the retry of a request whose
        # response was lost is that client's very next request.
        order = [kind for kind in MIX if kind != "replay"]
        random.Random(mix(seed, self.name, "order")).shuffle(order)
        at = order.index("keyed") + 1
        self.mix = order[:at] + ["replay"] + order[at:]
        self.daemon = None
        self.client = None
        self.turn = 0
        self.sent = dict.fromkeys(MIX, 0)
        #: Seconds the ten requests of each timed mix took together.
        self.mixes: list[float] = []

    # -- set-up: daemon start -> ready with trees registered -----------------

    def _tree_path(self, name: str) -> str:
        return str(self.dir / f"{name}.json")

    def setup(self) -> None:
        state = self.dir / "state"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--state-dir", str(state), "--journal-fsync", "-1",
                   "--max-predicted-na", repr(self.ceiling)]
        for name in TREES:
            command += ["--tree", f"{name}={self._tree_path(name)}"]
        self.rec.call("serve.daemon.ready", self._start, command)
        self.sent = dict.fromkeys(MIX, 0)

    def _start(self, command) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.daemon = subprocess.Popen(command, env=env, text=True,
                                       stdout=subprocess.PIPE)
        line = self.daemon.stdout.readline()
        if '"serving"' not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = json.loads(line)["serving"][0]
        self.client = ServeClient(self.url, timeout=READY_TIMEOUT)

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.communicate(timeout=READY_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.communicate()
            self.daemon = None
        shutil.rmtree(self.dir / "state", ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.daemon.pid)

    # -- oracle: the direct join on the files the daemon loaded --------------

    def reference(self, timer) -> None:
        self.layer["io.load_tree_ms"], tree_a = self.timed(
            "io.load_tree", load_tree, self._tree_path("a"))
        self.trees = (tree_a, load_tree(self._tree_path("b")))
        self.ref = reference_join(*self.trees, PathBuffer, OVERLAP)
        self.ref_pairs = [list(p) for p in self.ref.pairs]

    def _same(self, doc: dict) -> bool:
        return (doc["status"] == "complete" and doc["degraded"] is None
                and doc["pairs"] == self.ref_pairs
                and doc["na_by_tree"] == self.ref.by_tree["na"]
                and doc["da_by_tree"] == self.ref.by_tree["da"])

    # -- the timed operations: one mix ---------------------------------------

    def _request(self, kind: str, key: str):
        call = self.rec.call
        self.sent[kind] += 1
        if kind == "join":
            return call("serve.http.join", self.client.join, "a", "b", **JOIN)
        if kind == "keyed":
            return call("serve.http.join", self.client.join, "a", "b",
                        idempotency_key=key, **JOIN)
        if kind == "replay":
            return call("serve.idempotent.replay", self.client.join, "a", "b",
                        idempotency_key=key, **JOIN)
        try:
            return call("serve.admission.reject", self.client.join,
                        "wide", "wide", **JOIN)
        except AdmissionRejected as refusal:
            return refusal

    def _mix(self, timer, key: str) -> list[tuple[str, float]]:
        """Send one mix; returns ``(kind, seconds)`` per request.

        Each answer is checked and dropped before the next request goes
        out: ten kept responses are 300 000 objects for the client's
        collector to walk, which would make a request cost the more the
        later it sits in the seeded order.
        """
        times = []
        keyed = None
        for kind in self.mix:
            start = time.perf_counter()
            answer = self._request(kind, key)
            times.append((kind, time.perf_counter() - start))
            if kind == "oversized":
                ok = isinstance(answer, AdmissionRejected)
            elif kind == "replay":
                ok = answer == keyed
            else:
                ok = self._same(answer)
            if kind == "keyed":
                keyed = answer
            self.rec.call("bench.check", timer.check, ok,
                          f"{kind} request answered wrongly")
        return times

    def round(self, timer) -> None:
        """One mix between two readings; its requests share them."""
        self.turn += 1
        times = timer.sample("mix", self._mix, timer,
                             f"key-{self.seed}-{self.turn}")
        if timer.recording:
            whole = timer.samples["mix"][-1]
            timer.samples["op"] += [whole._replace(seconds=seconds)
                                    for kind, seconds in times
                                    if kind in ("join", "keyed")]
            timer.samples["alt"].append(whole._replace(seconds=sum(
                seconds for kind, seconds in times
                if kind in ("replay", "oversized"))))
            self.mixes.append(sum(seconds for _kind, seconds in times))

    # -- once-per-run readings and exact counters ----------------------------

    def _service(self, state_dir) -> JoinService:
        """An in-process service holding the daemon's trees."""
        service = JoinService(ServeConfig(
            max_predicted_na=self.ceiling, journal_fsync_interval=None,
            state_dir=None if state_dir is None else str(state_dir)))
        for name, tree in zip("ab", self.trees):
            service.register_tree(name, tree,
                                  source_path=self._tree_path(name))
        return service

    def once(self, timer) -> None:
        """The served join peeled layer by layer: the direct join, then
        ``JoinService.execute`` without and with a state dir.  The three
        take turns, so a slow phase of the host costs each the same."""
        state_dir = self.dir / "state-in-process"
        bare, durable = self._service(None), self._service(state_dir)
        request = dict(JOIN, tree1="a", tree2="b")
        turns = {
            "join.batch": lambda: spatial_join(*self.trees,
                                               config=LEVEL_BATCH),
            "serve.service.execute": lambda: bare.execute(request),
            "serve.service.durable": lambda: durable.execute(request),
        }
        times = {layer: [] for layer in turns}
        try:
            for _ in range(IN_PROCESS_REPEATS):
                for layer, fn in turns.items():
                    times[layer].append(self.timed(layer, fn)[0])
        finally:
            bare.drain(0.0)
            durable.drain(0.0)
            shutil.rmtree(state_dir, ignore_errors=True)
        medians = {k: statistics.median(v) for k, v in times.items()}
        self.durable_ms = medians["serve.service.durable"]
        self.layer["join.batch_ms"] = medians["join.batch"]
        self.layer["serve.service.execute_ms"] = medians[
            "serve.service.execute"]
        self.layer["serve.durable.overhead_frac"] = (
            self.durable_ms / medians["serve.service.execute"])
        address = urlparse(self.url)
        conn = http.client.HTTPConnection(address.hostname, address.port,
                                          timeout=READY_TIMEOUT)
        try:
            conn.request("POST", "/join",
                         json.dumps(dict(JOIN, tree1="a", tree2="b")),
                         {"Content-Type": "application/json"})
            body = conn.getresponse().read()
        finally:
            conn.close()
        self.sent["join"] += 1
        timer.check(self._same(json.loads(body)), "raw request differs")
        self.layer["serve.http.response_bytes"] = len(body)

    def finish(self, timer) -> None:
        self.layer["serve.http.mix_ms"] = 1e3 * statistics.median(self.mixes)
        served = self.client.metrics()
        counters, gauges = served["counters"], served["gauges"]
        executed = self.sent["join"] + self.sent["keyed"]
        expected = {
            "serve.completed": executed,
            "serve.rejected.admission": self.sent["oversized"],
            "serve.idempotent_hits": self.sent["replay"],
            # One begin and one complete record per executed join.
            "serve.journal.appends": 2 * executed,
            # Every join is far below the 50 000-NA spill interval.
            "serve.journal.spills": 0,
        }
        for name, want in expected.items():
            got = counters.get(name, gauges.get(name, 0))
            self.layer[name] = got
            timer.check(got == want, f"{name} is {got}, client sent {want}")
        self.layer.update({
            "rtree.nodes": sum(len(t.pager) for t in self.trees),
            "rtree.height": max(t.height for t in self.trees),
            "join.pairs": len(self.ref.pairs),
            "join.na": self.ref.na,
            "join.da": self.ref.da,
            "join.comparisons": self.ref.comparisons,
            "storage.buffer_hit_frac": 1 - self.ref.da / self.ref.na,
        })

    def derive(self, values: dict) -> None:
        values["serve.http.overhead_ms"] = (
            values["op.raw_ms"] - self.durable_ms)
