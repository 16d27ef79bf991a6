"""Recovery benchmark: durable serving must stay cheap and restart fast.

The crash-safety tentpole adds a CRC'd journal to the request path and
a manifest-replay pass to startup.  Its cost claims, measured here:

* **journal overhead** — the p50 latency of a small served join with
  the journal on (interval fsync, the production default for busy
  daemons) stays within ``OVERHEAD_BOUND`` (10%) of the same join on a
  journal-less service, plus an epsilon floor so sub-millisecond joins
  don't fail on scheduler noise.
* **restart-to-ready** — recovering a state dir holding registered
  trees and completed-request records (the common clean-ish restart)
  is a bounded startup tax; the bench bounds it.

Nothing is written: the recorded numbers are
``serve.durable.overhead_frac`` and ``serve.daemon.ready_ms`` of
``python3 -m bench``.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.serve import JoinService, ServeConfig

N_ITEMS = 220            #: items per tree (small, fast joins)
TIMED_JOINS = 25         #: timed joins per variant
WARMUP_JOINS = 3
OVERHEAD_BOUND = 1.10    #: durable p50 <= 1.10x plain p50 (+ epsilon)
EPSILON = 0.0005         #: 0.5ms floor: absolute noise guard
COMPLETED_KEYS = 40      #: journaled completions replayed at restart
RESTART_BOUND = 5.0      #: restart-to-ready hard ceiling, seconds


@pytest.fixture(scope="module")
def trees():
    from tests.conftest import build_rstar, make_items
    t1 = build_rstar(make_items(N_ITEMS, seed=171), max_entries=8)
    t2 = build_rstar(make_items(N_ITEMS, seed=172), max_entries=8)
    return t1, t2


def _timed_joins(service, n):
    samples = []
    for i in range(WARMUP_JOINS):
        service.execute({"tree1": "a", "tree2": "b"})
    for i in range(n):
        t0 = time.perf_counter()
        service.execute({"tree1": "a", "tree2": "b"})
        samples.append(time.perf_counter() - t0)
    return samples


def test_journal_overhead(trees, tmp_path_factory):
    t1, t2 = trees

    plain = JoinService(ServeConfig())
    plain.register_tree("a", t1)
    plain.register_tree("b", t2)
    plain_samples = _timed_joins(plain, TIMED_JOINS)

    state = tmp_path_factory.mktemp("bench-state") / "state"
    # Interval fsync (0.1s), the recommended setting for busy daemons:
    # per-request fsyncs would benchmark the disk, not the journal.
    durable = JoinService(ServeConfig(state_dir=str(state),
                                      journal_fsync_interval=0.1))
    durable.register_tree("a", t1)
    durable.register_tree("b", t2)
    durable_samples = _timed_joins(durable, TIMED_JOINS)
    durable.durable.close()

    p50_plain = statistics.median(plain_samples)
    p50_durable = statistics.median(durable_samples)
    assert p50_durable <= p50_plain * OVERHEAD_BOUND + EPSILON, (
        f"journalled p50 {p50_durable * 1e3:.3f}ms exceeds "
        f"{OVERHEAD_BOUND:.0%} of plain p50 {p50_plain * 1e3:.3f}ms")


def test_restart_to_ready(trees, tmp_path_factory):
    t1, t2 = trees
    state = tmp_path_factory.mktemp("bench-restart") / "state"

    first = JoinService(ServeConfig(state_dir=str(state),
                                    journal_fsync_interval=0.1))
    first.register_tree("a", t1)
    first.register_tree("b", t2)
    for i in range(COMPLETED_KEYS):
        first.execute({"tree1": "a", "tree2": "b",
                       "idempotency_key": f"bench-{i}"})
    assert first.drain()            # compacts the journal on the way out

    t0 = time.perf_counter()
    second = JoinService(ServeConfig(state_dir=str(state)))
    report = second.recover()
    ready = time.perf_counter() - t0
    assert report["trees"] == 2
    assert report["completed_cached"] == COMPLETED_KEYS
    # Ready means serving: a cached key answers without re-execution.
    resp = second.execute({"tree1": "a", "tree2": "b",
                           "idempotency_key": "bench-0"})
    assert resp["status"] == "complete"
    second.durable.close()

    assert ready < RESTART_BOUND, (
        f"restart-to-ready took {ready:.2f}s (bound {RESTART_BOUND}s)")
