"""Overload benchmark: admission control keeps small joins responsive.

The serving tentpole's claim is that Eq. 7/10 admission makes overload
*cheap*: a request whose predicted cost exceeds the server ceiling is
rejected in O(1) closed-form arithmetic before a single page is read, so
a flood of over-budget joins cannot starve the small joins that were
admitted.  This bench measures exactly that:

* **uncontended** — small joins run back to back on an idle service;
  their latency distribution is the baseline.
* **overload** — the same small joins run while flood threads hammer the
  service with joins whose predicted NA sits far above the ceiling.
  Every flood request is shed at admission; the bench asserts the small
  joins' p99 stays within ``P99_BOUND`` (3x) of the uncontended p99.

A second bench times the rejection path itself and reports the median
microseconds per shed request.  Both print what they measured and keep
nothing: the recorded numbers are ``serve.admission.reject_us`` and the
``serve-mixed`` workload of ``python3 -m bench``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec import AdmissionRejected
from repro.serve import CostAdmission, JoinService, ServeConfig

SMALL_N = 220            #: items per small tree (cheap, always admitted)
BIG_N = 900              #: items per big tree (predictably over budget)
SMALL_JOINS = 30         #: timed small joins per phase
SMALL_WORKERS = 2        #: concurrent small-join clients under overload
FLOOD_WORKERS = 4        #: threads flooding over-budget requests
FLOOD_PER_WORKER = 50
P99_BOUND = 3.0          #: acceptance: overload p99 <= 3x uncontended


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@pytest.fixture(scope="module")
def make_service():
    from tests.conftest import build_rstar, make_items

    small1 = build_rstar(make_items(SMALL_N, seed=111), max_entries=8)
    small2 = build_rstar(make_items(SMALL_N, seed=112), max_entries=8)
    big1 = build_rstar(make_items(BIG_N, seed=113), max_entries=8)
    big2 = build_rstar(make_items(BIG_N, seed=114), max_entries=8)

    from repro.exec import tree_params
    small_na, _ = CostAdmission.predict(tree_params(small1),
                                        tree_params(small2))
    big_na, _ = CostAdmission.predict(tree_params(big1),
                                      tree_params(big2))
    ceiling = (small_na + big_na) / 2.0
    assert small_na < ceiling < big_na, (
        "bench configuration must separate small and big predictions")

    def fresh_service() -> JoinService:
        svc = JoinService(ServeConfig(
            max_concurrency=SMALL_WORKERS + FLOOD_WORKERS,
            queue_limit=16, max_predicted_na=ceiling))
        svc.register_tree("small1", small1)
        svc.register_tree("small2", small2)
        svc.register_tree("big1", big1)
        svc.register_tree("big2", big2)
        return svc

    return fresh_service


def _timed_small_join(svc: JoinService, latencies: list[float],
                      lock: threading.Lock) -> None:
    start = time.perf_counter()
    resp = svc.execute({"tree1": "small1", "tree2": "small2"})
    elapsed = time.perf_counter() - start
    assert resp["status"] == "complete"
    with lock:
        latencies.append(elapsed)


def test_small_join_p99_bounded_under_overload(make_service, emit):
    # Phase 1: uncontended baseline, one client, back-to-back joins.
    svc = make_service()
    base: list[float] = []
    lock = threading.Lock()
    for _ in range(SMALL_JOINS):
        _timed_small_join(svc, base, lock)

    # Phase 2: same small-join workload while flood threads submit
    # over-budget joins as fast as the service rejects them.
    svc = make_service()
    contended: list[float] = []
    rejected = [0] * FLOOD_WORKERS
    stop = threading.Event()

    def flood(slot: int) -> None:
        for _ in range(FLOOD_PER_WORKER):
            if stop.is_set():
                break
            try:
                svc.execute({"tree1": "big1", "tree2": "big2"})
            except AdmissionRejected:
                rejected[slot] += 1

    def small_client(count: int) -> None:
        for _ in range(count):
            _timed_small_join(svc, contended, lock)

    floods = [threading.Thread(target=flood, args=(i,))
              for i in range(FLOOD_WORKERS)]
    smalls = [threading.Thread(target=small_client,
                               args=(SMALL_JOINS // SMALL_WORKERS,))
              for _ in range(SMALL_WORKERS)]
    for t in floods + smalls:
        t.start()
    for t in smalls:
        t.join()
    stop.set()
    for t in floods:
        t.join()

    p99_base = _percentile(base, 0.99)
    p99_over = _percentile(contended, 0.99)
    ratio = p99_over / p99_base
    emit(f"serve overload: p99 {round(p99_base * 1e3, 3)}ms -> "
         f"{round(p99_over * 1e3, 3)}ms "
         f"(ratio {round(ratio, 3)}, bound {P99_BOUND}x), "
         f"{sum(rejected)} over-budget joins shed")

    assert sum(rejected) > 0, "flood never exercised admission"
    assert ratio <= P99_BOUND, (
        f"overload p99 {p99_over * 1e3:.1f}ms exceeds "
        f"{P99_BOUND}x uncontended {p99_base * 1e3:.1f}ms")


def test_admission_rejection_is_cheap(make_service, emit):
    svc = make_service()
    reps = 500
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        try:
            svc.execute({"tree1": "big1", "tree2": "big2"})
        except AdmissionRejected:
            pass
        samples.append(time.perf_counter() - start)
    median_us = _percentile(samples, 0.50) * 1e6
    p99_us = _percentile(samples, 0.99) * 1e6
    emit(f"serve admission: O(1) rejection median {median_us:.0f}us, "
         f"p99 {p99_us:.0f}us over {reps} shed requests")
    # Closed-form arithmetic, no page reads: rejections are sub-ms-ish.
    assert median_us < 10_000