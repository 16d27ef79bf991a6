"""One run of one workload: set-up, oracle, warm-up, timed window, report.

How a timing becomes a metric is fixed here and documented in
README.md; the workloads only say *what* is timed.
"""

from __future__ import annotations

import gc
import glob
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from . import spans as sp
from .calib import CALIB_NOMINAL_S, Kernel
from .stats import Sample, normalised_median, spread, tail

__all__ = ["ROOT", "SPEC", "Timer", "run"]

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Set-up is repeated until this many set-ups and this many seconds of
#: them have been measured: a short set-up is the noisier one.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
WARMUP_ROUNDS = 2
#: A traced run spends part of its window on once-per-run readings but
#: always measures at least this many rounds.
MIN_ROUNDS = 2

_SHM_PATTERN = "/dev/shm/repro_arena_*"


class Timer:
    """Takes one run's samples and counts its checked operations."""

    def __init__(self, kernel: Kernel, rec: sp.Recorder):
        self.kernel = kernel
        self.rec = rec
        self.samples: dict[str, list[Sample]] = defaultdict(list)
        self.readings: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.recording = False
        self._reading: float | None = None

    def read(self) -> float:
        reading = self.rec.call("host.calib", self.kernel.read)
        if self.recording:
            self.readings.append(reading)
        return reading

    def begin_round(self) -> None:
        """Forget the last reading: it is too old to bracket a sample."""
        self._reading = None

    def sample(self, slot: str, fn, *args):
        """Time ``fn(*args)`` as one sample of ``slot`` between two readings.

        Inside a round the reading after one operation is the reading
        before the next, so a round of k operations costs k+1 readings.
        """
        before = self._reading if self._reading is not None else self.read()
        self.rec.call("bench.gc", gc.collect)
        start = time.perf_counter()
        out = self.rec.call(sp.SAMPLE + slot, fn, *args)
        elapsed = time.perf_counter() - start
        after = self._reading = self.read()
        if self.recording:
            self.samples[slot].append(
                Sample(elapsed, before, after))
        return out

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a wrong output is a failure, never a number."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _raw_median_ms(samples: list[Sample]) -> float:
    return statistics.median(s.seconds for s in samples) * 1e3


def _layer_values(workload, rec: sp.Recorder, timer: Timer) -> dict:
    """Every per-layer reading this run produced, by metric name."""
    values = dict(workload.layer)
    # A layer both operations use is reported as the primary one pays it.
    for root in (sp.SETUP, sp.SAMPLE + "mix", sp.SAMPLE + "alt",
                 sp.SAMPLE + "op"):
        for name, seconds in sp.layer_medians(rec.spans, root).items():
            values[name + "_ms"] = seconds * 1e3
            values[name + "_us"] = seconds * 1e6
    for slot in ("op", "alt"):
        samples = timer.samples[slot]
        values[f"{slot}.raw_ms"] = _raw_median_ms(samples)
        values[f"{slot}.samples"] = len(samples)
        supported = tail([s.seconds for s in samples])
        if supported is not None:
            values[f"{slot}.tail_pct"] = supported[0]
            values[f"{slot}.tail_ms"] = supported[1] * 1e3
    values["host.calib_ms"] = statistics.median(timer.readings) * 1e3
    values["host.calib_spread"] = spread(timer.readings)
    values["bench.span_coverage_frac"] = sp.coverage(rec.spans)
    workload.derive(values)
    return values


def _span_overhead(rec: sp.Recorder, window: float) -> float:
    """Share of the window the recorder itself cost.

    Measured directly (cost of one recorded call x spans recorded in the
    window / window): the difference between a traced and an untraced
    run is three orders of magnitude below the run-to-run noise.
    """
    probe = sp.Recorder(True)
    calls = 20_000
    start = time.perf_counter()
    for _ in range(calls):
        probe.call("x", int)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        int()
    plain = time.perf_counter() - start
    per_span = max(0.0, traced - plain) / calls
    in_window = sum(1 for s in rec.spans if s["iter"] >= 0)
    return per_span * in_window / window


def _report(metrics: list[dict], values: dict, timer: Timer) -> dict:
    out = {}
    for spec in metrics:
        value = float(values.get(spec["name"], 0.0))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:34s} {value:14.6f} {spec['unit']}")
    for slot, samples in sorted(timer.samples.items()):
        supported = tail([s.seconds for s in samples])
        beside = (f"p{supported[0]:.0f} {supported[1] * 1e3:.3f} ms"
                  if supported else "no percentile supported")
        print(f"{slot}: n={len(samples)} raw median "
              f"{_raw_median_ms(samples):.3f} ms, {beside}")
    return out


def run(workload_cls, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the driver reads."""
    leaked_before = set(glob.glob(_SHM_PATTERN))
    kernel = Kernel()
    rec = sp.Recorder(trace)
    timer = Timer(kernel, rec)
    OUT.mkdir(exist_ok=True)
    workload = workload_cls(seed, rec, OUT)
    try:
        setups = []
        while (len(setups) < SETUP_REPEATS
               or sum(s.seconds for s in setups) < SETUP_SECONDS):
            if setups:
                workload.teardown()
            rec.iter = sp.SETUP_FIRST - len(setups)
            before = kernel.read()
            gc.collect()
            start = time.perf_counter()
            rec.call(sp.SETUP, workload.setup)
            elapsed = time.perf_counter() - start
            setups.append(Sample(elapsed, before, kernel.read()))
        rec.iter = sp.UNTIMED
        # The high-water mark before and after the oracle is printed
        # beside the metric: the oracle must not be what sets the peak.
        marks = [workload.peak_rss_mb()]
        workload.reference(timer)
        marks.append(workload.peak_rss_mb())
        gc.collect()
        # The trees and oracle outputs live as long as the run: keep the
        # collector from re-walking them inside every timed sample.
        gc.freeze()

        window = float(seconds)
        if trace:
            start = time.perf_counter()
            workload.once(timer)
            window -= time.perf_counter() - start
        def one_round():
            timer.begin_round()
            workload.round(timer)

        for _ in range(WARMUP_ROUNDS):
            one_round()
        # Read before the window opens, after a fixed amount of work: a
        # server's caches grow with the requests served, so a peak read
        # afterwards would charge a faster program for serving more.
        marks.append(workload.peak_rss_mb())

        timer.recording = True
        started = time.perf_counter()
        end = started + window
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < end:
            rec.iter = rounds
            rec.call(sp.ITERATION, one_round)
            rounds += 1
        measured = time.perf_counter() - started
        timer.recording = False
        rec.iter = sp.UNTIMED
        workload.finish(timer)
    finally:
        workload.teardown()
        workload.close()
    leaked = set(glob.glob(_SHM_PATTERN)) - leaked_before
    timer.check(not leaked, f"shared-memory segments left: {sorted(leaked)}")

    if trace:
        values = _layer_values(workload, rec, timer)
        values["bench.span_overhead_frac"] = _span_overhead(rec, measured)
        rec.dump(OUT / f"spans-{workload.name}-{seed}.jsonl")
        metrics = SPEC["per_layer"]
    else:
        values = {
            "setup_s": normalised_median(setups),
            "op_ms": normalised_median(timer.samples["op"]) * 1e3,
            "alt_ms": normalised_median(timer.samples["alt"]) * 1e3,
            "peak_rss_mb": marks[-1],
        }
        metrics = SPEC["end_to_end"]
        # The un-normalised medians, for `noise` to put beside the metrics.
        print("raw " + json.dumps({
            "setup_s": _raw_median_ms(setups) / 1e3,
            "op_ms": _raw_median_ms(timer.samples["op"]),
            "alt_ms": _raw_median_ms(timer.samples["alt"]),
            "calib_ms": statistics.median(timer.readings) * 1e3}))
    print(f"workload {workload.name} seed {seed}: {len(setups)} set-ups, "
          f"{rounds} rounds in {measured:.1f} s, calibration nominal "
          f"{CALIB_NOMINAL_S * 1e3:.1f} ms, median reading "
          f"{statistics.median(timer.readings) * 1e3:.2f} ms")
    reported = _report(metrics, values, timer)
    print("peak resident memory: {:.1f} MB after set-up, {:.1f} after the "
          "oracle, {:.1f} after warm-up".format(*marks))
    print(f"failed_ops_frac {timer.failed}/{timer.attempted}")
    for what in timer.failures:
        print(f"FAILED: {what}")
    return {"correct": timer.failed == 0, "attempted": timer.attempted,
            "failed": timer.failed, "metrics": reported}
