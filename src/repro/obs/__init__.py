"""Observability: join tracing, metrics, estimator-accuracy telemetry.

The paper's whole contribution is judged by the relative error between
the analytical NA/DA estimates (Eqs. 1, 7, 10) and counters measured on
real traversals; this package makes that comparison — and the rest of a
join's operational story — a first-class, always-on capability:

* :mod:`~repro.obs.trace` — :class:`Tracer` emitting structured,
  schema-versioned event records (join start/finish, sampled node-pair
  visits, buffer hits/misses, budget trips, retries,
  checkpoint/resume, admission verdicts) to pluggable sinks: an
  in-memory ring buffer (:class:`MemorySink`), a strict-JSONL file
  (:class:`JsonlSink`), or a :class:`NullSink` that disables tracing;
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and histograms fed by :class:`~repro.storage.AccessStats`,
  the execution governor and the parallel-join coordinator (worker
  processes ship metric deltas home as plain dicts);
* :mod:`~repro.obs.ledger` — :class:`AccuracyLedger` recording
  (estimated NA/DA, observed NA/DA per tree and level, relative error)
  for every governed join and summarizing calibration drift;
* :mod:`~repro.obs.report` — :func:`load_trace`/:func:`render_report`
  behind the ``repro report`` CLI subcommand.

**Zero-perturbation guarantee**: everything here is written to, never
read, by the execution layers — NA, DA, result pairs and checkpoint
bytes of a traced/metered run are bit-identical to an untraced run
(enforced by ``tests/test_obs_zero_perturbation.py``).  See
``docs/observability.md``.
"""

from .ledger import AccuracyLedger, AccuracyRecord
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import load_trace, render_report
from .trace import (JsonlSink, MemorySink, NullSink,
                    TRACE_SCHEMA_VERSION, TraceSink, Tracer)

__all__ = [
    "AccuracyLedger",
    "AccuracyRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "Tracer",
    "load_trace",
    "render_report",
]
