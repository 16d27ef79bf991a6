"""Render a metrics/accuracy summary from a JSONL trace file.

``repro report out.jsonl`` (see :mod:`repro.cli`) loads a trace written
by :class:`~repro.obs.JsonlSink` and prints: the event census, one line
per finished join, the final metrics snapshot (the ``metrics`` event
the CLI emits before closing the sink), and the accuracy-ledger summary
rebuilt from the ``accuracy`` events.  The renderer is pure — it never
re-runs anything — so it works on traces shipped from another machine
or uploaded as CI artifacts.
"""

from __future__ import annotations

import json
from collections import Counter as _Counter

from .ledger import AccuracyLedger
from .trace import TRACE_SCHEMA_VERSION

__all__ = ["load_trace", "render_report"]


def load_trace(path: str) -> list[dict]:
    """Parse a JSONL trace file into its records, in file order.

    Blank lines are ignored; a malformed line raises ``ValueError``
    naming the line number, and a record from a newer schema than this
    build understands is refused (the schema is versioned exactly so
    old readers fail loudly instead of misreading).
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line: {exc}"
                    ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace records must be objects")
            schema = record.get("schema")
            if isinstance(schema, int) and schema > TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}:{lineno}: trace schema {schema} is newer "
                    f"than this build understands "
                    f"({TRACE_SCHEMA_VERSION})")
            records.append(record)
    return records


def render_report(records: list[dict]) -> str:
    """Human-readable summary of one trace's records."""
    lines = [f"trace: {len(records)} records "
             f"(schema {TRACE_SCHEMA_VERSION})"]

    census = _Counter(str(r.get("event", "?")) for r in records)
    lines.append("")
    lines.append("events:")
    for event, n in sorted(census.items()):
        lines.append(f"  {event:<16} {n}")

    finishes = [r for r in records if r.get("event") == "join_finish"]
    if finishes:
        starts = _join_starts(records)
        lines.append("")
        lines.append("joins:")
        for r in finishes:
            status = "complete" if r.get("complete", True) else "partial"
            duration = _join_duration(r, starts)
            suffix = f"  {duration:.3f}s" if duration is not None else ""
            lines.append(
                f"  {r.get('join', '?'):<6} NA={r.get('na', 0):<8} "
                f"DA={r.get('da', 0):<8} pairs={r.get('pairs', 0):<8} "
                f"{status}{suffix}")

    snapshots = [r for r in records if r.get("event") == "metrics"]
    if snapshots:
        lines.append("")
        lines.append("metrics (final snapshot):")
        lines.extend(_render_metrics(snapshots[-1].get("metrics") or {}))

    ledger = AccuracyLedger()
    if ledger.extend_from_trace(records):
        lines.append("")
        lines.append("estimator accuracy "
                     f"({len(ledger)} governed joins):")
        summary = ledger.summarize()
        for axis in ("na", "da"):
            s = summary[axis]
            drift = (f"{s['drift']:+.1%}" if s["drift"] is not None
                     else "n/a")
            lines.append(
                f"  {axis.upper()}: defined={s['defined']} "
                f"mean|err|={s['mean_abs']:.1%} "
                f"max|err|={s['max_abs']:.1%} "
                f"bias={s['bias']:+.1%} drift={drift}")

    trips = [r for r in records if r.get("event") == "budget_trip"]
    if trips:
        lines.append("")
        lines.append("budget trips:")
        for r in trips:
            reason = r.get("reason") or {}
            lines.append(f"  {r.get('join', '?'):<6} {reason}")

    recovery_lines = _render_recovery(records)
    if recovery_lines:
        lines.append("")
        lines.append("recovery:")
        lines.extend(recovery_lines)

    return "\n".join(lines)


def _render_recovery(records: list[dict]) -> list[str]:
    """What a daemon restart actually did, from ``recovery`` events.

    One line per phase event (tree restored/failed, journaled join
    resumed/replayed/failed, torn tails, quarantined logs) plus an
    idempotent-replay tally, so an operator can audit a recovery from
    the trace alone.
    """
    lines: list[str] = []
    for r in records:
        if r.get("event") != "recovery":
            continue
        phase = str(r.get("phase", "?"))
        detail = " ".join(
            f"{k}={r[k]}" for k in sorted(r)
            if k not in ("event", "phase", "schema", "seq", "ts",
                         "elapsed") and r[k] is not None)
        lines.append(f"  {phase:<16} {detail}".rstrip())
    hits = [r for r in records if r.get("event") == "idempotent_hit"]
    if hits:
        lines.append(f"  idempotent hits  {len(hits)}")
    return lines


def _join_starts(records: list[dict]) -> dict[str, float]:
    """First ``elapsed`` per join id over its start/resume records."""
    starts: dict[str, float] = {}
    for r in records:
        if r.get("event") in ("join_start", "resume") \
                and isinstance(r.get("elapsed"), (int, float)):
            starts.setdefault(str(r.get("join")), float(r["elapsed"]))
    return starts


def _join_duration(finish: dict, starts: dict[str, float],
                   ) -> float | None:
    """Monotonic duration of one join, ``None`` when not derivable.

    Durations come from the ``elapsed`` field (monotonic since schema
    gained it), never from ``ts`` differences — wall clocks can step
    backwards under NTP skew, and a report must not print a negative
    duration.  Traces written before the field existed get ``None``.
    """
    end = finish.get("elapsed")
    start = starts.get(str(finish.get("join")))
    if not isinstance(end, (int, float)) or start is None:
        return None
    return max(0.0, float(end) - start)


def _render_metrics(snapshot: dict) -> list[str]:
    lines = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        lines.append(f"  counter    {name:<28} {value}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        lines.append(f"  gauge      {name:<28} {value:.6g}")
    for name, h in sorted((snapshot.get("histograms") or {}).items()):
        count = h.get("count", 0)
        mean = (h.get("sum", 0.0) / count) if count else 0.0
        lines.append(f"  histogram  {name:<28} count={count} "
                     f"mean={mean:.6g}")
    return lines
