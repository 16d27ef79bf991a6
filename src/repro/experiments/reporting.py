"""Plain-text tables and series for the experiment registry.

The paper reports its results as figure series (experimental vs analytical
NA and DA per N1/N2 combination); these helpers print the same rows so an
experiment's stdout *is* the reproduced table, and
:class:`ExperimentTable` keeps the typed records behind the rows so a
claim is asserted over numbers, not over text.  ``observation_records`` /
``observations_json`` emit the same data machine-readably: strict JSON,
with undefined relative errors as ``null`` (never ``Infinity``, which is
not JSON).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .harness import JoinObservation

__all__ = ["ExperimentTable", "format_table", "format_error",
           "figure5_rows", "error_summary", "observation_records",
           "observations_json"]


@dataclass(frozen=True)
class ExperimentTable:
    """What one registry experiment returns: the printed table and the
    typed records it was formatted from.

    ``rows`` are the table's cells; ``records`` the per-row measurements
    behind them (:class:`JoinObservation`,
    :class:`~repro.experiments.LevelComparison` or one of the registry's
    named tuples); ``notes`` the lines printed under the table.
    ``str(table)`` is the text ``run_experiment`` returns.
    """

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    records: Sequence[object]
    notes: Sequence[str] = ()

    def __str__(self) -> str:
        return "\n".join([self.title,
                          format_table(self.headers, self.rows),
                          *self.notes])


def format_error(error: float | None) -> str:
    """Render a relative error for a table (``n/a`` when undefined)."""
    return "n/a" if error is None else f"{error:+.1%}"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Right-aligned fixed-width table (first column left-aligned)."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [_line(headers, widths), _line(["-" * w for w in widths],
                                           widths)]
    lines.extend(_line(row, widths) for row in rows)
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)


def _line(cells: Sequence[str], widths: Sequence[int]) -> str:
    out = [cells[0].ljust(widths[0])]
    out.extend(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
    return "  ".join(out)


def figure5_rows(observations: Iterable[JoinObservation],
                 ) -> list[list[object]]:
    """The four series of Figure 5 per N1/N2 combination."""
    rows = []
    for ob in observations:
        rows.append([
            f"{ob.n1 // 1000}K/{ob.n2 // 1000}K",
            ob.na_measured, round(ob.na_model),
            ob.da_measured, round(ob.da_model),
            format_error(ob.na_error), format_error(ob.da_error),
        ])
    return rows


def error_summary(observations: Sequence[JoinObservation],
                  ) -> dict[str, float]:
    """Aggregate |relative error| statistics over a grid of runs.

    Undefined errors (``None``, zero measurement vs non-zero model) are
    excluded from the aggregates without shrinking the denominators of
    the defined ones; an axis with no defined error at all reports zero
    mean/max.  Because that zero is indistinguishable from a perfectly
    calibrated axis, each axis also reports ``<axis>_defined`` — how
    many observations actually contributed — alongside the total
    ``count``, so consumers can tell "no error" from "no evidence".
    """
    if not observations:
        raise ValueError("no observations to summarise")

    def stats(errors: list[float | None]) -> tuple[float, float, int]:
        magnitudes = [abs(e) for e in errors if e is not None]
        if not magnitudes:
            return (0.0, 0.0, 0)
        return (sum(magnitudes) / len(magnitudes), max(magnitudes),
                len(magnitudes))

    out: dict[str, float] = {"count": len(observations)}
    for axis in ("na", "da", "da1", "da2"):
        mean, peak, defined = stats(
            [getattr(ob, f"{axis}_error") for ob in observations])
        out[f"{axis}_mean"] = mean
        out[f"{axis}_max"] = peak
        out[f"{axis}_defined"] = defined
    return out


def observation_records(observations: Iterable[JoinObservation],
                        ) -> list[dict[str, object]]:
    """JSON-safe dict per observation: its fields plus the derived
    relative errors (``None`` when undefined)."""
    return [{**asdict(ob),
             **{f"{axis}_error": getattr(ob, f"{axis}_error")
                for axis in ("na", "da", "da1", "da2", "pairs")}}
            for ob in observations]


def observations_json(observations: Iterable[JoinObservation],
                      indent: int | None = None) -> str:
    """Strict-JSON serialization of a grid of observations.

    ``allow_nan=False`` guarantees the output never contains the
    ``Infinity``/``NaN`` literals strict parsers reject — the regression
    the ``None`` convention of :func:`~repro.experiments.relative_error`
    exists to prevent.
    """
    return json.dumps(observation_records(observations),
                      allow_nan=False, indent=indent)
