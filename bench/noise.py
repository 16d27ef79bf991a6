"""``python3 -m bench noise``: how far identical code disagrees with itself.

Runs K sets of the whole suite on the current tree (each set: R
untraced runs per workload, seeds 1..R; ten by default, as many as the
driver takes a median over) and prints, for every workload
x end-to-end metric, the worst pairwise disagreement of the set medians
and the widest within-set spread next to the metric's bound — for the
reported (calibration-normalised) values and for the raw medians, so
the effect of the calibration is on record, not assumed.  Exits 1 when
a disagreement exceeds half its bound or an operation failed.
"""

from __future__ import annotations

import argparse
import statistics

from .runner import SPEC
from .stats import spread
from .suite import run_suite, values

__all__ = ["main", "table"]


def table(sets: list[list[dict]]) -> list[dict]:
    """One row per workload x end-to-end metric."""
    by_key = {key: [values(s, key) for s in sets]
              for key in ("metrics", "raw")}
    rows = []
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        for workload in by_key["metrics"][0]:
            row = {"workload": workload, "metric": name,
                   "bound": spec["bound"]}
            for key, label in (("metrics", "reported"), ("raw", "raw")):
                runs = [per_set[workload].get(name)
                        for per_set in by_key[key]]
                if runs[0] is None:
                    continue
                centres = [statistics.median(v) for v in runs]
                row[label] = {
                    "medians": centres,
                    # Worst ordered pair: the higher set taken as the
                    # change, the lower as its parent.
                    "disagreement": (max(centres) - min(centres))
                    / min(centres),
                    "spread": max((spread(v) for v in runs if len(v) > 1),
                                  default=float("nan")),
                }
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = ["| workload | metric | bound | disagreement | spread "
             "| raw disagreement | raw spread |",
             "|---|---|---|---|---|---|---|"]
    for row in rows:
        raw = row.get("raw")
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['bound']:.2f} "
            f"| {row['reported']['disagreement']:.3f} "
            f"| {row['reported']['spread']:.3f} "
            + (f"| {raw['disagreement']:.3f} | {raw['spread']:.3f} |"
               if raw else "| | |"))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench noise")
    parser.add_argument("--sets", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    sets = []
    for k in range(args.sets):
        print(f"-- set {k + 1} of {args.sets}")
        sets.append(run_suite(args.runs, 1, trace=False))
    rows = table(sets)
    print(render(rows))
    failed = sum(r["failed"] for s in sets for r in s)
    if failed:
        print(f"{failed} operations failed")
    # A metric stays end to end only while identical code disagrees with
    # itself by at most half of what would count as a regression.
    over = [r for r in rows
            if r["reported"]["disagreement"] > r["bound"] / 2]
    for row in over:
        print(f"over half its bound: {row['workload']} {row['metric']}")
    return 1 if over or failed else 0
