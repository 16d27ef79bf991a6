"""``python3 -m bench compare A.json B.json``: did B regress against A?

A and B are files written by ``suite --out``.  One row per workload x
end-to-end metric:

* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, the wider side) exceeds the metric's bound, unless every run
  of B beats every run of A (then ``improved``);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better by more than the wider quartile
  distance;
* ``within`` — otherwise.

Exits 1 on a regressed row or a larger ``failed_ops_frac``, and 2
without comparing when the two files were not recorded with the same
seed, number of runs and run length.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .runner import SPEC
from .stats import disagreement, spread
from .suite import values

__all__ = ["main", "verdict"]


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    worse = disagreement(statistics.median(a), statistics.median(b), better)
    wide = max(spread(v) if len(v) > 1 else float("inf") for v in (a, b))
    if wide > bound:
        beats = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "regressed"
    return "improved" if -worse > wide else "within"


def _failed_frac(document: dict) -> float:
    results = document["results"]
    return (sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("seed", "runs", "seconds"):
        if before[key] != after[key]:
            print(f"not comparable: {key} is {before[key]} in {argv[0]} "
                  f"and {after[key]} in {argv[1]}", file=sys.stderr)
            return 2
    a, b = values(before["results"]), values(after["results"])
    status = 0
    print("| workload | metric | A median | B median | change | verdict |")
    print("|---|---|---|---|---|---|")
    for workload in a:
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            va, vb = a[workload][name], b[workload][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            row = verdict(va, vb, spec["better"], spec["bound"])
            status |= row == "regressed"
            print(f"| {workload} | {name} | {ma:.4g} | {mb:.4g} "
                  f"| {(mb - ma) / ma:+.1%} | {row} |")
    fa, fb = _failed_frac(before), _failed_frac(after)
    print(f"failed_ops_frac: A {fa:.6f}, B {fb:.6f}")
    return 1 if status or fb > fa else 0
