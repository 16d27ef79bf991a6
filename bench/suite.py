"""``python3 -m bench suite``: every workload, each run a fresh process.

Prints every metric of every run, optionally saves the runs for
``compare`` (``--out``) and appends one line to ``bench/history.jsonl``
(``--record``), the kept trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .runner import ROOT, SPEC

__all__ = ["main", "run_once", "run_suite", "values", "medians"]

HISTORY = Path(__file__).resolve().parent / "history.jsonl"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Run length is the benchmark's, the same on every commit.
SECONDS = SPEC["run_seconds"]


def run_once(workload: str, seed: int, trace: int,
             seconds: float = SECONDS) -> dict:
    """One run in a fresh process; its result object plus what it ran."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, text=True, check=True,
                          stdout=subprocess.PIPE)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    for line in lines:
        if line.startswith("raw "):
            result["raw"] = json.loads(line[4:])
    return result


def run_suite(runs: int, seed: int, trace: bool) -> list[dict]:
    """``runs`` untraced runs per workload (seeds ``seed``, ``seed+1``, ...)
    and, with ``trace``, one traced run of each at the first seed."""
    out = []
    for workload in WORKLOADS:
        for r in range(runs):
            out.append(run_once(workload, seed + r, 0))
            print(_line(out[-1]), flush=True)
        if trace:
            out.append(run_once(workload, seed, 1))
            print(_line(out[-1]), flush=True)
    return out


def _line(result: dict) -> str:
    shown = "  ".join(f"{name}={m['value']:.4g}{m['unit']}"
                      for name, m in result["metrics"].items()
                      if result["trace"] == 0 or m["value"])
    return (f"{result['workload']} seed={result['seed']} "
            f"trace={result['trace']} failed_ops_frac="
            f"{result['failed']}/{result['attempted']}  {shown}")


def values(results: list[dict], key: str = "metrics") -> dict:
    """``workload -> metric -> values of the untraced runs``; ``key`` is
    ``"metrics"`` (as reported) or ``"raw"`` (un-normalised medians)."""
    table: dict[str, dict[str, list[float]]] = {}
    for result in results:
        if result["trace"] == 0:
            for name, value in result[key].items():
                if isinstance(value, dict):
                    value = value["value"]
                table.setdefault(result["workload"], {}).setdefault(
                    name, []).append(value)
    return table


def medians(results: list[dict], key: str = "metrics") -> dict:
    """``workload -> metric -> median over the untraced runs``."""
    return {w: {name: statistics.median(v) for name, v in row.items()}
            for w, row in values(results, key).items()}


def _commit() -> str:
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          text=True, capture_output=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench suite")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="save every run for `compare`")
    parser.add_argument("--record", action="store_true",
                        help=f"append one line to {HISTORY.name}")
    args = parser.parse_args(argv)
    results = run_suite(args.runs, args.seed, trace=True)
    document = {"commit": _commit(), "seed": args.seed, "runs": args.runs,
                "seconds": SECONDS, "results": results}
    if args.out:
        Path(args.out).write_text(json.dumps(document) + "\n")
    if args.record:
        traced = {r["workload"]: {n: m["value"]
                                  for n, m in r["metrics"].items()}
                  for r in results if r["trace"] == 1}
        line = {k: document[k] for k in ("commit", "seed", "runs", "seconds")}
        line["end_to_end"] = medians(results)
        line["per_layer"] = traced
        line["host.calib_ms"] = {w: row["calib_ms"] for w, row
                                 in medians(results, "raw").items()}
        line["failed"] = sum(r["failed"] for r in results)
        line["attempted"] = sum(r["attempted"] for r in results)
        with HISTORY.open("a", encoding="utf-8") as history:
            history.write(json.dumps(line) + "\n")
    return 1 if any(not r["correct"] for r in results) else 0
