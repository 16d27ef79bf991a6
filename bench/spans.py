"""In-memory spans around the benchmark's calls into each layer.

The benchmark times layers from outside: every call into a public
function of the program goes through :meth:`Recorder.call`.  With
tracing off that is a plain call; with tracing on it records
``{name, start, end, parent, iter}`` in memory, written as JSON lines
when the run ends.  A layer's *self time* is its span minus what its
children cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

__all__ = ["ITERATION", "SAMPLE", "SETUP", "SETUP_FIRST", "UNTIMED",
           "Recorder", "self_times", "layer_medians", "coverage"]

#: Name of the span that wraps one whole round of a workload.
ITERATION = "bench.iteration"
#: Prefix of the span around one timed sample; the slot's name follows.
SAMPLE = "bench.sample."
#: Name of the span around one set-up.
SETUP = "bench.setup"
#: ``iter`` of spans outside both the timed window and the set-ups.
UNTIMED = -1
#: ``iter`` of the first set-up; the k-th set-up has ``SETUP_FIRST - k``.
SETUP_FIRST = -2


class Recorder:
    """Collects spans; ``iter`` is the round currently running, or one
    of the negative labels above outside the timed window."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.iter = UNTIMED
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._open[-1] if self._open else None,
                "iter": self.iter}
        self.spans.append(span)
        self._open.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_medians(spans: list[dict], root: str) -> dict[str, float]:
    """Median, over the spans named ``root``, of each layer's self time
    beneath that span (s).

    ``root`` is the span around one timed sample of a slot, or around
    one set-up; roots outside the window and the set-ups (warm-up
    rounds) are left out.  A layer that did not run under one root
    counts as zero for it.
    """
    root_of: list[int | None] = []
    table: dict[int, dict[str, float]] = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        if span["name"] == root and span["iter"] != UNTIMED:
            table[index] = defaultdict(float)
            root_of.append(index)
        elif span["parent"] is not None:
            root_of.append(root_of[span["parent"]])
        else:
            root_of.append(None)
        if root_of[index] is not None:
            table[root_of[index]][span["name"]] += own
    names = {name for row in table.values() for name in row}
    return {name: statistics.median(row.get(name, 0.0)
                                    for row in table.values())
            for name in names}


def coverage(spans: list[dict]) -> float:
    """Share of the rounds' wall time spent inside a layer's span, that
    is outside the self times of the round and sample spans."""
    wall = unaccounted = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span["iter"] < 0:
            continue
        if span["name"] == ITERATION:
            wall += span["end"] - span["start"]
        if span["name"] == ITERATION or span["name"].startswith(SAMPLE):
            unaccounted += own
    return 1.0 - unaccounted / wall if wall else 0.0
