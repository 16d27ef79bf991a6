"""``paper-point``: one validated data point of the paper, end to end.

Why: the R*-tree insert path is >= 90 % of producing one point of
Fig. 5 and was never benchmarked; the join engines do almost nothing
here, so a build optimisation must show on ``op_ms`` and a join-only
change must not.  ``alt_ms`` is what the paper offers instead of all
that: Eq. 7/10 evaluated over a 10 000-point grid of candidate joins by
``estimate_batch`` — the estimator layer alone, no tree and no join.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro import (OVERLAP, Catalog, EstimateRequest, Estimator, MemorySink,
                   MetricsRegistry, PathBuffer, RStarTree, Tracer, best_plan,
                   estimate_batch, spatial_join, uniform_rectangles)

from ..inputs import mix
from ..oracle import LEVEL_BATCH, batch_levels, reference_join, same_join
from ..runner import ROOT
from .base import Workload

CARDINALITY = 1000
DENSITY = 0.5
MAX_ENTRIES = 24
POINTS = 4
BATCH_GRID = 10_000
#: Grid evaluations per round: the short operation is sampled more often.
GRIDS_PER_ROUND = 3
#: Rows of each evaluated grid held to the scalar ``Estimator``.
GRID_CHECKED = (0, BATCH_GRID // 2, BATCH_GRID - 1)


def _build(dataset) -> RStarTree:
    tree = RStarTree(2, MAX_ENTRIES)
    for rect, oid in dataset:
        tree.insert(rect, oid)
    return tree


def _predict(data1, data2) -> tuple[float, float]:
    est = Estimator.from_datasets(data1, data2, MAX_ENTRIES)
    return est.na(), est.da()


def _plan(data1, data2, tracer=None):
    catalog = Catalog(MAX_ENTRIES)
    catalog.register_dataset("r1", data1)
    catalog.register_dataset("r2", data2)
    return best_plan(catalog, ["r1", "r2"], tracer=tracer)


class _Measured:
    """Level-batch NA/DA of one tree pair against Eq. 7 / Eq. 10."""

    def __init__(self, result, metrics, na_model: float, da_model: float):
        self.result = result
        self.metrics = metrics
        self.err_na = abs(na_model - result.na_total) / result.na_total
        self.err_da = abs(da_model - result.da_total) / result.da_total

    def same(self, other: "_Measured") -> bool:
        return (self.err_na, self.err_da, self.result.pairs) == (
            other.err_na, other.err_da, other.result.pairs)


class PaperPoint(Workload):
    name = "paper-point"

    def __init__(self, seed, rec, out):
        super().__init__(seed, rec, out)
        self.seeds = [(mix(seed, self.name, k, 1), mix(seed, self.name, k, 2))
                      for k in range(POINTS)]
        self.turn = 0
        #: First measurement of each seed point, with its data and trees.
        self.points: dict[int, tuple] = {}
        first = 1000 + mix(seed, self.name, "grid") % 1000
        self.grid = [EstimateRequest(n1=first + 10 * i, d1=DENSITY,
                                     n2=60_000, d2=DENSITY)
                     for i in range(BATCH_GRID)]

    def setup(self) -> None:
        """A user's first cost: a fresh interpreter importing the package."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.rec.call("python.import", subprocess.run,
                      [sys.executable, "-c", "import repro"], env=env,
                      check=True)

    # -- the timed operations ------------------------------------------------

    def _measure(self, data, trees) -> _Measured:
        """Arenas -> Eq. 7/10 -> plan -> level-batch SJ -> relative error."""
        call = self.rec.call
        call("geometry.arena", lambda: [t.arena() for t in trees])
        na_model, da_model = call("estimator.predict", _predict, *data)
        call("optimizer.plan", _plan, *data)
        metrics = MetricsRegistry()
        result = call("join.batch", spatial_join, *trees,
                      config=LEVEL_BATCH, metrics=metrics)
        return _Measured(result, metrics, na_model, da_model)

    def _point(self, seeds) -> tuple:
        call = self.rec.call
        data = [call("datasets.generate", uniform_rectangles, CARDINALITY,
                     DENSITY, 2, seed=s) for s in seeds]
        trees = [call("rtree.insert", _build, d) for d in data]
        return data, trees, self._measure(data, trees)

    def _grid(self):
        return self.rec.call("estimator.batch", estimate_batch, self.grid)

    def _check(self, timer, k: int, point: tuple) -> None:
        _data, trees, measured = point
        ref = reference_join(*trees, PathBuffer, OVERLAP)
        timer.check(same_join(measured.result, ref)
                    and batch_levels(measured.metrics) > 0,
                    f"point {k} differs from the stack machine")
        first = self.points.setdefault(k, point)
        timer.check(measured.same(first[2]), f"point {k} does not repeat")

    def _check_grid(self, timer, batch) -> None:
        """Sampled rows against the scalar estimator, bit for bit."""
        def scalar(request):
            est = Estimator.from_stats(request.n1, request.d1, request.n2,
                                       request.d2, request.max_entries)
            return est.na(), est.da()
        timer.check(len(batch) == BATCH_GRID and all(
            (batch.na[i], batch.da[i]) == scalar(self.grid[i])
            for i in GRID_CHECKED), "grid differs from the scalar estimator")

    def round(self, timer) -> None:
        k = self.turn % POINTS
        self.turn += 1
        point = timer.sample("op", self._point, self.seeds[k])
        for _ in range(GRIDS_PER_ROUND):
            self.rec.call("bench.check", self._check_grid, timer,
                          timer.sample("alt", self._grid))
        self.rec.call("bench.check", self._check, timer, k, point)

    # -- once-per-run readings and exact counters ----------------------------

    def once(self, timer) -> None:
        sink = MemorySink()
        data = [uniform_rectangles(CARDINALITY, DENSITY, 2, seed=s)
                for s in self.seeds[0]]
        _plan(*data, tracer=Tracer(sink))
        self.layer["optimizer.candidates"] = sum(
            ("sj_cost" in r) + ("pbsm_cost" in r) for r in sink.records
            if r["event"] == "plan_candidates")

    def finish(self, timer) -> None:
        timer.check(len(self.points) == POINTS,
                    f"only {len(self.points)} of {POINTS} points measured")
        measured = [m for _d, _t, m in self.points.values()]
        trees = [t for _d, ts, _m in self.points.values() for t in ts]
        na = sum(m.result.na_total for m in measured)
        da = sum(m.result.da_total for m in measured)
        self.layer.update({
            "model.err_na_pct":
                100 * sum(m.err_na for m in measured) / len(measured),
            "model.err_da_pct":
                100 * sum(m.err_da for m in measured) / len(measured),
            "rtree.nodes": sum(len(t.pager) for t in trees),
            "rtree.height": max(t.height for t in trees),
            "geometry.arena_bytes": sum(t.arena().nbytes for t in trees),
            "join.pairs": sum(len(m.result.pairs) for m in measured),
            "join.na": na,
            "join.da": da,
            "join.comparisons": sum(m.result.comparisons for m in measured),
            "storage.buffer_hit_frac": 1 - da / na,
        })
        for name in ("join.batch.levels", "join.batch.kernel_calls",
                     "join.batch.frontier_pairs"):
            self.layer[name] = sum(m.metrics.counter(name).value
                                   for m in measured)

    def derive(self, values: dict) -> None:
        values["rtree.insert_us_per_rect"] = (
            values["rtree.insert_us"] / (2 * CARDINALITY))
