"""``join-uniform-60k`` and ``join-skew-xheight``: warm joins at paper scale.

Both bypass the build (STR bulk loading happens in set-up) and time the
same two engines — ``op_ms`` the level-batch synchronized traversal,
``alt_ms`` the partition-based engine — on inputs that use them
differently, so a gain specialised to one regime shows on the other as
no gain or as a cost.
"""

from __future__ import annotations

import statistics

from repro import (OVERLAP, Budget, ExecutionGovernor,
                   LRUBuffer, MemorySink, MetricsRegistry, PathBuffer, Tracer,
                   WithinDistance, parallel_spatial_join, spatial_join,
                   str_pack, uniform_rectangles, zipf_rectangles)

from ..inputs import mix
from ..oracle import (LEVEL_BATCH, PBSM, STAND_IN, batch_levels,
                      reference_join, same_join, same_pbsm)
from .base import Workload

DENSITY = 0.5
MAX_ENTRIES = 50
#: Pairs of (governed, ungoverned) and (observed, bare) joins behind the
#: two overhead ratios of a traced run.
RATIO_PAIRS = 3


class _JoinWorkload(Workload):
    cardinalities: tuple[int, int]
    predicate = OVERLAP
    make_buffer = PathBuffer
    generate = staticmethod(uniform_rectangles)
    #: Whether a traced run also reads the parallel modes and the
    #: governor / observability overheads (only at the uniform workload).
    overheads = False

    def __init__(self, seed, rec, out):
        super().__init__(seed, rec, out)
        self.items = [
            self.generate(n, DENSITY, 2, seed=mix(seed, self.name, i)).items
            for i, n in enumerate(self.cardinalities)]
        self.trees = None
        self.last: dict[str, tuple] = {}

    def setup(self) -> None:
        """STR pack both trees, build their arenas, run the first cold join."""
        call = self.rec.call
        self.trees = [call("rtree.pack", str_pack, items, 2, MAX_ENTRIES)
                      for items in self.items]
        call("geometry.arena", lambda: [t.arena() for t in self.trees])
        self._join(LEVEL_BATCH)

    def teardown(self) -> None:
        self.trees = None

    def _join(self, config, metrics=None, **hooks):
        layer = "join.partition" if config is PBSM else "join.batch"
        return self.rec.call(
            layer, spatial_join, *self.trees, buffer=self.make_buffer(),
            predicate=self.predicate, config=config, metrics=metrics, **hooks)

    def reference(self, timer) -> None:
        """Fig. 2 in traced runs; its vectorized stand-in otherwise, which
        :meth:`once` holds to Fig. 2 (see ``bench/oracle.py``)."""
        if self.rec.enabled:
            self.layer["join.sync.nested_ms"], self.ref = self.timed(
                "join.sync.nested", reference_join, *self.trees,
                self.make_buffer, self.predicate)
        else:
            self.ref = reference_join(*self.trees, self.make_buffer,
                                      self.predicate, STAND_IN)

    # -- the timed operations ------------------------------------------------

    def _sample(self, timer, slot: str, config, same) -> None:
        metrics = MetricsRegistry()
        result = timer.sample(slot, self._join, config, metrics)
        self.rec.call("bench.check", timer.check, same(result, self.ref)
                      and (config is PBSM or batch_levels(metrics) > 0),
                      f"{slot} sample differs from the stack machine")
        # Counts only: a kept result would sit in the measured peak memory.
        self.last[slot] = ({"pairs": len(result.pairs), "na": result.na_total,
                            "da": result.da_total,
                            "comparisons": result.comparisons}, metrics)

    def round(self, timer) -> None:
        # The shorter operation is the noisier one: sample it twice.
        self._sample(timer, "op", LEVEL_BATCH, same_join)
        self._sample(timer, "alt", PBSM, same_pbsm)
        self._sample(timer, "op", LEVEL_BATCH, same_join)

    # -- once-per-run readings and exact counters ----------------------------

    def _stack(self, enumeration: str):
        return spatial_join(
            *self.trees, buffer=self.make_buffer(), predicate=self.predicate,
            config=STAND_IN.with_options(pair_enumeration=enumeration))

    def _ratio(self, **hooks) -> float:
        """Median level-batch time with ``hooks`` over median time without."""
        with_hooks, bare = [], []
        for _ in range(RATIO_PAIRS):
            made = {name: make() for name, make in hooks.items()}
            with_hooks.append(self.timed("join.batch", self._join,
                                         LEVEL_BATCH, **made)[0])
            bare.append(self.timed("join.batch", self._join, LEVEL_BATCH)[0])
        return statistics.median(with_hooks) / statistics.median(bare)

    def once(self, timer) -> None:
        ref = self.ref

        def same_set(result, ref):
            # The sweeps read pages in another order: same pairs, same NA.
            return (set(result.pairs) == ref.pair_set
                    and result.na_total == ref.na)

        for enumeration, same in (("vectorized", same_join),
                                  ("plane-sweep", same_set),
                                  ("vectorized-sweep", same_set)):
            key = "join.sync." + enumeration.replace("-", "_")
            self.layer[key + "_ms"], result = self.timed(
                key, self._stack, enumeration)
            timer.check(same(result, ref), f"stack/{enumeration} differs")
        if not self.overheads:
            return
        for mode in ("threads", "processes"):
            key = f"join.parallel.{mode}"
            self.layer[key + "_ms"], result = self.timed(
                key, parallel_spatial_join, *self.trees,
                predicate=self.predicate,
                config=LEVEL_BATCH.with_options(mode=mode, workers=2))
            timer.check(set(result.pairs) == ref.pair_set
                        and result.total_na == ref.na,
                        f"parallel/{mode} differs")
        self.layer["exec.governor_overhead_frac"] = self._ratio(
            governor=lambda: ExecutionGovernor(
                Budget(deadline=3600.0, max_na=10 ** 9, max_da=10 ** 9)))
        self.layer["obs.trace_overhead_frac"] = self._ratio(
            tracer=lambda: Tracer(MemorySink()), metrics=MetricsRegistry)

    def finish(self, timer) -> None:
        join, metrics = self.last["op"]
        pbsm, pbsm_metrics = self.last["alt"]
        self.layer.update({
            "rtree.nodes": sum(len(t.pager) for t in self.trees),
            "rtree.height": max(t.height for t in self.trees),
            "geometry.arena_bytes": sum(t.arena().nbytes for t in self.trees),
            "join.pairs": join["pairs"],
            "join.na": join["na"],
            "join.da": join["da"],
            "join.comparisons": join["comparisons"],
            "storage.buffer_hit_frac": 1 - join["da"] / join["na"],
            "pbsm.tiles": pbsm_metrics.counter("pbsm.tiles").value,
            "join.partition.na": pbsm["na"],
        })
        for name in ("join.batch.levels", "join.batch.kernel_calls",
                     "join.batch.frontier_pairs"):
            self.layer[name] = metrics.counter(name).value


class JoinUniform60k(_JoinWorkload):
    """Uniform data, overlap, path buffer: the paper's own regime.

    R2 holds 57 500 objects, not 60 000: with equal cardinalities the
    two STR leaf grids coincide and NA swings +-12 % with the seed
    (aligned versus staggered leaves); 2 500 fewer objects keep equal
    heights (4) and hold NA within +-3 % across seeds.
    """

    name = "join-uniform-60k"
    cardinalities = (60_000, 57_500)
    overheads = True


class JoinSkewXHeight(_JoinWorkload):
    """Zipf data, unequal heights, distance predicate, LRU buffer."""

    name = "join-skew-xheight"
    cardinalities = (60_000, 6_000)
    predicate = WithinDistance(0.002)
    make_buffer = staticmethod(lambda: LRUBuffer(64))
    generate = staticmethod(zipf_rectangles)
