"""The PBSM partition engine: result equality, governance, semantics.

The partition-based engine is the first join whose result set must be
*proven* equal to the tree-based reference — the property tests here
drive both built-in predicates and two custom ones (see ``conftest``),
degenerate (zero-extent) rectangles and rectangles sitting exactly on
tile boundaries, asserting pair-for-pair equality with ``spatial_join``
and that no pair is duplicated or dropped by the reference-point rule.
``TestArenaEqualsScalar`` then holds the columnar engine to a scalar
one — :func:`scalar_pbsm`, the same grid over ``Entry`` lists swept
with the scalar ``sweep_pairs`` — on everything observable: pairs in
order, comparisons, NA/DA per tree per level, tiles.
"""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (Budget, CancellationToken, ExecutionConfig,
                        ExecutionGovernor)
from repro.exec.governor import BudgetExceeded
from repro.geometry import Rect
from repro.join import (OVERLAP, PartialJoinResult, SpatialJoin,
                        WithinDistance, parallel_spatial_join, partition,
                        partition_spatial_join, spatial_join)
from repro.join.plane_sweep import sweep_pairs
from repro.join.predicates import Overlap
from repro.join.result import R1, R2
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.storage import AccessStats, MeteredReader, PathBuffer

from .conftest import (KernelLessOverlap, StrictOverlap, build_rstar, items,
                       make_items, rects)

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


# Coordinates snapped to a coarse 1/8 lattice: many rectangles share
# exact lower bounds, sit exactly on tile boundaries of a small fixed
# grid, and degenerate to zero extent (size 0 is a legal draw) — the
# inputs the reference-point tiebreak must handle without duplicating or
# dropping a pair.
items_strategy = items(max_size=60, rect=rects(
    coord=st.integers(0, 7).map(lambda k: k / 8.0),
    extent=st.integers(0, 2).map(lambda k: k / 8.0)))

predicates = st.sampled_from(
    [OVERLAP, WithinDistance(0.0), WithinDistance(0.125),
     WithinDistance(0.3), StrictOverlap(), KernelLessOverlap()])


def scalar_pbsm(tree1, tree2, predicate=OVERLAP, tiles=None):
    """PBSM's scalar engine, the reference of the columnar one.

    The same charged leaf scan and the same grid; then, over ``Entry``
    lists, every entry is replicated into each tile its (R2: inflated)
    rectangle touches, each two-sided tile in row-major order is swept
    with the scalar :func:`sweep_pairs`, and a candidate is kept when
    its tile owns the pair's reference point and ``leaf_test`` holds.
    Returns what the engine reports: ``pairs``, ``pair_count``,
    ``comparisons``, ``stats`` and the ``partition`` event's fields
    (``event``, ``None`` when a side is empty).
    """
    stats, buffer = AccessStats(), PathBuffer()
    leaves = [partition._scan_leaves(
        tree, MeteredReader(tree.pager, label, stats, buffer), None, stats)
        for tree, label in ((tree1, R1), (tree2, R2))]
    entries = [[e for node in side for e in node.entries] for side in leaves]
    done = SimpleNamespace(pairs=[], pair_count=0, comparisons=0,
                           stats=stats, event=None)
    if not all(entries):
        return done
    axes, slack = min(tree1.ndim, 2), predicate.sweep_slack()
    inflate = (0.0, slack)
    lo = [min(e.rect.lo[k] - pad for side, pad in zip(entries, inflate)
              for e in side) for k in range(axes)]
    hi = [max(e.rect.hi[k] + pad for side, pad in zip(entries, inflate)
              for e in side) for k in range(axes)]
    per_axis = partition._tiles_per_axis(max(map(len, entries)), axes,
                                         tiles)
    grid = partition._make_grid(lo, hi, per_axis, slack)

    def tile_of(k, x):
        t = int((x - grid.origin[k]) / grid.width[k])
        return min(max(t, 0), grid.tiles[k] - 1)

    scattered = []
    for side, pad in zip(entries, inflate):
        cells = {}
        for e in side:
            for tile in product(*(range(tile_of(k, e.rect.lo[k] - pad),
                                        tile_of(k, e.rect.hi[k] + pad) + 1)
                                  for k in range(axes))):
                cells.setdefault(tile, []).append(e)
        scattered.append(cells)
    cells1, cells2 = scattered
    common = [tile for tile in sorted(cells1) if tile in cells2]
    for tile in common:
        for e1, e2, cost in sweep_pairs(cells1[tile], cells2[tile],
                                        slack=slack):
            done.comparisons += cost
            owner = tuple(tile_of(k, max(e1.rect.lo[k],
                                         e2.rect.lo[k] - slack))
                          for k in range(axes))
            if owner == tile and predicate.leaf_test(e1.rect, e2.rect):
                done.pairs.append((e1.ref, e2.ref))
    done.pair_count = len(done.pairs)
    done.event = {"tiles": len(common), "grid": list(grid.tiles),
                  "entries1": len(entries[0]), "entries2": len(entries[1]),
                  "replicas1": sum(map(len, cells1.values())),
                  "replicas2": sum(map(len, cells2.values()))}
    return done


def assert_matches_reference(items1, items2, predicate, scalar=False,
                             **kwargs):
    """The engine (or, with ``scalar``, its reference) against the
    synchronized traversal."""
    t1, t2 = build_rstar(items1), build_rstar(items2)
    reference = spatial_join(t1, t2, predicate=predicate)
    join = scalar_pbsm if scalar else partition_spatial_join
    result = join(t1, t2, predicate=predicate, **kwargs)
    pairs = list(result.pairs)
    # No pair is emitted twice (the reference-point rule picks exactly
    # one owner tile) and none is dropped.
    assert len(pairs) == len(set(pairs))
    assert sorted(pairs) == sorted(reference.pairs)
    return result


class TestPairSetEquality:
    @SLOW
    @given(items_strategy, items_strategy, predicates,
           st.integers(1, 5))
    def test_equals_tree_reference(self, items1, items2, predicate,
                                   tiles):
        assert_matches_reference(items1, items2, predicate,
                                 tiles=tiles)

    @SLOW
    @given(items_strategy, items_strategy, predicates,
           st.integers(1, 4))
    def test_equals_tree_reference_scalar(self, items1, items2,
                                          predicate, tiles):
        assert_matches_reference(items1, items2, predicate, scalar=True,
                                 tiles=tiles)

    def test_tile_boundary_rectangles(self):
        # With bounds [0, 1] and tiles=2 the boundary is exactly 0.5;
        # rectangles whose edges (and whose pair reference points) sit
        # exactly on it are owned by exactly one tile.
        items1 = [(Rect((0.0, 0.0), (0.5, 0.5)), 0),
                  (Rect((0.5, 0.5), (1.0, 1.0)), 1),
                  (Rect((0.5, 0.0), (0.5, 1.0)), 2),   # degenerate, on
                  (Rect((0.0, 0.0), (1.0, 1.0)), 3)]   # the boundary
        items2 = [(Rect((0.5, 0.5), (0.5, 0.5)), 0),   # point at corner
                  (Rect((0.25, 0.25), (0.75, 0.75)), 1),
                  (Rect((0.0, 0.5), (1.0, 0.5)), 2)]
        for predicate in (OVERLAP, WithinDistance(0.25)):
            assert_matches_reference(items1, items2, predicate,
                                     tiles=2)

    def test_degenerate_shared_lower_bounds(self):
        # Zero-extent rectangles stacked on the same lower bound — the
        # tie case the plane-sweep ordering fix covers — joined across
        # tiles.
        p = (0.5, 0.5)
        items1 = [(Rect(p, p), i) for i in range(4)]
        items2 = [(Rect(p, p), i) for i in range(4)]
        items2.append((Rect((0.0, 0.0), (1.0, 1.0)), 4))
        result = assert_matches_reference(items1, items2, OVERLAP,
                                          tiles=3)
        assert result.pair_count == 4 * 5

    @pytest.mark.parametrize("scalar", [False, True])
    def test_subnormal_extent_collapses_the_axis(self, scalar):
        # The x-extent (5e-324) is positive but extent / tiles
        # underflows to 0.0: the axis must collapse to one tile column
        # instead of dividing by a zero width.
        tiny = 5e-324
        items1 = [(Rect((0.0, y / 4), (tiny, y / 4 + 0.3)), y)
                  for y in range(4)]
        items2 = [(Rect((0.0, y / 4), (0.0, y / 4 + 0.3)), y)
                  for y in range(4)]
        result = assert_matches_reference(items1, items2, OVERLAP,
                                          scalar=scalar, tiles=2)
        assert result.pair_count == 10       # |y1 - y2| <= 1

    def test_empty_inputs(self):
        t1 = build_rstar(make_items(50, seed=1))
        empty = build_rstar([])
        assert partition_spatial_join(t1, empty).pair_count == 0
        assert partition_spatial_join(empty, t1).pair_count == 0
        assert partition_spatial_join(empty, empty).pair_count == 0


def traced_join(t1, t2, **kwargs):
    """One observed PBSM join: ``(result, partition event or None,
    counters)``."""
    tracer = Tracer(MemorySink())
    metrics = MetricsRegistry()
    result = partition_spatial_join(t1, t2, tracer=tracer, metrics=metrics,
                                    **kwargs)
    events = [e for e in tracer.sink.records if e["event"] == "partition"]
    return (result, events[0] if events else None,
            metrics.as_dict()["counters"])


def assert_engines_agree(t1, t2, predicate, tiles):
    arena, event, counters = traced_join(t1, t2, predicate=predicate,
                                         tiles=tiles)
    scalar = scalar_pbsm(t1, t2, predicate, tiles)
    assert arena.pairs == scalar.pairs              # order included
    assert arena.pair_count == scalar.pair_count
    assert arena.comparisons == scalar.comparisons
    assert arena.stats.as_dict() == scalar.stats.as_dict()
    assert (arena.engine, arena.fallback) == ("pbsm", None)
    assert not any(".fallback." in k for k in counters)
    if event is None:                    # an empty side: nothing to tile
        assert scalar.event is None
        return arena
    assert counters["pbsm.tiles"] == scalar.event["tiles"]
    assert {k: event[k] for k in scalar.event} == scalar.event
    return arena


class TestArenaEqualsScalar:
    """The columnar engine against the scalar reference, observable by
    observable."""

    @SLOW
    @given(items_strategy, items_strategy, predicates,
           st.sampled_from([1, 2, 7]), st.sampled_from([4, 8, 64]))
    def test_differential(self, items1, items2, predicate, tiles,
                          max_entries):
        # max_entries=64 keeps every tree a single-leaf root; 4 grows
        # them three and four levels tall.
        assert_engines_agree(build_rstar(items1, max_entries=max_entries),
                             build_rstar(items2, max_entries=max_entries),
                             predicate, tiles)

    @pytest.mark.parametrize("predicate",
                             [OVERLAP, WithinDistance(0.05)])
    @pytest.mark.parametrize("n1,n2", [(300, 6), (6, 300), (5, 5)])
    def test_unequal_heights_and_leaf_roots(self, n1, n2, predicate):
        t1 = build_rstar(make_items(n1, seed=21))
        t2 = build_rstar(make_items(n2, seed=22))
        assert (t1.height == 1) == (n1 < 8)
        assert (t2.height == 1) == (n2 < 8)
        for tiles in (1, 2, 7):
            result = assert_engines_agree(t1, t2, predicate, tiles)
            assert sorted(result.pairs) == sorted(
                spatial_join(t1, t2, predicate=predicate).pairs)

    def test_default_grid_and_three_dimensions(self):
        # The density heuristic's grid (tiles=None), and a third
        # dimension the grid ignores but the predicate does not.
        assert_engines_agree(build_rstar(make_items(700, seed=23)),
                             build_rstar(make_items(650, seed=24)),
                             OVERLAP, None)
        t1 = build_rstar(make_items(200, ndim=3, seed=25, side=0.15),
                         ndim=3)
        t2 = build_rstar(make_items(200, ndim=3, seed=26, side=0.15),
                         ndim=3)
        for predicate in (OVERLAP, WithinDistance(0.05)):
            arena = assert_engines_agree(t1, t2, predicate, 3)
            assert sorted(arena.pairs) == sorted(
                spatial_join(t1, t2, predicate=predicate).pairs)

    def test_stale_arena_is_rebuilt(self):
        # An insert after tree.arena() must reach the join: the engine
        # reads slots of the *current* arena, never a cached stale one.
        t1 = build_rstar(make_items(120, seed=27))
        t2 = build_rstar(make_items(120, seed=28))
        stale = t1.arena()
        before = partition_spatial_join(t1, t2)
        t1.insert(Rect((0.0, 0.0), (1.0, 1.0)), 10_000)
        result = assert_engines_agree(t1, t2, OVERLAP, None)
        assert t1.arena() is not stale
        assert result.pair_count == before.pair_count + 120


class _SupersetKernelOverlap(Overlap):
    """An inexact kernel (sweep-axis test only): every survivor must be
    confirmed with ``leaf_test``."""

    def pair_mask(self, lo1, hi1, lo2, hi2):
        return (lo1[0] <= hi2[0]) & (lo2[0] <= hi1[0]), False


class TestFallbackIsRecorded:
    """The fallback a PBSM join records: none, whatever the predicate —
    one without a kernel of its own or with an inexact one runs on the
    columnar engine too, its candidates settled by ``confirm``."""

    def _trees(self):
        return (build_rstar(make_items(150, seed=31)),
                build_rstar(make_items(150, seed=32)))

    def test_no_pair_mask(self):
        t1, t2 = self._trees()
        want, _, _ = traced_join(t1, t2)
        got, event, counters = traced_join(t1, t2,
                                           predicate=KernelLessOverlap())
        assert (got.engine, got.fallback) == ("pbsm", None)
        assert "engine" not in event and "fallback" not in event
        assert not any(".fallback." in k for k in counters)
        assert got.pairs == want.pairs
        assert got.comparisons == want.comparisons

    def test_inexact_custom_kernel_stays_on_the_arena_engine(self):
        t1, t2 = self._trees()
        want, _, _ = traced_join(t1, t2, tiles=3)
        got, _, _ = traced_join(t1, t2, tiles=3,
                                predicate=_SupersetKernelOverlap())
        assert (got.engine, got.fallback) == ("pbsm", None)
        assert got.pairs == want.pairs
        assert got.comparisons == want.comparisons


@pytest.mark.parametrize("scalar", [pytest.param(True, id="scalar"),
                                    pytest.param(False, id="numpy")])
@pytest.mark.parametrize("distance", [float("nan"), float("inf")])
def test_non_finite_distance_reaches_neither_engine(scalar, distance,
                                                    monkeypatch):
    """Refused where the predicate is made.  An infinite sweep slack
    used to reach the grid: ``int(nan)`` raised from the scalar
    engine's tile map while the columnar engine cast the same NaN to
    int64 and answered, so the two engines disagreed."""
    reached = []
    monkeypatch.setattr(partition, "_make_grid",
                        lambda *args: reached.append(args))
    t1 = build_rstar(make_items(40, seed=33))
    t2 = build_rstar(make_items(40, seed=34))
    join = scalar_pbsm if scalar else partition_spatial_join
    with pytest.raises(ValueError, match="finite"):
        join(t1, t2, predicate=WithinDistance(distance))
    assert not reached


class TestAccessSemantics:
    def test_na_equals_da_equals_nonroot_pages(self):
        # The build walks each tree once, charging every non-root page
        # exactly one read and never revisiting — NA == DA == the
        # non-root page count of both trees; the probe phase is free.
        t1 = build_rstar(make_items(300, seed=5))
        t2 = build_rstar(make_items(300, seed=6))
        result = partition_spatial_join(t1, t2)

        def nonroot_pages(tree):
            count = 0
            stack = [(tree.root_id, tree.height)]
            while stack:
                page_id, level = stack.pop()
                if page_id != tree.root_id:
                    count += 1
                if level > 1:
                    node = tree.pager.read(page_id)
                    stack.extend((e.ref, level - 1)
                                 for e in node.entries)
            return count

        expected = nonroot_pages(t1) + nonroot_pages(t2)
        assert result.na_total == result.da_total == expected

    def test_observability(self):
        t1 = build_rstar(make_items(120, seed=7))
        t2 = build_rstar(make_items(120, seed=8))
        sink = MemorySink()
        tracer = Tracer(sink)
        metrics = MetricsRegistry()
        partition_spatial_join(t1, t2, tracer=tracer, metrics=metrics)
        events = {e["event"] for e in sink.records}
        assert {"join_start", "partition", "join_finish"} <= events
        start = next(e for e in sink.records
                     if e["event"] == "join_start")
        assert start["strategy"] == "pbsm"
        counters = metrics.as_dict()["counters"]
        assert counters["pbsm.joins"] == 1
        assert counters["pbsm.tiles"] >= 1

    def test_strategy_wiring(self):
        # ExecutionConfig(strategy="pbsm") routes spatial_join through
        # the partition engine, which runs in the calling thread: the
        # config refuses a pool for it, the bucket-parallel join the
        # strategy, and partition_spatial_join turns any config it is
        # handed into a PBSM one through that same door.
        t1 = build_rstar(make_items(150, seed=9))
        t2 = build_rstar(make_items(150, seed=10))
        reference = spatial_join(t1, t2)
        cfg = ExecutionConfig(strategy="pbsm")
        via_sync = spatial_join(t1, t2, config=cfg)
        assert via_sync.engine == "pbsm"
        assert sorted(via_sync.pairs) == sorted(reference.pairs)
        with pytest.raises(ValueError, match="pbsm"):
            parallel_spatial_join(t1, t2, config=cfg)
        for mode in ("threads", "processes"):
            with pytest.raises(ValueError, match="workers must be 1"):
                ExecutionConfig(strategy="pbsm", mode=mode, workers=2)
        with pytest.raises(ValueError, match="workers must be 1"):
            partition_spatial_join(t1, t2,
                                   config=ExecutionConfig(workers=2))

    def test_resume_refused(self):
        t1 = build_rstar(make_items(20, seed=11))
        join = SpatialJoin(t1, t1,
                           config=ExecutionConfig(strategy="pbsm"))
        with pytest.raises(ValueError, match="cannot resume"):
            join.resume(object())


class TestGovernedPartition:
    """Budget trips inside the scan and the tile probe."""

    def _trees(self):
        return (build_rstar(make_items(400, seed=12)),
                build_rstar(make_items(400, seed=13)))

    def test_result_budget_trip_serial_partial(self):
        t1, t2 = self._trees()
        full = partition_spatial_join(t1, t2)
        governor = ExecutionGovernor(Budget(max_results=20),
                                     partial=True)
        result = partition_spatial_join(t1, t2, governor=governor)
        assert isinstance(result, PartialJoinResult)
        assert result.checkpoint is None
        assert result.reason.resource == "results"
        assert set(result.pairs) <= set(full.pairs)

    def test_budget_trip_raises_without_partial(self):
        t1, t2 = self._trees()
        governor = ExecutionGovernor(Budget(max_results=5),
                                     partial=False)
        with pytest.raises(BudgetExceeded):
            partition_spatial_join(t1, t2, governor=governor)

    def test_cancellation_token(self):
        t1, t2 = self._trees()
        token = CancellationToken()
        token.cancel()
        governor = ExecutionGovernor(token=token, partial=True)
        result = partition_spatial_join(t1, t2, governor=governor)
        assert isinstance(result, PartialJoinResult)
        assert result.checkpoint is None
