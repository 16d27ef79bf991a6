"""The PBSM partition engine: result equality, governance, semantics.

The partition-based engine is the first join whose result set must be
*proven* equal to the tree-based reference — the property tests here
drive both predicates, both engines (the arena pipeline and the scalar
engine a tree without an arena gets), degenerate (zero-extent)
rectangles and rectangles sitting exactly on tile boundaries, asserting
pair-for-pair equality with ``spatial_join`` and that no pair is
duplicated or dropped by the reference-point rule.
``TestArenaEqualsScalar`` then holds the arena engine to the scalar one
on everything observable: pairs in order, comparisons, NA/DA per tree
per level, tiles.
"""

from contextlib import contextmanager

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
from repro.join.predicates import Overlap
from repro.obs import MemorySink, MetricsRegistry, Tracer

from .conftest import build_rstar, make_items

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def rect_strategy():
    # Coordinates snapped to a coarse 1/8 lattice: many rectangles
    # share exact lower bounds, sit exactly on tile boundaries of a
    # small fixed grid, and degenerate to zero extent (size 0 is a
    # legal draw) — the inputs the reference-point tiebreak must
    # handle without duplicating or dropping a pair.
    coord = st.integers(0, 7).map(lambda k: k / 8.0)
    size = st.integers(0, 2).map(lambda k: k / 8.0)

    def build(args):
        (x, y), (w, h) = args
        return Rect((x, y), (min(x + w, 1.0), min(y + h, 1.0)))
    return st.tuples(st.tuples(coord, coord),
                     st.tuples(size, size)).map(build)


items_strategy = st.lists(rect_strategy(), min_size=0, max_size=60).map(
    lambda rs: [(r, i) for i, r in enumerate(rs)])

predicates = st.sampled_from(
    [OVERLAP, WithinDistance(0.0), WithinDistance(0.125),
     WithinDistance(0.3)])


@contextmanager
def no_arena(tree, enabled: bool = True):
    """Take the tree's arena away for a block, as a pager that may fault
    does: PBSM then runs its scalar engine (a no-op when not
    ``enabled``)."""
    if not enabled:
        yield
        return
    tree.arena = None                    # shadows the builder
    try:
        yield
    finally:
        del tree.arena


def assert_matches_reference(items1, items2, predicate, scalar=False,
                             **kwargs):
    t1, t2 = build_rstar(items1), build_rstar(items2)
    reference = spatial_join(t1, t2, predicate=predicate)
    with no_arena(t1, scalar):
        result = partition_spatial_join(t1, t2, predicate=predicate,
                                        **kwargs)
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


def traced_join(t1, t2, scalar, **kwargs):
    """One observed PBSM join on the chosen engine:
    ``(result, partition event or None, counters)``."""
    tracer = Tracer(MemorySink())
    metrics = MetricsRegistry()
    with no_arena(t1, scalar):
        result = partition_spatial_join(t1, t2, tracer=tracer,
                                        metrics=metrics, **kwargs)
    events = [e for e in tracer.sink.records if e["event"] == "partition"]
    return (result, events[0] if events else None,
            metrics.as_dict()["counters"])


def assert_engines_agree(t1, t2, predicate, tiles):
    arena, a_event, a_counters = traced_join(
        t1, t2, False, predicate=predicate, tiles=tiles)
    scalar, s_event, s_counters = traced_join(
        t1, t2, True, predicate=predicate, tiles=tiles)
    assert arena.pairs == scalar.pairs              # order included
    assert arena.pair_count == scalar.pair_count
    assert arena.comparisons == scalar.comparisons
    assert arena.stats.as_dict() == scalar.stats.as_dict()
    assert a_counters["pbsm.tiles"] == s_counters["pbsm.tiles"]
    assert s_counters["pbsm.fallback.no-arena"] == 1
    assert not any(k.startswith("pbsm.fallback.") for k in a_counters)
    if a_event is None:                  # an empty side: nothing to tile
        assert s_event is None
        return arena
    assert (a_event["engine"], a_event["fallback"]) == ("arena", None)
    assert (s_event["engine"], s_event["fallback"]) == \
        ("scalar", "no-arena")
    for key in ("tiles", "grid", "entries1", "entries2", "replicas1",
                "replicas2"):
        assert a_event[key] == s_event[key], key
    return arena


class TestArenaEqualsScalar:
    """The arena engine against the scalar one, observable by observable."""

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
            arena, event, _ = traced_join(t1, t2, False,
                                          predicate=predicate, tiles=3)
            scalar, _, _ = traced_join(t1, t2, True,
                                       predicate=predicate, tiles=3)
            assert event["engine"] == "arena"
            assert arena.pairs == scalar.pairs
            assert arena.comparisons == scalar.comparisons
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
        result, event, _ = traced_join(t1, t2, False)
        assert t1.arena() is not stale
        assert event["engine"] == "arena"
        assert event["entries1"] == 121
        assert result.pair_count == before.pair_count + 120
        scalar, _, _ = traced_join(t1, t2, True)
        assert result.pairs == scalar.pairs
        assert result.stats.as_dict() == scalar.stats.as_dict()


class _KernelLessOverlap(Overlap):
    def pair_mask(self, lo1, hi1, lo2, hi2):
        return None


class _SupersetKernelOverlap(Overlap):
    """An inexact kernel (sweep-axis test only): every survivor must be
    confirmed with ``leaf_test``."""

    def pair_mask(self, lo1, hi1, lo2, hi2):
        return (lo1[0] <= hi2[0]) & (lo2[0] <= hi1[0]), False


class TestFallbackIsRecorded:
    """No silent fallback: the trace and a counter name the reason."""

    def _trees(self):
        return (build_rstar(make_items(150, seed=31)),
                build_rstar(make_items(150, seed=32)))

    def test_no_pair_mask(self):
        t1, t2 = self._trees()
        want, _, _ = traced_join(t1, t2, False)
        got, event, counters = traced_join(
            t1, t2, False, predicate=_KernelLessOverlap())
        assert (event["engine"], event["fallback"]) == \
            ("scalar", "no-pair-mask")
        assert counters["pbsm.fallback.no-pair-mask"] == 1
        assert got.pairs == want.pairs
        assert got.comparisons == want.comparisons

    def test_inexact_custom_kernel_stays_on_the_arena_engine(self):
        t1, t2 = self._trees()
        want, _, _ = traced_join(t1, t2, False, tiles=3)
        got, event, _ = traced_join(
            t1, t2, False, tiles=3, predicate=_SupersetKernelOverlap())
        assert (event["engine"], event["fallback"]) == ("arena", None)
        assert got.pairs == want.pairs
        assert got.comparisons == want.comparisons

    def test_arena_unavailable(self, monkeypatch):
        t1, t2 = self._trees()
        want, _, _ = traced_join(t1, t2, False)
        monkeypatch.setattr(t2, "arena", None)
        got, event, counters = traced_join(t1, t2, False)
        # One name per reason: what the traversal calls it.
        assert (event["engine"], event["fallback"]) == \
            ("scalar", "no-arena")
        assert counters["pbsm.fallback.no-arena"] == 1
        assert got.fallback == "no-arena"
        assert got.pairs == want.pairs
        assert got.stats.as_dict() == want.stats.as_dict()


@pytest.mark.parametrize("scalar", [pytest.param(True, id="scalar"),
                                    pytest.param(False, id="numpy")])
@pytest.mark.parametrize("distance", [float("nan"), float("inf")])
def test_non_finite_distance_reaches_neither_engine(scalar, distance,
                                                    monkeypatch):
    """Refused where the predicate is made.  An infinite sweep slack
    used to reach the grid: ``int(nan)`` raised from the scalar
    engine's ``tile_of`` while the arena engine cast the same NaN to
    int64 and answered, so the two engines disagreed."""
    reached = []
    monkeypatch.setattr(partition, "_make_grid",
                        lambda *args: reached.append(args))
    t1 = build_rstar(make_items(40, seed=33))
    t2 = build_rstar(make_items(40, seed=34))
    with no_arena(t1, scalar), pytest.raises(ValueError, match="finite"):
        partition_spatial_join(t1, t2, predicate=WithinDistance(distance))
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
        assert via_sync.engine.startswith("pbsm-")
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
