"""Property-based tests for the join layer's newer surfaces."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionConfig
from repro.geometry import Rect
from repro.join import (WithinDistance, naive_join, parallel_spatial_join,
                        spatial_join)
from repro.rtree import RStarTree
from repro.storage import LRUBuffer, NoBuffer, PathBuffer

from .conftest import NESTED_LOOP, PLANE_SWEEP

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def rect_strategy():
    coord = st.floats(min_value=0.0, max_value=0.9, allow_nan=False)
    size = st.floats(min_value=0.0, max_value=0.1, allow_nan=False)

    def build(args):
        (x, y), (w, h) = args
        return Rect((x, y), (min(x + w, 1.0), min(y + h, 1.0)))
    return st.tuples(st.tuples(coord, coord),
                     st.tuples(size, size)).map(build)


items_strategy = st.lists(rect_strategy(), min_size=0, max_size=80).map(
    lambda rs: [(r, i) for i, r in enumerate(rs)])


def build(items):
    tree = RStarTree(2, 6)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


@SLOW
@given(items_strategy, items_strategy,
       st.floats(min_value=0.0, max_value=0.3))
def test_distance_join_equals_naive(items1, items2, distance):
    pred = WithinDistance(distance)
    result = spatial_join(build(items1), build(items2), predicate=pred)
    assert sorted(result.pairs) == \
        sorted(naive_join(items1, items2, predicate=pred))


@SLOW
@given(items_strategy, items_strategy,
       st.floats(min_value=0.01, max_value=0.3))
def test_distance_join_superset_of_overlap(items1, items2, distance):
    t1, t2 = build(items1), build(items2)
    overlap = set(spatial_join(t1, t2).pairs)
    within = set(spatial_join(t1, t2,
                              predicate=WithinDistance(distance)).pairs)
    assert overlap <= within


@SLOW
@given(items_strategy, items_strategy, st.integers(1, 6),
       st.sampled_from(["round-robin", "greedy"]))
def test_parallel_join_partition_invariants(items1, items2, workers,
                                            assignment):
    t1, t2 = build(items1), build(items2)
    sequential = spatial_join(t1, t2)
    result = parallel_spatial_join(t1, t2, config=ExecutionConfig(
        workers=workers, assignment=assignment))
    # Output is a partition of the sequential output: same multiset.
    assert sorted(result.pairs) == sorted(sequential.pairs)
    # Makespan bounded by total; both non-negative.
    assert 0 <= result.makespan_da <= result.total_da


@SLOW
@given(items_strategy, items_strategy)
def test_plane_sweep_equivalence(items1, items2):
    t1, t2 = build(items1), build(items2)
    nl = spatial_join(t1, t2, config=NESTED_LOOP)
    ps = spatial_join(t1, t2, config=PLANE_SWEEP)
    assert sorted(nl.pairs) == sorted(ps.pairs)
    assert nl.na_total == ps.na_total


@SLOW
@given(items_strategy, items_strategy, st.integers(0, 64))
def test_buffer_hierarchy(items1, items2, lru_size):
    # For any data: DA(no buffer) >= DA(path) and DA(no buffer) >=
    # DA(LRU k); NA identical across policies.
    t1, t2 = build(items1), build(items2)
    none = spatial_join(t1, t2, buffer=NoBuffer(), collect_pairs=False)
    path = spatial_join(t1, t2, buffer=PathBuffer(),
                        collect_pairs=False)
    lru = spatial_join(t1, t2, buffer=LRUBuffer(lru_size),
                       collect_pairs=False)
    assert none.na_total == path.na_total == lru.na_total
    assert path.da_total <= none.da_total
    assert lru.da_total <= none.da_total
