"""Property-based tests for the join layer's newer surfaces."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import ASSIGNMENT_STRATEGIES, ExecutionConfig
from repro.join import WithinDistance, naive_join, spatial_join
from repro.storage import LRUBuffer, NoBuffer, PathBuffer

from .conftest import (PLANE_SWEEP, assert_conforms,
                       assert_parallel_conforms, build_rstar, items)

SLOW = settings(max_examples=20,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def build(items):
    return build_rstar(items, max_entries=6)


@SLOW
@given(items(), items(), st.floats(min_value=0.0, max_value=0.3))
def test_distance_join_equals_naive(items1, items2, distance):
    pred = WithinDistance(distance)
    result = spatial_join(build(items1), build(items2), predicate=pred)
    assert sorted(result.pairs) == \
        sorted(naive_join(items1, items2, predicate=pred))


@SLOW
@given(items(), items(), st.floats(min_value=0.01, max_value=0.3))
def test_distance_join_superset_of_overlap(items1, items2, distance):
    t1, t2 = build(items1), build(items2)
    overlap = set(spatial_join(t1, t2).pairs)
    within = set(spatial_join(t1, t2,
                              predicate=WithinDistance(distance)).pairs)
    assert overlap <= within


@SLOW
@given(items(), items(), st.integers(1, 6),
       st.sampled_from(ASSIGNMENT_STRATEGIES))
def test_parallel_join_partition_invariants(items1, items2, workers,
                                            assignment):
    assert_parallel_conforms((build(items1), build(items2)), [
        ExecutionConfig(workers=workers, assignment=assignment)])


@SLOW
@given(items(), items())
def test_plane_sweep_equivalence(items1, items2):
    assert_conforms((build(items1), build(items2)), [PLANE_SWEEP])


@SLOW
@given(items(), items(), st.integers(0, 64))
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
