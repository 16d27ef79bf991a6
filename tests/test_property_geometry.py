"""Property-based tests for the geometric primitive."""

from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import rects

#: Any coordinate of the unit workspace.
UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_union_contains_both(a, b):
    u = a.union(b)
    assert u.contains(a) and u.contains(b)


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_union_area_at_least_max(a, b):
    assert a.union(b).area() >= max(a.area(), b.area()) - 1e-12


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_intersection_consistent_with_predicate(a, b):
    inter = a.intersection(b)
    assert (inter is not None) == a.intersects(b)
    if inter is not None:
        assert a.contains(inter) and b.contains(inter)


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_intersection_area_agrees(a, b):
    inter = a.intersection(b)
    expected = inter.area() if inter is not None else 0.0
    assert abs(a.intersection_area(b) - expected) < 1e-12


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_enlargement_non_negative(a, b):
    assert a.enlargement(b) >= -1e-12


@given(rects(coord=UNIT), rects(coord=UNIT))
def test_min_distance_zero_iff_intersecting(a, b):
    d = a.min_distance(b)
    if a.intersects(b):
        assert d == 0.0
    else:
        assert d > 0.0


@given(rects(coord=UNIT), rects(coord=UNIT), rects(coord=UNIT))
def test_min_distance_triangleish(a, b, c):
    # Not a true metric, but distance to a union can't exceed distance
    # to either constituent.
    u = b.union(c)
    assert a.min_distance(u) <= a.min_distance(b) + 1e-12


@given(rects(coord=UNIT), st.floats(min_value=0.0, max_value=0.5))
def test_inflate_contains_original(r, amount):
    assert r.inflate(amount).contains(r)


@given(rects(coord=UNIT), st.floats(min_value=0.0, max_value=0.5))
def test_inflate_grows_extents(r, amount):
    inflated = r.inflate(amount)
    for before, after in zip(r.extents, inflated.extents):
        assert after >= before - 1e-12


@given(rects(coord=UNIT))
def test_contains_implies_intersects(r):
    assert r.intersects(r)
    assert r.contains(r)


@given(rects(ndim=1, coord=UNIT), rects(ndim=1, coord=UNIT))
def test_one_dimensional_behaviour(a, b):
    # Interval logic: intersects iff neither is strictly to one side.
    expected = not (a.hi[0] < b.lo[0] or b.hi[0] < a.lo[0])
    assert a.intersects(b) == expected
