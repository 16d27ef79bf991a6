"""Unit tests for the Rect primitive."""

import math

import pytest

from repro.geometry import Rect


class TestConstruction:
    def test_basic(self):
        r = Rect((0.0, 0.0), (1.0, 2.0))
        assert r.lo == (0.0, 0.0)
        assert r.hi == (1.0, 2.0)

    def test_accepts_any_sequence(self):
        r = Rect([0, 0], [1, 1])
        assert r.lo == (0.0, 0.0)

    def test_coerces_to_float(self):
        r = Rect((0,), (1,))
        assert isinstance(r.lo[0], float)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dimensionalities differ"):
            Rect((0.0,), (1.0, 1.0))

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            Rect((), ())

    def test_rejects_inverted(self):
        with pytest.raises(ValueError, match="inverted"):
            Rect((1.0,), (0.0,))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Rect((float("nan"),), (1.0,))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            Rect((0.0,), (float("inf"),))

    def test_degenerate_allowed(self):
        r = Rect((0.5, 0.5), (0.5, 0.5))
        assert r.area() == 0.0

    def test_from_center(self):
        r = Rect.from_center((0.5, 0.5), (0.2, 0.4))
        assert r.lo == (0.4, 0.3)
        assert r.hi == (0.6, 0.7)

    def test_from_center_dim_mismatch(self):
        with pytest.raises(ValueError):
            Rect.from_center((0.5,), (0.2, 0.2))

    def test_point(self):
        p = Rect.point((0.3, 0.7))
        assert p.lo == p.hi == (0.3, 0.7)

    def test_unit(self):
        u = Rect.unit(3)
        assert u.lo == (0.0, 0.0, 0.0)
        assert u.hi == (1.0, 1.0, 1.0)

    def test_unit_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            Rect.unit(0)

    def test_bounding(self):
        b = Rect.bounding([
            Rect((0.0, 0.5), (0.2, 0.6)),
            Rect((0.1, 0.0), (0.9, 0.4)),
        ])
        assert b == Rect((0.0, 0.0), (0.9, 0.6))

    def test_bounding_single(self):
        r = Rect((0.1,), (0.2,))
        assert Rect.bounding([r]) == r

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Rect.bounding([])

    def test_bounding_mixed_dims_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([Rect((0,), (1,)), Rect((0, 0), (1, 1))])

    def test_bounding_of_an_iterator_keeps_both_errors(self):
        # bounding() transposes the corners in one pass; a one-shot
        # iterator, the odd rectangle first or last, changes nothing.
        flat, square = Rect((0,), (1,)), Rect((0, 0), (1, 1))
        for rects in ([square, square, flat], [flat, square, square]):
            with pytest.raises(ValueError, match="mixed dimensionalities"):
                Rect.bounding(iter(rects))
        with pytest.raises(ValueError, match="empty"):
            Rect.bounding(iter(()))
        assert Rect.bounding(iter([square, square])) == square


class TestProperties:
    def test_ndim(self):
        assert Rect((0, 0, 0), (1, 1, 1)).ndim == 3

    def test_extents(self):
        assert Rect((0.0, 0.2), (0.5, 1.0)).extents == (0.5, 0.8)

    def test_center(self):
        assert Rect((0.0, 0.0), (1.0, 0.5)).center == (0.5, 0.25)

    def test_area_1d_is_length(self):
        assert Rect((0.2,), (0.7,)).area() == pytest.approx(0.5)

    def test_area_2d(self):
        assert Rect((0, 0), (0.5, 0.4)).area() == pytest.approx(0.2)

    def test_margin(self):
        assert Rect((0, 0), (0.5, 0.4)).margin() == pytest.approx(0.9)


class TestPredicates:
    def test_intersects_overlapping(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.4, 0.4), (1, 1))
        assert a.intersects(b) and b.intersects(a)

    def test_intersects_touching_edges(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.5, 0.0), (1, 1))
        assert a.intersects(b)

    def test_disjoint(self):
        a = Rect((0, 0), (0.2, 0.2))
        b = Rect((0.5, 0.5), (1, 1))
        assert not a.intersects(b)

    def test_disjoint_in_one_dim_only(self):
        a = Rect((0, 0), (1.0, 0.2))
        b = Rect((0.0, 0.5), (1.0, 1.0))
        assert not a.intersects(b)

    def test_intersects_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Rect((0,), (1,)).intersects(Rect((0, 0), (1, 1)))

    def test_contains(self):
        outer = Rect((0, 0), (1, 1))
        inner = Rect((0.2, 0.2), (0.8, 0.8))
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_contains_itself(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains(r)

    def test_contains_point(self):
        r = Rect((0, 0), (1, 1))
        assert r.contains_point((0.5, 0.5))
        assert r.contains_point((0.0, 1.0))  # closed box
        assert not r.contains_point((1.1, 0.5))

    def test_contains_point_dim_mismatch(self):
        with pytest.raises(ValueError):
            Rect((0,), (1,)).contains_point((0.5, 0.5))


def assert_rect_close(a: Rect, b: Rect) -> None:
    assert a.lo == pytest.approx(b.lo)
    assert a.hi == pytest.approx(b.hi)


class TestCombining:
    def test_union(self):
        a = Rect((0, 0), (0.3, 0.3))
        b = Rect((0.5, 0.1), (0.9, 0.2))
        assert a.union(b) == Rect((0, 0), (0.9, 0.3))

    def test_union_commutative(self):
        a = Rect((0, 0), (0.3, 0.3))
        b = Rect((0.5, 0.1), (0.9, 0.2))
        assert a.union(b) == b.union(a)

    def test_intersection(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.3, 0.2), (1, 1))
        assert a.intersection(b) == Rect((0.3, 0.2), (0.5, 0.5))

    def test_intersection_disjoint_is_none(self):
        a = Rect((0,), (0.2,))
        b = Rect((0.5,), (1,))
        assert a.intersection(b) is None

    def test_intersection_area(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.3, 0.2), (1, 1))
        assert a.intersection_area(b) == pytest.approx(0.2 * 0.3)

    def test_intersection_area_disjoint(self):
        a = Rect((0, 0), (0.1, 0.1))
        b = Rect((0.5, 0.5), (1, 1))
        assert a.intersection_area(b) == 0.0

    def test_intersection_area_matches_intersection(self):
        a = Rect((0, 0), (0.7, 0.6))
        b = Rect((0.2, 0.3), (0.9, 1.0))
        assert a.intersection_area(b) == pytest.approx(
            a.intersection(b).area())

    def test_enlargement(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.5, 0.5), (1, 1))
        assert a.enlargement(b) == pytest.approx(1.0 - 0.25)

    def test_enlargement_contained_is_zero(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0.2, 0.2), (0.4, 0.4))
        assert a.enlargement(b) == pytest.approx(0.0)

    def test_inflate(self):
        r = Rect((0.4, 0.4), (0.6, 0.6)).inflate(0.1)
        assert_rect_close(r, Rect((0.3, 0.3), (0.7, 0.7)))

    def test_inflate_per_dimension(self):
        r = Rect((0.4, 0.4), (0.6, 0.6)).inflate((0.1, 0.0))
        assert_rect_close(r, Rect((0.3, 0.4), (0.7, 0.6)))

    def test_inflate_negative_clamps_at_center(self):
        r = Rect((0.4,), (0.6,)).inflate(-0.5)
        assert r == Rect((0.5,), (0.5,))

    def test_inflate_dim_mismatch(self):
        with pytest.raises(ValueError):
            Rect((0, 0), (1, 1)).inflate((0.1,))

    def test_translate(self):
        r = Rect((0.1, 0.2), (0.3, 0.4)).translate((0.5, -0.1))
        assert_rect_close(r, Rect((0.6, 0.1), (0.8, 0.3)))

    def test_min_distance_overlapping_is_zero(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.4, 0.4), (1, 1))
        assert a.min_distance(b) == 0.0

    def test_min_distance_axis_gap(self):
        a = Rect((0, 0), (0.2, 1.0))
        b = Rect((0.5, 0.0), (0.7, 1.0))
        assert a.min_distance(b) == pytest.approx(0.3)

    def test_min_distance_diagonal(self):
        a = Rect((0, 0), (0.1, 0.1))
        b = Rect((0.4, 0.5), (0.6, 0.7))
        assert a.min_distance(b) == pytest.approx(math.hypot(0.3, 0.4))

    def test_min_distance_symmetric(self):
        a = Rect((0, 0), (0.1, 0.1))
        b = Rect((0.4, 0.5), (0.6, 0.7))
        assert a.min_distance(b) == b.min_distance(a)


class TestProtocol:
    def test_equality_and_hash(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((0, 0), (1, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_inequality(self):
        assert Rect((0,), (1,)) != Rect((0,), (0.5,))
        assert Rect((0,), (1,)) != "not a rect"

    def test_immutability(self):
        r = Rect((0,), (1,))
        with pytest.raises(AttributeError):
            r.lo = (5.0,)

    def test_iter_gives_per_dim_spans(self):
        r = Rect((0.1, 0.2), (0.3, 0.4))
        assert list(r) == [(0.1, 0.3), (0.2, 0.4)]

    def test_repr_roundtrips_visually(self):
        assert "0.5" in repr(Rect((0.5,), (1.0,)))
