"""Join predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.estimator.backend import get_numpy
from repro.geometry import Rect
from repro.join import OVERLAP, Overlap, WithinDistance

from .conftest import needs_numpy


class TestOverlap:
    def test_node_and_leaf_agree(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.4, 0.4), (1, 1))
        assert OVERLAP.node_test(a, b)
        assert OVERLAP.leaf_test(a, b)

    def test_disjoint(self):
        a = Rect((0, 0), (0.1, 0.1))
        b = Rect((0.5, 0.5), (1, 1))
        assert not OVERLAP.leaf_test(a, b)

    def test_shared_instance_is_overlap(self):
        assert isinstance(OVERLAP, Overlap)


class TestWithinDistance:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WithinDistance(-0.1)

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"),
                                          float("-inf")])
    def test_rejects_non_finite(self, distance):
        # ``nan < 0`` is false, so a sign check alone lets these in.
        with pytest.raises(ValueError, match="finite"):
            WithinDistance(distance)

    def test_zero_degenerates_to_overlap(self):
        pred = WithinDistance(0.0)
        a = Rect((0, 0), (0.5, 0.5))
        touching = Rect((0.5, 0.0), (1, 1))
        apart = Rect((0.6, 0.6), (1, 1))
        assert pred.leaf_test(a, touching)
        assert not pred.leaf_test(a, apart)

    def test_within_distance(self):
        pred = WithinDistance(0.2)
        a = Rect((0, 0), (0.1, 1.0))
        b = Rect((0.25, 0.0), (0.4, 1.0))   # gap of 0.15
        c = Rect((0.5, 0.0), (0.6, 1.0))    # gap of 0.4
        assert pred.leaf_test(a, b)
        assert not pred.leaf_test(a, c)

    def test_node_test_is_conservative(self):
        # Node MBRs contain their data, so a node-level pass must occur
        # whenever any contained pair could qualify: node distance is a
        # lower bound on data distance.
        pred = WithinDistance(0.1)
        node1 = Rect((0, 0), (0.3, 0.3))
        node2 = Rect((0.35, 0.35), (0.7, 0.7))
        data1 = Rect((0.28, 0.28), (0.3, 0.3))     # inside node1
        data2 = Rect((0.35, 0.35), (0.37, 0.37))   # inside node2
        assert pred.leaf_test(data1, data2)
        assert pred.node_test(node1, node2)

    def test_symmetry(self):
        pred = WithinDistance(0.3)
        a = Rect((0, 0), (0.1, 0.1))
        b = Rect((0.3, 0.3), (0.5, 0.5))
        assert pred.node_test(a, b) == pred.node_test(b, a)


#: Coordinates whose gaps are routinely zero (touching, degenerate
#: rectangles), subnormal (``5e-324`` apart: squaring underflows, hypot
#: must not) or ordinary.
_coord = st.one_of(
    st.integers(0, 4).map(lambda k: k / 4.0),
    st.integers(0, 4).map(lambda k: k * 5e-324),
    st.floats(min_value=-1.0, max_value=2.0))


def _rect(ndim):
    return st.tuples(*[st.tuples(_coord, _coord)] * ndim).map(
        lambda axes: Rect(tuple(min(a) for a in axes),
                          tuple(max(a) for a in axes)))


@needs_numpy
@given(st.integers(1, 3).flatmap(lambda ndim: st.lists(
           st.tuples(_rect(ndim), _rect(ndim)), min_size=1, max_size=12)),
       st.one_of(st.just(0.0), st.just(5e-324), st.just(0.25),
                 st.floats(min_value=0.0, max_value=1.0)))
def test_confirm_is_the_scalar_leaf_test(pairs, distance):
    """``confirm`` over aligned ``(ndim, n)`` blocks gives, pair for
    pair, the verdict ``leaf_test`` gives over the rectangles — for
    ``WithinDistance`` through its array form of ``min_distance``, for
    a subclass (which may redefine the test) through the default."""
    np = get_numpy()

    class Halved(WithinDistance):
        def leaf_test(self, r1, r2):
            return r1.min_distance(r2) <= self.distance / 2

    blocks = [np.array([corner(r) for r in side], dtype=np.float64).T
              for side in zip(*pairs)
              for corner in (lambda r: r.lo, lambda r: r.hi)]
    for predicate in (WithinDistance(distance), Halved(distance)):
        assert predicate.confirm(np, *blocks) == [
            predicate.leaf_test(r1, r2) for r1, r2 in pairs]
