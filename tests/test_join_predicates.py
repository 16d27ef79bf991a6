"""Join predicates."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.join import OVERLAP, Overlap, WithinDistance


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


def _point(*xs):
    return Rect(xs, xs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.integers(1, 3).flatmap(lambda ndim: st.lists(
           st.tuples(_rect(ndim), _rect(ndim)), min_size=1, max_size=12)),
       st.one_of(st.just(0.0), st.just(5e-324), st.just(0.25),
                 st.floats(min_value=0.0, max_value=1.0)))
# A subnormal gap beside a large one: the sum of squares loses the
# first, the largest gap alone decides.
@example([(_point(0, 0), _point(5e-324, 0.25))], 0.0)
@example([(_point(0, 0), _point(5e-324, 0.0))], 0.0)
@example([(_point(0, 0), _point(5e-324, 0.0)),
          (_point(0, 0), _point(5e-324, 5e-324))], 5e-324)
# Gaps at the edge of the scaled range, and exactly on the distance
# (3-4-5 and 1-2-2-3), where only hypot decides.
@example([(_point(0, 0), _point(2.0 ** -500, 2.0 ** -500)),
          (_point(0, 0), _point(2.0 ** -501, 0.0))], 1.5 * 2.0 ** -500)
@example([(_point(0, 0), _point(3, 4)), (_point(0, 0), _point(3, 4.5))],
         5.0)
@example([(_point(0, 0, 0), _point(1, 2, 2)),
          (Rect((0, 0, 0), (1, 1, 1)), _point(2, 3, 3))], 3.0)
@example([(_point(0, 0), _point(3, 4))], 4.999999999999999)
# Gaps and a distance near 1e200: squaring would overflow.
@example([(_point(0, 0), _point(7e199, 7e199)),
          (_point(0, 0), _point(1e200, 0.0)),
          (_point(0, 0), _point(8e199, 8e199))], 1e200)
def test_confirm_is_the_scalar_leaf_test(pairs, distance):
    """``confirm`` over aligned ``(ndim, n)`` blocks gives, pair for
    pair, the verdict ``leaf_test`` gives over the rectangles — for
    ``WithinDistance`` through its array form of ``min_distance``, for
    a subclass (which may redefine the test) through the default."""

    class Halved(WithinDistance):
        def leaf_test(self, r1, r2):
            return r1.min_distance(r2) <= self.distance / 2

    blocks = [np.array([corner(r) for r in side], dtype=np.float64).T
              for side in zip(*pairs)
              for corner in (lambda r: r.lo, lambda r: r.hi)]
    for predicate in (WithinDistance(distance), Halved(distance)):
        assert predicate.confirm(*blocks) == [
            predicate.leaf_test(r1, r2) for r1, r2 in pairs]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("predicate", [Overlap(), WithinDistance(0.0),
                                       WithinDistance(1e300)], ids=repr)
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_nan_operand_fails_the_mask(predicate, ndim):
    """A NaN coordinate on either side fails both built-in masks, so
    the NaN padding of the level-batch planner's tiles never qualifies.
    Operands broadcast as the planner's do: ``(V, 1, A)`` against
    ``(V, B, 1)``, here with every real pair touching or overlapping."""
    shapes = ((ndim, 2, 1, 3), (ndim, 2, 3, 1))
    corners = [np.zeros(shapes[0]), np.ones(shapes[0]),
               np.ones(shapes[1]), np.full(shapes[1], 2.0)]
    mask, _exact = predicate.pair_mask(*corners)
    assert mask.shape == (2, 3, 3) and mask.all()
    for operand in range(4):
        for k in range(ndim):
            blocks = [c.copy() for c in corners]
            # One slot of one visit on this side, one axis.
            blocks[operand][(k, 1, 0, 2) if operand < 2 else (k, 1, 2, 0)] \
                = np.nan
            mask, _exact = predicate.pair_mask(*blocks)
            want = np.ones((2, 3, 3), dtype=bool)
            if operand < 2:
                want[1, :, 2] = False
            else:
                want[1, 2, :] = False
            assert (mask == want).all()
