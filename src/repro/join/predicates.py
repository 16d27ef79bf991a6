"""Join predicates.

The paper's join condition is ``overlap`` (MBR intersection).  Section 5
sketches supporting other spatial operators by transforming the query
window [PT97]; the runtime counterpart of that idea is a predicate object
with two faces:

* ``node_test`` — a conservative test between *node/entry* rectangles that
  must never prune a pair whose descendants could satisfy the join (it is
  applied while descending);
* ``leaf_test`` — the exact test between *data* rectangles.

For ``Overlap`` the two coincide.  For ``WithinDistance(e)`` both are a
minimum-distance test, which is simultaneously exact at leaf level and
conservative above it (node MBRs contain their data, so node distance is a
lower bound on data distance).

How a *batch* of rectangle pairs is tested is decided here too, once per
predicate: :meth:`JoinPredicate.pair_mask` (the IEEE-exact mask) and
:meth:`JoinPredicate.confirm` (exact verdicts for what an inexact mask
lets through).  The level-batch planner, the PBSM tile probe and the
Fig. 2 machine's ``vectorized`` block all call that pair and hold no
coordinate arithmetic of their own.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import Rect

__all__ = ["JoinPredicate", "Overlap", "WithinDistance", "OVERLAP"]

#: Where ``WithinDistance.confirm`` may decide by a sum of squares: gaps
#: and distance in ``[_TINY, _HUGE]``, squares outside ``d^2 (1 +- _BAND)``.
_TINY, _HUGE, _BAND = 2.0 ** -500, 2.0 ** 500, 1e-12


class JoinPredicate:
    """Interface for join conditions usable by the SJ traversal."""

    def node_test(self, r1: Rect, r2: Rect) -> bool:
        """Conservative test for internal-level rectangle pairs."""
        raise NotImplementedError

    def leaf_test(self, r1: Rect, r2: Rect) -> bool:
        """Exact test for data rectangle pairs."""
        raise NotImplementedError

    def sweep_slack(self) -> float:
        """Axis slack the plane sweep must apply for this predicate.

        The sweep enumerators only emit pairs whose sweep-axis gap is
        at most this value; ``leaf_test`` then confirms each candidate.
        The default ``0.0`` (axis overlap required) is correct for any
        predicate that implies MBR intersection.  A predicate that can
        match rectangles at a positive distance — e.g.
        :class:`WithinDistance` — must override this, or the sweep
        enumerations silently drop qualifying pairs.
        """
        return 0.0

    def pair_mask(self, lo1, hi1, lo2, hi2):
        """The batched test: a boolean mask over rectangle pairs.

        ``lo1[k]``/``hi1[k]`` (and the ``2`` side) are the float64
        coordinates of axis ``k``, ``len(lo1)`` axes in all.  The kernel
        is **elementwise over broadcastable operands**: ``lo1[k]`` may
        be a 1-D column aligned with ``lo2[k]`` (element ``t`` of every
        operand describes candidate pair ``t`` — the PBSM tile probe and
        the level-batch restriction), a ``(1, a)`` row against a
        ``(b, 1)`` column (one node's entries against another's — the
        Fig. 2 machine's ``vectorized`` block) or ``(V, 1, A)`` tiles
        against ``(V, B, 1)`` (``V`` such blocks at once, NaN-padded —
        the level-batch planner); the mask has the broadcast shape.  A
        NaN operand fails the built-in masks, as every comparison with
        a NaN does.

        Returns ``(mask, exact)``.  The mask stands for **both** tests:
        it never rejects a pair :meth:`node_test` or :meth:`leaf_test`
        accepts.  ``exact=True`` means it *is* both — true of the two
        built-ins, whose two tests are one; with ``exact=False`` it is
        a superset and the caller settles each survivor with
        :meth:`confirm` or the scalar test of its level.  The default,
        for a predicate with no kernel of its own, is that superset at
        its widest: every pair passes, inexactly.

        The built-in kernels use ``<=`` and ``-`` on float64 only,
        which IEEE 754 defines elementwise, so they answer what the
        scalar :class:`~repro.geometry.Rect` code answers bit for bit.
        The within-distance kernel therefore only *prefilters*: per-axis
        gaps are exact, the Euclidean norm is not.
        """
        shape = np.broadcast_shapes(np.shape(lo1[0]), np.shape(lo2[0]))
        return np.ones(shape, dtype=bool), False

    def confirm(self, lo1, hi1, lo2, hi2) -> list[bool]:
        """Exact verdicts for the survivors of an inexact mask.

        The operands are aligned ``(ndim, n)`` blocks, one column per
        surviving pair.  The default rebuilds the rectangles and asks
        :meth:`leaf_test`.
        """
        corners = [zip(*c.tolist()) for c in (lo1, hi1, lo2, hi2)]
        return [self.leaf_test(Rect(a, b), Rect(c, d))
                for a, b, c, d in zip(*corners)]


class Overlap(JoinPredicate):
    """The paper's join condition: MBR intersection."""

    def node_test(self, r1: Rect, r2: Rect) -> bool:
        return r1.intersects(r2)

    def leaf_test(self, r1: Rect, r2: Rect) -> bool:
        return r1.intersects(r2)

    def pair_mask(self, lo1, hi1, lo2, hi2):
        # Closed-box intersection vectorizes exactly (comparisons only).
        mask = lo1[0] <= hi2[0]
        mask &= lo2[0] <= hi1[0]
        for k in range(1, len(lo1)):
            mask &= lo1[k] <= hi2[k]
            mask &= lo2[k] <= hi1[k]
        # Exact type only: a subclass may have a stricter leaf_test.
        return mask, type(self) is Overlap

    def __repr__(self) -> str:
        return "Overlap()"


class WithinDistance(JoinPredicate):
    """Distance join: pairs whose MBRs lie within ``distance`` of each
    other (Euclidean, between closest points).

    Equivalent to the window-transformation view of §5: inflating one side
    by ``distance`` and testing overlap.  ``distance = 0`` degenerates to
    :class:`Overlap`.
    """

    def __init__(self, distance: float):
        # Finite, too: an infinite sweep slack gives PBSM a grid of
        # infinite extent and NaN tile indices, and a NaN is not JSON —
        # the predicate spec is written into checkpoints.
        if not (math.isfinite(distance) and distance >= 0.0):
            raise ValueError("distance must be finite and >= 0")
        self.distance = distance

    def node_test(self, r1: Rect, r2: Rect) -> bool:
        return r1.min_distance(r2) <= self.distance

    def leaf_test(self, r1: Rect, r2: Rect) -> bool:
        return r1.min_distance(r2) <= self.distance

    def sweep_slack(self) -> float:
        # A pair within Euclidean distance d has per-axis gap <= d, so
        # slack d keeps every qualifying pair inside the sweep window.
        return self.distance

    def pair_mask(self, lo1, hi1, lo2, hi2):
        # exact=False: see the base docstring.  Two accumulated
        # comparisons per axis are the mask ``maximum(a, b) <= d`` is (a
        # NaN fails both) with half the temporaries alive.
        d = self.distance
        mask = (lo1[0] - hi2[0]) <= d
        mask &= (lo2[0] - hi1[0]) <= d
        for k in range(1, len(lo1)):
            mask &= (lo1[k] - hi2[k]) <= d
            mask &= (lo2[k] - hi1[k]) <= d
        return mask, False

    def confirm(self, lo1, hi1, lo2, hi2) -> list[bool]:
        # Exact type only: a subclass may have redefined leaf_test.
        if type(self) is not WithinDistance:
            return super().confirm(lo1, hi1, lo2, hi2)
        # Rect.min_distance bit for bit: ``-`` and ``max`` are exact,
        # and the sign of a zero gap is invisible to hypot.
        gaps = np.maximum(np.maximum(lo1 - hi2, lo2 - hi1), 0.0)
        d = self.distance
        # hypot is at least the largest gap, and 0 when every gap is.
        verdict = gaps.max(axis=0) <= d
        todo = np.flatnonzero(verdict & gaps.any(axis=0))
        if len(todo) and _TINY <= d <= _HUGE and len(gaps) <= 1000:
            # Gaps in [2^-500, d] square to normal floats, and the sum
            # of at most 1000 squares is within 1e-13 of hypot(*g)^2
            # (relative): outside a 1e-12 band around d^2 it decides.
            g = gaps.take(todo, axis=1)
            scaled = ((g >= _TINY) | (g == 0.0)).all(axis=0)
            squares = (g * g).sum(axis=0)
            inside = scaled & (squares < d * d * (1.0 - _BAND))
            outside = scaled & (squares > d * d * (1.0 + _BAND))
            verdict[todo[outside]] = False
            todo = todo[~(inside | outside)]
        hypot = math.hypot
        for t, g in zip(todo.tolist(), gaps.take(todo, axis=1).T.tolist()):
            verdict[t] = hypot(*g) <= d
        return verdict.tolist()

    def __repr__(self) -> str:
        return f"WithinDistance({self.distance})"


#: Shared default instance.
OVERLAP = Overlap()
