"""Columnar (struct-of-arrays) MBR views and the ChooseSubtree kernel.

The SJ traversal's hot operation is testing every entry pair of two
joined nodes against the overlap (or within-distance) condition.  As a
list of :class:`~repro.geometry.rect.Rect` objects, one ``|n1| x |n2|``
block costs thousands of Python-level attribute lookups and tuple
comparisons.  A :class:`ColumnarMBRs` holds the same rectangles as two
NumPy coordinate arrays, so a whole block evaluates in a handful of
array operations ("SIMD-ified R-tree Query Processing", see PAPERS.md);
the kernel that tests it is the join predicate's
(:meth:`repro.join.JoinPredicate.pair_mask`).

There is one columnar copy of a tree — its
:class:`~repro.geometry.TreeArena` — and a :class:`ColumnarMBRs` is a
zero-copy view of one node's run in it (:meth:`TreeArena.slice`).

:func:`least_overlap_enlargement` is **exact**: it answers what the
scalar :class:`Rect` code answers, bit for bit, because only operations
that IEEE 754 defines elementwise are vectorized and every
order-dependent step keeps the scalar's order.

* It uses ``<=``, ``-``, ``*``, ``minimum`` and ``maximum`` on float64,
  each bit-equal to the scalar operation (the sign of a
  zero may differ; no comparison sees it).  Areas multiply the sides in
  dimension order — the scalar's leading ``1.0 *`` is exact.  An
  intersection with ``side <= 0`` on any axis is ``0.0`` through a
  mask, never through a product.  The diagonal ``j == i`` the scalar
  skips is set to ``+0.0``.  The sum over the siblings ``j`` is a
  **left fold in index order** (``cumsum``): ``ndarray.sum`` and
  ``np.add.reduce`` add pairwise over a contiguous axis, which differs
  in the last bit, flips a tie-break and so builds another tree.
* A choice among candidates is :func:`first_least`, for the kernel and
  for every scalar loop it stands in for.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnarMBRs", "first_least", "least_overlap_enlargement"]

_INF = float("inf")


class ColumnarMBRs:
    """A struct-of-arrays view of a fixed sequence of rectangles.

    ``lo`` and ``hi`` are ``(count, ndim)`` float64 NumPy arrays (views
    into the owning arena's block).  Instances are immutable snapshots
    — staleness is the arena owner's job (see
    :meth:`repro.rtree.RTreeBase.arena`).
    """

    __slots__ = ("count", "ndim", "lo", "hi")

    def __init__(self, count: int, ndim: int, lo, hi):
        self.count = count
        self.ndim = ndim
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"ColumnarMBRs(count={self.count}, ndim={self.ndim})"


def first_least(keys: list) -> int:
    """Index of the first least key (floats, or equal-length tuples of
    floats compared most significant first).

    The scan is seeded from the first candidate and replaces it only by
    a strictly smaller one, so ties go to the earliest index and a key
    that cannot be ordered — a NaN from ``inf - inf``, when a finite
    rectangle's area overflows — never displaces the incumbent: every
    non-empty candidate list has an answer in range.
    """
    return min(range(len(keys)), key=keys.__getitem__)


def least_overlap_enlargement(lo, hi, rect_lo, rect_hi) -> int:
    """R*-tree ChooseSubtree above the leaves, one node in one pass.

    ``lo``/``hi`` are one node's ``(n, ndim)`` entry corners and
    ``rect_lo``/``rect_hi`` the corners of the rectangle being
    inserted.  Returns the first index minimising ``(overlap
    enlargement, area enlargement, area)`` [BKSS90 §4.1] — the index the
    scalar loop over ``Rect.union``/``intersection_area``/``area``
    returns, by the module's exactness contract — in O(n^2) array
    elements instead of O(n^2) Python calls.
    """
    lo_t, hi_t = lo.T, hi.T
    ndim, n = lo_t.shape
    # Axis k of entry i as it stands at [k, 0, i] and grown to hold the
    # rectangle at [k, 1, i]: min/max against +-inf is the identity.
    both_lo = np.minimum(
        lo_t[:, None, :],
        np.array([(_INF, x) for x in rect_lo])[:, :, None])
    both_hi = np.maximum(
        hi_t[:, None, :],
        np.array([(-_INF, x) for x in rect_hi])[:, :, None])
    # side[k, g, i, j]: extent on axis k of (entry i, grown or not) with
    # sibling j as it stands.
    side = np.minimum(both_hi[:, :, :, None], hi_t[:, None, None, :])
    side -= np.maximum(both_lo[:, :, :, None], lo_t[:, None, None, :])
    disjoint = (side <= 0.0).any(axis=0)
    extent = both_hi - both_lo
    overlap, area = side[0], extent[0]
    # Overflowing products are inf, as the scalar's are; a masked-out
    # inf * 0 is not an event worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, ndim):
            overlap *= side[k]
            area *= extent[k]
        np.putmask(overlap, disjoint, 0.0)
        growth = np.subtract(overlap[1], overlap[0], out=overlap[1])
        growth.flat[::n + 1] = 0.0
        delta = growth.cumsum(axis=1)[:, -1]
        enlargement = area[1] - area[0]
    return first_least(list(zip(delta.tolist(), enlargement.tolist(),
                                area[0].tolist())))
