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
  zero may differ; no comparison sees it).  Overlaps multiply the sides
  in dimension order — the scalar's leading ``1.0 *`` is exact.  An
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

from functools import reduce
from itertools import chain

import numpy as np

__all__ = ["ColumnarMBRs", "first_least", "least_overlap_enlargement",
           "segment_bounds"]

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


def segment_bounds(coords, starts):
    """The MBR of each run of rectangles, ``Rect.bounding`` bit for bit.

    ``coords`` is a ``(2, ndim, n)`` float64 corner block (lo block,
    then hi block, like an arena's) and ``starts`` the ascending first
    slots of its runs, the first ``0``, none empty.  Returns the runs'
    MBRs as a ``(2, ndim, len(starts))`` block.

    ``np.minimum.reduceat`` finds each minimum's value but not its
    bits: ``min`` keeps the first of equal values, and among finite
    floats only ``-0.0 == 0.0`` are equal with other bits.  So a run
    whose minimum (maximum) is zero takes the bits of its first zero.
    """
    ndim, runs = coords.shape[1], len(starts)
    out = np.empty((2, ndim, runs))
    out[0] = np.minimum.reduceat(coords[0], starts, axis=1)
    out[1] = np.maximum.reduceat(coords[1], starts, axis=1)
    corner, dim, slot = np.nonzero(coords == 0.0)
    if len(slot):
        run = np.searchsorted(starts, slot, side="right") - 1
        # ``nonzero`` walks C order, so the keys ascend and the first
        # of each key is its run's first zero at that corner and axis.
        key = (corner * ndim + dim) * runs + run
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        corner, dim, run, slot = (corner[first], dim[first], run[first],
                                  slot[first])
        tie = out[corner, dim, run] == 0.0
        out[corner[tie], dim[tie], run[tie]] = \
            coords[corner[tie], dim[tie], slot[tie]]
    return out


def least_overlap_enlargement(rects, rect, keys) -> int:
    """R*-tree ChooseSubtree above the leaves, one node in one pass.

    ``rects`` are one node's entry rectangles, ``rect`` the one being
    inserted and ``keys`` each entry's ``(area enlargement, area)``.
    Returns the first index minimising ``(overlap enlargement, area
    enlargement, area)`` [BKSS90 §4.1], the scalar loop's answer by the
    module's exactness contract, in O(n^2) array elements.
    """
    n, ndim = len(rects), len(rect.lo)
    lo_t, hi_t = np.fromiter(
        chain.from_iterable([r.lo + r.hi for r in rects]), float,
        2 * ndim * n).reshape(n, 2, ndim).transpose(1, 2, 0)
    # Axis k of entry i as it stands at [k, 0, i] and grown to hold the
    # rectangle at [k, 1, i]: min/max against +-inf is the identity.
    both_lo = np.minimum(lo_t[:, None, :], np.array(
        [(_INF, x) for x in rect.lo])[:, :, None])
    both_hi = np.maximum(hi_t[:, None, :], np.array(
        [(-_INF, x) for x in rect.hi])[:, :, None])
    # side[k, g, i, j]: extent on axis k of (entry i, grown or not)
    # with sibling j as it stands.  Overflowing products are inf, as the
    # scalar's are; a masked-out inf * 0 is not an event worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        side = np.minimum(both_hi[:, :, :, None], hi_t[:, None, None, :])
        side -= np.maximum(both_lo[:, :, :, None], lo_t[:, None, None, :])
        overlap = reduce(np.multiply, side)
        np.putmask(overlap, np.logical_or.reduce(side <= 0.0), 0.0)
        growth = np.subtract(overlap[1], overlap[0], out=overlap[1])
        growth.flat[::n + 1] = 0.0
        delta = growth.cumsum(axis=1)[:, -1]
    return first_least([(d,) + key for d, key in zip(delta.tolist(), keys)])
