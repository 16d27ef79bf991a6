"""Columnar (struct-of-arrays) MBR views and batched box kernels.

The SJ traversal's hot operation is testing every entry pair of two
joined nodes against the overlap (or within-distance) condition.  As a
list of :class:`~repro.geometry.rect.Rect` objects, one ``|n1| x |n2|``
block costs thousands of Python-level attribute lookups and tuple
comparisons.  A :class:`ColumnarMBRs` holds the same rectangles as two
NumPy coordinate arrays, so a whole block evaluates in a handful of
array operations ("SIMD-ified R-tree Query Processing", see PAPERS.md).

There is one columnar copy of a tree — its
:class:`~repro.geometry.TreeArena` — and a :class:`ColumnarMBRs` is a
zero-copy view of one node's run in it (:meth:`TreeArena.slice`).
Columnar therefore means NumPy: a host without it has no arena and runs
the scalar predicates over the ``Rect`` objects.

The kernels are **comparison-exact**: only IEEE-exact operations
(``<=`` and ``-`` on float64) are vectorized, so a batched kernel
qualifies exactly the pairs the scalar :class:`Rect` predicates
qualify, bit for bit.  The within-distance kernel therefore only
*prefilters* (per-axis gaps are exact; the Euclidean norm is not) and
the caller confirms candidates with the scalar ``math.hypot`` test.

Index pairs are emitted in the paper's loop order — outer R2 (``j``),
inner R1 (``i``) — so a traversal that fetches children per qualifying
pair issues the exact same ``ReadPage`` sequence as the Figure-2 nested
loops.
"""

from __future__ import annotations

__all__ = ["ColumnarMBRs", "overlap_pairs", "distance_candidate_pairs"]


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


def _check_pairable(a: ColumnarMBRs, b: ColumnarMBRs) -> None:
    if a.ndim != b.ndim:
        raise ValueError(
            f"dimensionality mismatch: {a.ndim} vs {b.ndim}")


def overlap_pairs(a: ColumnarMBRs, b: ColumnarMBRs,
                  ) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of intersecting boxes, in j-major order.

    Exact: closed-box intersection uses only ``<=`` comparisons, so the
    result equals ``{(i, j) | a[i].intersects(b[j])}``, emitted
    outer-``j`` (R2), inner-``i`` (R1) — the paper's Figure-2 loop
    order.
    """
    _check_pairable(a, b)
    # Per-axis 2-D masks, accumulated in place: an order of magnitude
    # cheaper than one (|a|, |b|, ndim) broadcast with an
    # ``.all(axis=2)`` reduction.  Shape (|b|, |a|) — row-major nonzero
    # is then already j-major.
    mask = None
    for k in range(a.ndim):
        axis = ((a.lo[:, k][None, :] <= b.hi[:, k][:, None])
                & (b.lo[:, k][:, None] <= a.hi[:, k][None, :]))
        if mask is None:
            mask = axis
        else:
            mask &= axis
    jj, ii = mask.nonzero()
    return list(zip(ii.tolist(), jj.tolist()))


def distance_candidate_pairs(a: ColumnarMBRs, b: ColumnarMBRs,
                             distance: float) -> list[tuple[int, int]]:
    """Candidate ``(i, j)`` pairs for a within-distance join, j-major.

    A **superset** of the qualifying pairs: it keeps exactly those whose
    per-axis gap is at most ``distance`` on every axis (a necessary
    condition, since each axis gap bounds the Euclidean gap from below).
    The per-axis test uses only exact float64 subtraction/comparison;
    callers confirm with the scalar ``math.hypot`` predicate to stay
    bit-identical to the nested-loop reference.
    """
    _check_pairable(a, b)
    if distance < 0.0:
        raise ValueError("distance must be >= 0")
    mask = None
    for k in range(a.ndim):
        axis = ((a.lo[:, k][None, :] - b.hi[:, k][:, None]
                 <= distance)
                & (b.lo[:, k][:, None] - a.hi[:, k][None, :]
                   <= distance))
        if mask is None:
            mask = axis
        else:
            mask &= axis
    jj, ii = mask.nonzero()
    return list(zip(ii.tolist(), jj.tolist()))
