"""Axis-aligned n-dimensional rectangles (minimum bounding rectangles).

``Rect`` is the single geometric primitive the whole library is built on:
R-tree entries, node MBRs, query windows, and data objects are all ``Rect``
instances.  Rectangles are *closed* boxes ``[lo_k, hi_k]`` per dimension and
are immutable: every combining operation returns a new rectangle.

The paper works in the unit workspace ``WS = [0, 1)^n``; rectangles are not
forced to lie inside it (node MBRs may exceed it transiently during tree
construction) but :mod:`repro.geometry.workspace` provides clamping helpers.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

__all__ = ["Rect"]


class Rect:
    """An immutable axis-aligned rectangle in n-dimensional space.

    Parameters
    ----------
    lo:
        Lower corner, one coordinate per dimension.
    hi:
        Upper corner.  Must satisfy ``hi[k] >= lo[k]`` for every ``k``
        (degenerate zero-extent rectangles — points, segments — are legal;
        they are exactly what 1-d interval data and line-segment MBRs are).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo = tuple(float(x) for x in lo)
        hi = tuple(float(x) for x in hi)
        if len(lo) != len(hi):
            raise ValueError(
                f"corner dimensionalities differ: {len(lo)} vs {len(hi)}"
            )
        if not lo:
            raise ValueError("rectangles must have at least one dimension")
        for k, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"non-finite coordinate in dimension {k}")
            if b < a:
                raise ValueError(
                    f"hi < lo in dimension {k}: [{a}, {b}] is inverted"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _trusted(cls, lo: tuple[float, ...],
                 hi: tuple[float, ...]) -> "Rect":
        """A rectangle from corner tuples that need no checking.

        For corners that are exact copies, or a per-axis ``min``/``max``,
        of already validated rectangles' float coordinates: equal-length
        tuples, finite, ``hi >= lo`` by construction.  Everything arriving
        from outside goes through ``Rect(...)``.
        """
        rect = object.__new__(cls)
        object.__setattr__(rect, "lo", lo)
        object.__setattr__(rect, "hi", hi)
        return rect

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_center(cls, center: Sequence[float],
                    extents: Sequence[float]) -> "Rect":
        """Build a rectangle from its center point and full side lengths."""
        if len(center) != len(extents):
            raise ValueError("center and extents dimensionalities differ")
        lo = [c - e / 2.0 for c, e in zip(center, extents)]
        hi = [c + e / 2.0 for c, e in zip(center, extents)]
        return cls(lo, hi)

    @classmethod
    def point(cls, coords: Sequence[float]) -> "Rect":
        """A degenerate rectangle covering a single point."""
        return cls(coords, coords)

    @classmethod
    def unit(cls, ndim: int) -> "Rect":
        """The unit workspace ``[0, 1]^ndim`` as a rectangle."""
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        return cls((0.0,) * ndim, (1.0,) * ndim)

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty collection."""
        rects = list(rects)
        if not rects:
            raise ValueError("cannot bound an empty collection")
        # min/max per axis over the transposed corners, at C level; the
        # first-seen value wins ties, as an explicit ``<`` scan would.
        try:
            lo = tuple(map(min, zip(*[r.lo for r in rects], strict=True)))
            hi = tuple(map(max, zip(*[r.hi for r in rects], strict=True)))
        except ValueError:
            raise ValueError("mixed dimensionalities in bounding()") from None
        return cls._trusted(lo, hi)

    # -- basic properties ----------------------------------------------------

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    @property
    def extents(self) -> tuple[float, ...]:
        """Side length per dimension."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def center(self) -> tuple[float, ...]:
        """Center point."""
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def area(self) -> float:
        """Product of extents (length for n=1, area for n=2, volume...)."""
        out = 1.0
        for a, b in zip(self.lo, self.hi):
            out *= (b - a)
        return out

    def margin(self) -> float:
        """Sum of extents (the R*-tree split criterion calls this margin)."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    # -- predicates ------------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True when the two closed boxes share at least a boundary point.

        This is the ``overlap`` predicate of the paper (the join condition
        of the SJ algorithm, line 04 of Figure 2).
        """
        self._check_same_ndim(other)
        for k in range(len(self.lo)):
            if self.lo[k] > other.hi[k] or other.lo[k] > self.hi[k]:
                return False
        return True

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        self._check_same_ndim(other)
        for k in range(len(self.lo)):
            if other.lo[k] < self.lo[k] or other.hi[k] > self.hi[k]:
                return False
        return True

    def contains_point(self, coords: Sequence[float]) -> bool:
        """True when the point lies inside the closed box."""
        if len(coords) != len(self.lo):
            raise ValueError("point dimensionality mismatch")
        return all(a <= x <= b
                   for a, x, b in zip(self.lo, coords, self.hi))

    # -- combining operations --------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of the two rectangles."""
        self._check_same_ndim(other)
        return Rect._trusted(tuple(map(min, self.lo, other.lo)),
                             tuple(map(max, self.hi, other.hi)))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap box, or ``None`` when the rectangles are disjoint."""
        self._check_same_ndim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(b < a for a, b in zip(lo, hi)):
            return None
        return Rect._trusted(lo, hi)

    def intersection_area(self, other: "Rect") -> float:
        """Area of the overlap box (0.0 when disjoint).

        Cheaper than ``intersection()`` when only the measure is needed —
        this is the hot call of the R*-tree overlap-enlargement criterion.
        """
        self._check_same_ndim(other)
        out = 1.0
        for k in range(len(self.lo)):
            side = min(self.hi[k], other.hi[k]) - max(self.lo[k], other.lo[k])
            if side <= 0.0:
                return 0.0
            out *= side
        return out

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).area() - self.area()

    def inflate(self, amount: float | Sequence[float]) -> "Rect":
        """Grow (or shrink, for negative amounts) every side symmetrically.

        Used by the query-window transformation for ``within_distance``
        joins: inflating by ``e`` turns an overlap test into a distance
        test.  Shrinking clamps each dimension at its center rather than
        producing an inverted box.
        """
        ndim = len(self.lo)
        if isinstance(amount, (int, float)):
            amounts = (float(amount),) * ndim
        else:
            amounts = tuple(float(a) for a in amount)
            if len(amounts) != ndim:
                raise ValueError("amount dimensionality mismatch")
        lo = []
        hi = []
        for k in range(ndim):
            a = self.lo[k] - amounts[k]
            b = self.hi[k] + amounts[k]
            if b < a:  # over-shrunk: collapse to the center point
                c = (self.lo[k] + self.hi[k]) / 2.0
                a = b = c
            lo.append(a)
            hi.append(b)
        return Rect(lo, hi)

    def translate(self, offset: Sequence[float]) -> "Rect":
        """Shift the rectangle by a per-dimension offset."""
        if len(offset) != len(self.lo):
            raise ValueError("offset dimensionality mismatch")
        lo = tuple(a + d for a, d in zip(self.lo, offset))
        hi = tuple(b + d for b, d in zip(self.hi, offset))
        return Rect(lo, hi)

    def min_distance(self, other: "Rect") -> float:
        """Euclidean distance between the closest points of the two boxes.

        Zero when they intersect.  ``math.hypot`` keeps tiny per-axis
        gaps from underflowing to zero when squared, so the result is
        positive exactly when the boxes are disjoint.
        """
        self._check_same_ndim(other)
        gaps = [max(self.lo[k] - other.hi[k],
                    other.lo[k] - self.hi[k], 0.0)
                for k in range(len(self.lo))]
        return math.hypot(*gaps)

    # -- plumbing ---------------------------------------------------------------

    def _check_same_ndim(self, other: "Rect") -> None:
        if len(self.lo) != len(other.lo):
            raise ValueError(
                f"dimensionality mismatch: {len(self.lo)} vs {len(other.lo)}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """Iterate ``(lo_k, hi_k)`` pairs per dimension."""
        return iter(zip(self.lo, self.hi))

    def __repr__(self) -> str:
        spans = ", ".join(f"[{a:g}, {b:g}]" for a, b in zip(self.lo, self.hi))
        return f"Rect({spans})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    # The immutability guard above breaks default slot pickling (it
    # restores state via setattr), so spell the round-trip out; the
    # process-parallel join ships whole trees to worker processes.
    def __getstate__(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (self.lo, self.hi)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "lo", state[0])
        object.__setattr__(self, "hi", state[1])
