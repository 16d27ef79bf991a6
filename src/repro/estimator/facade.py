"""The unified estimation facade.

Historically the cost model grew one free function per question —
``join_na_total``, ``join_da_total``, ``join_da_by_tree``,
``join_selectivity_pairs``, ``range_query_na`` — each taking the same
pair of parameter objects.  :class:`Estimator` consolidates them: build
it once for a (left, right) pair and ask for ``.na()``, ``.da()``,
``.selectivity()``, ``.breakdown()`` or ``.range_na(window)``.  The old
free functions remain importable and now delegate here, so either
spelling returns the same floats.

Construction is cheap (no estimation happens until a method is called)
and the classmethods cover the common sources:

* :meth:`Estimator.from_stats` — raw catalog numbers, memoized through
  :func:`~repro.estimator.cache.cached_params`;
* :meth:`Estimator.from_datasets` — measured primitive properties of
  concrete data sets;
* :meth:`Estimator.from_trees` — built trees (cardinality and summed
  leaf area read without a single metered page access), the admission
  control path.

For grids, use :func:`~repro.estimator.batch.estimate_batch` — the same
numbers, thousands of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..costmodel.join_da import (MIXED_HEIGHT_MODES, StageCost,
                                 join_da_breakdown)
from ..costmodel.join_na import join_na_breakdown
from ..costmodel.params import (DEFAULT_FILL, TreeParams,
                                check_model_params)
from ..costmodel.range_query import intsect
from .cache import ParamCache, cached_params

__all__ = ["Estimator", "Estimate", "EstimateBreakdown"]


@dataclass(frozen=True)
class Estimate:
    """Every headline number of one (left, right) pair."""

    na: float
    da: float
    da_swapped: float
    selectivity: float
    height_left: int
    height_right: int

    def as_dict(self) -> dict:
        return {"na": self.na, "da": self.da,
                "da_swapped": self.da_swapped,
                "selectivity": self.selectivity,
                "height_left": self.height_left,
                "height_right": self.height_right}


@dataclass(frozen=True)
class EstimateBreakdown:
    """Per-stage attribution of the NA and DA predictions."""

    na_stages: list[StageCost]
    da_stages: list[StageCost]

    @property
    def na_total(self) -> float:
        return sum(c.total for c in self.na_stages)

    @property
    def da_total(self) -> float:
        return sum(c.total for c in self.da_stages)

    @property
    def da_by_tree(self) -> tuple[float, float]:
        return (sum(c.cost1 for c in self.da_stages),
                sum(c.cost2 for c in self.da_stages))


class Estimator:
    """Cost/selectivity estimates for one (left, right) tree pair.

    ``left`` plays R1 (the data tree, inner loop), ``right`` R2 (the
    query tree, outer loop) — the role assignment the DA model is
    sensitive to.  ``right`` may be omitted for range-query-only use.

    Any :class:`~repro.costmodel.TreeParams` implementation works:
    analytical (Eqs. 2-5), measured, or fractal.
    """

    def __init__(self, left: TreeParams, right: TreeParams | None = None,
                 *, mixed_height_mode: str = "traversal"):
        if mixed_height_mode not in MIXED_HEIGHT_MODES:
            raise ValueError(
                f"mixed_height_mode must be one of {MIXED_HEIGHT_MODES}")
        if right is not None and left.ndim != right.ndim:
            raise ValueError(
                "dimensionality mismatch between the data sets")
        self.left = left
        self.right = right
        self.mixed_height_mode = mixed_height_mode

    # -- construction --------------------------------------------------------

    @classmethod
    def from_stats(cls, n1: int, d1: float, n2: int, d2: float,
                   max_entries: int, ndim: int = 2,
                   fill: float = DEFAULT_FILL,
                   cache: ParamCache | None = None,
                   mixed_height_mode: str = "traversal") -> "Estimator":
        """From raw catalog statistics, memoized per distinct tree."""
        get = cache.get if cache is not None else cached_params
        return cls(get(n1, d1, max_entries, ndim, fill),
                   get(n2, d2, max_entries, ndim, fill),
                   mixed_height_mode=mixed_height_mode)

    @classmethod
    def from_datasets(cls, left: Any, right: Any, max_entries: int,
                      fill: float = DEFAULT_FILL,
                      cache: ParamCache | None = None) -> "Estimator":
        """From two :class:`~repro.datasets.SpatialDataset` objects."""
        return cls.from_stats(
            left.cardinality, left.density(),
            right.cardinality, right.density(),
            max_entries, left.ndim, fill, cache=cache)

    @classmethod
    def from_trees(cls, left: Any, right: Any,
                   fill: float = DEFAULT_FILL) -> "Estimator":
        """From built trees, via catalog-style statistics only.

        Reads each tree's cardinality and summed leaf-rectangle area
        (the density ``D``) without a metered page access — exactly what
        admission control may consult before any page read — through
        :func:`repro.exec.tree_params`, which remembers them with the
        tree.  The trees' actual ``M`` may differ, so parameters are
        derived per side.
        """
        from ..exec.governor import tree_params   # exec imports estimator
        return cls(tree_params(left, fill), tree_params(right, fill))

    # -- estimates -----------------------------------------------------------

    def na(self) -> float:
        """Eqs. 7/11: expected node accesses (role-symmetric)."""
        check_model_params(*self._both())
        return sum(c.total for c in
                   join_na_breakdown(self.left, self._right()))

    def da(self) -> float:
        """Eqs. 10/12: expected disk accesses under a path buffer."""
        check_model_params(*self._both())
        return sum(c.total for c in join_da_breakdown(
            self.left, self._right(), self.mixed_height_mode))

    def da_by_tree(self) -> tuple[float, float]:
        """``(DA_R1, DA_R2)`` — the per-tree split of §4.1."""
        breakdown = join_da_breakdown(self.left, self._right(),
                                      self.mixed_height_mode)
        return (sum(c.cost1 for c in breakdown),
                sum(c.cost2 for c in breakdown))

    def selectivity(self, distance: float = 0.0) -> float:
        """§5: expected number of qualifying object pairs."""
        if distance < 0.0:
            raise ValueError("distance must be >= 0")
        left, right = self.left, self._right()
        s1 = left.average_object_extents()
        s2 = right.average_object_extents()
        window = tuple(b + 2.0 * distance for b in s2)
        return right.n_objects * intsect(left.n_objects, s1, window)

    def selectivity_fraction(self, distance: float = 0.0) -> float:
        """Qualifying fraction of the Cartesian product."""
        total = self.left.n_objects * self._right().n_objects
        if total == 0:
            return 0.0
        return self.selectivity(distance) / total

    def range_na(self, window: Sequence[float]) -> float:
        """Eq. 1: range-query node accesses over the *left* tree."""
        if len(window) != self.left.ndim:
            raise ValueError(
                f"window has {len(window)} dims, tree has "
                f"{self.left.ndim}")
        check_model_params(self.left)
        total = 0.0
        for level in range(1, self.left.height):
            total += intsect(self.left.nodes_at(level),
                             self.left.extents_at(level), window)
        return total

    def breakdown(self) -> EstimateBreakdown:
        """Per-stage NA and DA attribution."""
        check_model_params(*self._both())
        right = self._right()
        return EstimateBreakdown(
            na_stages=join_na_breakdown(self.left, right),
            da_stages=join_da_breakdown(self.left, right,
                                        self.mixed_height_mode))

    def estimate(self, distance: float = 0.0) -> Estimate:
        """All headline numbers at once (both DA role assignments)."""
        return Estimate(
            na=self.na(), da=self.da(),
            da_swapped=self.swapped().da(),
            selectivity=self.selectivity(distance),
            height_left=self.left.height,
            height_right=self._right().height)

    def swapped(self) -> "Estimator":
        """The opposite role assignment (right as data, left as query)."""
        return Estimator(self._right(), self.left,
                         mixed_height_mode=self.mixed_height_mode)

    # -- plumbing ------------------------------------------------------------

    def _right(self) -> TreeParams:
        if self.right is None:
            raise ValueError(
                "this Estimator was built without a right side; join "
                "estimates need both trees")
        return self.right

    def _both(self) -> tuple[TreeParams, ...]:
        return (self.left, self._right())

    def __repr__(self) -> str:
        return (f"Estimator({self.left!r}, {self.right!r}, "
                f"mixed_height_mode={self.mixed_height_mode!r})")
