"""Spatial-join selectivity estimation (the §5 extension).

The paper's future-work section aims at "a formula that would estimate the
number of overlapping pairs of objects at the leaf level of the two
indexes ... for uniform and non-uniform distributions of data", building
on the range-query selectivity of [TS96].  The natural such formula
treats every object of one set as a query window over the other set —
the data-level analogue of Eq. 6::

    pairs(R1 join R2) = N1 * N2 * prod_k min(1, s̄1_k + s̄2_k)

with ``s̄i = (D_i / N_i)^(1/n)`` the average object extent.  This module
implements it, its normalized form (fraction of the Cartesian product),
the distance-join variant via the window transformation of
:mod:`.operators`, and — for the non-uniform half of the goal — the
local-density grid version: apply the formula per cell of a
:class:`~repro.datasets.LocalDensityGrid` overlay (rescaled to the cell)
and sum, exactly like the §4.2 cost correction.

The pairwise forms delegate to the :class:`~repro.estimator.Estimator`
facade (``Estimator(left, right).selectivity(distance)``); the batch
API (:func:`~repro.estimator.estimate_batch`) evaluates them vectorized.
"""

from __future__ import annotations

from ..datasets import LocalDensityGrid, SpatialDataset
from .params import AnalyticalTreeParams
from .range_query import intsect

__all__ = ["join_selectivity_pairs", "join_selectivity_fraction",
           "join_selectivity_pairs_grid"]


def join_selectivity_pairs(left: AnalyticalTreeParams,
                           right: AnalyticalTreeParams,
                           distance: float = 0.0) -> float:
    """Expected number of qualifying object pairs.

    ``distance > 0`` prices a within-distance join: by the window
    transformation, each pairwise test inflates the combined extent by
    ``2 * distance`` per dimension.
    """
    from ..estimator import Estimator
    return Estimator(left, right).selectivity(distance)


def join_selectivity_fraction(left: AnalyticalTreeParams,
                              right: AnalyticalTreeParams,
                              distance: float = 0.0) -> float:
    """Qualifying fraction of the Cartesian product ``N1 x N2``."""
    from ..estimator import Estimator
    return Estimator(left, right).selectivity_fraction(distance)


def join_selectivity_pairs_grid(left: SpatialDataset,
                                right: SpatialDataset,
                                resolution: int = 6,
                                distance: float = 0.0) -> float:
    """Non-uniform selectivity via the local-density grid (§4.2 style).

    Each grid cell is a rescaled uniform sub-problem: its share of each
    data set (``f_i * N_i`` objects of local density ``d_i``) joins
    within the cell; summing the per-cell uniform estimates captures the
    multiplication of local densities that the global formula misses on
    clustered data.  Cross-cell pairs are not counted (a mild
    underestimate for objects comparable to the cell size).

    ``distance`` is in workspace units and is rescaled into cell units
    internally.
    """
    if left.ndim != right.ndim:
        raise ValueError("dimensionality mismatch between the data sets")
    if distance < 0.0:
        raise ValueError("distance must be >= 0")
    ndim = left.ndim
    grid1 = LocalDensityGrid(left, resolution)
    grid2 = LocalDensityGrid(right, resolution)
    n1_total = left.cardinality
    n2_total = right.cardinality

    total = 0.0
    for (f1, d1), (f2, d2) in zip(grid1.cells(), grid2.cells()):
        n1 = f1 * n1_total
        n2 = f2 * n2_total
        if n1 <= 0.0 or n2 <= 0.0:
            continue
        s1 = (d1 / n1) ** (1.0 / ndim) if d1 > 0 else 0.0
        s2 = (d2 / n2) ** (1.0 / ndim) if d2 > 0 else 0.0
        window = (s2 + 2.0 * distance * resolution,) * ndim
        total += n2 * intsect(n1, (s1,) * ndim, window)
    return total
