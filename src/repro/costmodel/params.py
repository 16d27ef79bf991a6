"""Analytical R-tree parameters from primitive data properties (Eqs. 2-5).

The heart of the TS96 model: given only the cardinality ``N`` and density
``D`` of a data set (plus the structural constants ``M`` and ``c``), derive
for every tree level ``j``:

* the height ``h``                       (Eq. 2),
* the number of nodes ``N_j``            (Eq. 3),
* the node-rectangle density ``D_j``     (Eq. 5, propagated from ``D``),
* the average node extent ``s_{j,k}``    (Eq. 4, square nodes assumed).

Levels are numbered as in the paper: leaves at ``j = 1``, root at
``j = h``.  The cost formulas only ever consume levels ``1 .. h-1`` (the
root is pinned); :meth:`AnalyticalTreeParams.extents_at` additionally
answers for the root level because the DA model needs a "parent of the top
stage", which is the root — represented as one node covering the whole
workspace.

:class:`MeasuredTreeParams` exposes the same interface from a *built*
tree's real structure, enabling the model-vs-measurement attribution
experiments (how much error comes from Eqs. 2-5 vs from Eqs. 6-12).
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Protocol, Sequence

from ..datasets import SpatialDataset
from ..reliability import ModelDomainError
from ..rtree import RTreeBase

__all__ = [
    "TreeParams",
    "AnalyticalTreeParams",
    "MeasuredTreeParams",
    "DEFAULT_FILL",
    "rtree_height",
    "check_model_params",
]

#: The paper's "typical" average node utilisation, c = 67%.
DEFAULT_FILL = 0.67


def rtree_height(n_objects: int, max_entries: int,
                 fill: float = DEFAULT_FILL) -> int:
    """Eq. 2: ``h = 1 + ceil(log_{cM}(N / (cM)))``.

    Degenerate cases follow the R-tree's actual behaviour: anything that
    fits an average root (``N <= cM``) has height 1.
    """
    if not isinstance(n_objects, int) or isinstance(n_objects, bool):
        raise ModelDomainError(
            f"n_objects must be an integer, got {n_objects!r}")
    if n_objects < 0:
        raise ModelDomainError("n_objects must be >= 0")
    _check_structure(max_entries, fill)
    return height_from_fanout(n_objects, fill * max_entries)


# The scalar Eq. 2/4/5 expressions.  AnalyticalTreeParams evaluates them
# per tree; the batch estimator maps the same functions over whole
# columns, so both paths agree bit for bit by construction.  They check
# nothing: callers validate their arguments first.

def height_from_fanout(n_objects: int, cm: float) -> int:
    """Eq. 2 for the average fan-out ``cm = c * M``."""
    if n_objects <= cm:
        return 1
    return 1 + math.ceil(math.log(n_objects / cm, cm))


def level_nodes(n_objects: int, cm: float, level: int) -> float:
    """Eq. 3: ``N_j = N / (cM)^j`` (real-valued, as in the model)."""
    return n_objects / cm ** level


def propagate_density(d_prev: float, cm: float, ndim: int) -> float:
    """Eq. 5: density of level-j node rects from level j-1."""
    return (1.0 + (d_prev ** (1.0 / ndim) - 1.0) / cm ** (1.0 / ndim)) ** ndim


def side_from_ratio(ratio: float, ndim: int) -> float:
    """Eq. 4 before the clamp to 1: the side ``(D / N)^(1/n)``."""
    return ratio ** (1.0 / ndim)


class TreeParams(Protocol):
    """What the cost formulas need to know about one indexed data set."""

    ndim: int
    height: int

    def nodes_at(self, level: int) -> float:
        """(Expected) number of nodes at ``level``."""
        ...

    def extents_at(self, level: int) -> tuple[float, ...]:
        """(Expected) node MBR side length per dimension at ``level``."""
        ...


class AnalyticalTreeParams:
    """Eqs. 2-5 evaluated from ``(N, D)`` — no tree required.

    Parameters
    ----------
    n_objects, density:
        The primitive data properties ``N`` and ``D``.
    max_entries:
        Node capacity ``M``.
    ndim:
        Dimensionality ``n``.
    fill:
        Average node utilisation ``c`` (default 67%).
    """

    def __init__(self, n_objects: int, density: float, max_entries: int,
                 ndim: int, fill: float = DEFAULT_FILL,
                 height: int | None = None):
        if not isinstance(n_objects, int) or isinstance(n_objects, bool):
            raise ModelDomainError(
                f"n_objects must be an integer, got {n_objects!r}")
        if n_objects < 0:
            raise ModelDomainError("n_objects must be >= 0")
        if not math.isfinite(density):
            raise ModelDomainError(
                f"density must be finite, got {density!r}")
        if density < 0.0:
            raise ModelDomainError("density must be >= 0")
        if ndim < 1:
            raise ModelDomainError("ndim must be >= 1")
        _check_structure(max_entries, fill)

        self.n_objects = n_objects
        self.density = density
        self.max_entries = max_entries
        self.ndim = ndim
        self.fill = fill
        if height is None:
            self.height = rtree_height(n_objects, max_entries, fill)
        else:
            # Used by the non-uniform grid model: a cell's slice of a
            # global index inherits the *global* traversal depth even when
            # its own population would build a shorter tree.
            if height < 1:
                raise ValueError("height must be >= 1")
            self.height = height
        # Propagate node densities D_1 .. D_h once (Eq. 5).
        cm = fill * max_entries
        self._level_density = [density]
        for _ in range(self.height):
            self._level_density.append(
                propagate_density(self._level_density[-1], cm, ndim))

    @classmethod
    def from_dataset(cls, dataset: SpatialDataset, max_entries: int,
                     fill: float = DEFAULT_FILL) -> "AnalyticalTreeParams":
        """Read ``N`` and ``D`` off a concrete data set."""
        return cls(dataset.cardinality, dataset.density(), max_entries,
                   dataset.ndim, fill)

    def nodes_at(self, level: int) -> float:
        """Eq. 3: ``N_j = N / (cM)^j`` (real-valued, as in the model)."""
        self._check_level(level)
        if level >= self.height:
            return 1.0  # the root
        return level_nodes(self.n_objects, self.fill * self.max_entries,
                           level)

    def density_at(self, level: int) -> float:
        """Eq. 5 result; ``density_at(0)`` is the data density itself."""
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} outside [0, {self.height}]")
        return self._level_density[level]

    def extents_at(self, level: int) -> tuple[float, ...]:
        """Eq. 4: ``s_{j,k} = (D_j / N_j)^(1/n)``, equal for every k.

        The root level answers the whole workspace — a single node whose
        rectangle effectively covers everything — which is what the DA
        model's "parent of the top stage" needs.
        """
        self._check_level(level)
        if level >= self.height:
            return (1.0,) * self.ndim
        nodes = self.nodes_at(level)
        if nodes <= 0.0:
            return (0.0,) * self.ndim
        side = side_from_ratio(self._level_density[level] / nodes,
                               self.ndim)
        return (min(side, 1.0),) * self.ndim

    def average_object_extents(self) -> tuple[float, ...]:
        """Average *data* rectangle side, ``(D/N)^(1/n)`` (level 0).

        Used by the selectivity model (§5).
        """
        if self.n_objects == 0:
            return (0.0,) * self.ndim
        side = side_from_ratio(self.density / self.n_objects, self.ndim)
        return (min(side, 1.0),) * self.ndim

    def _check_level(self, level: int) -> None:
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")

    def __repr__(self) -> str:
        return (f"AnalyticalTreeParams(N={self.n_objects}, "
                f"D={self.density:.3f}, M={self.max_entries}, "
                f"n={self.ndim}, c={self.fill}, h={self.height})")


class MeasuredTreeParams:
    """The same interface, read from a built tree's actual structure.

    Plugging this into the join formulas isolates the error contributed by
    the structural estimates (Eqs. 2-5) from the error of the join-cost
    reasoning itself (Eqs. 6-12).
    """

    def __init__(self, tree: RTreeBase):
        self.ndim = tree.ndim
        self.height = tree.height
        stats = tree.level_stats()
        self._nodes: dict[int, float] = {}
        self._extents: dict[int, tuple[float, ...]] = {}
        for level, s in stats.items():
            self._nodes[level] = float(s.count)
            self._extents[level] = s.avg_extents

    def nodes_at(self, level: int) -> float:
        if level >= self.height:
            return 1.0
        return self._nodes.get(level, 0.0)

    def extents_at(self, level: int) -> tuple[float, ...]:
        if level >= self.height:
            return (1.0,) * self.ndim
        return self._extents.get(level, (0.0,) * self.ndim)

    def __repr__(self) -> str:
        return (f"MeasuredTreeParams(h={self.height}, "
                f"levels={sorted(self._nodes)})")


def check_model_params(*params: TreeParams) -> None:
    """Domain guard shared by the Eq. 1/6/7 (and DA) entry points.

    Rejects parameter objects the closed-form formulas cannot price:
    empty data sets (``N < 1``), non-positive heights, and structures
    whose per-level node counts or extents come out non-finite (the
    visible symptom of NaN/inf creeping into ``N`` or ``D``).  Raising
    :class:`~repro.reliability.ModelDomainError` here replaces the old
    behaviour of silently returning NaN estimates.
    """
    for p in params:
        n_objects = getattr(p, "n_objects", None)
        if n_objects is not None and n_objects < 1:
            raise ModelDomainError(
                f"cost formulas need N >= 1, got N={n_objects} ({p!r})")
        if not isinstance(p.height, int) or p.height < 1:
            raise ModelDomainError(
                f"height must be a positive integer, got {p.height!r}")
        for level in range(1, p.height + 1):
            if not math.isfinite(p.nodes_at(level)):
                raise ModelDomainError(
                    f"non-finite node count at level {level} of {p!r}")
            if not all(math.isfinite(s) for s in p.extents_at(level)):
                raise ModelDomainError(
                    f"non-finite node extent at level {level} of {p!r}")


def is_integer(value) -> bool:
    """An integer in the model's sense: any ``Integral`` (NumPy's too),
    never a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_structure(max_entries: int, fill: float) -> None:
    if not is_integer(max_entries):
        raise ModelDomainError(
            f"max_entries must be an integer, got {max_entries!r}")
    if max_entries < 2:
        raise ModelDomainError("max_entries must be >= 2")
    if not isinstance(fill, (int, float)) or not math.isfinite(fill):
        raise ModelDomainError(f"fill must be finite, got {fill!r}")
    if not 0.0 < fill <= 1.0:
        raise ModelDomainError("fill must be in (0, 1]")
    if fill * max_entries <= 1.0:
        raise ModelDomainError("average fan-out c*M must exceed 1")
