"""Batch cost estimation: thousands of model evaluations in one call.

:func:`estimate_batch` accepts a sequence of :class:`EstimateRequest`
rows — each one a complete ``(N1, D1, N2, D2, M, ndim, fill, window)``
description of a candidate join — and returns a :class:`BatchResult`
with NA / DA (both role assignments) / selectivity predictions for every
row.  The Eq. 2-5 level tables are derived a column at a time from the
scalar formulas, and the whole grid is then evaluated by the vectorized
kernels of :mod:`~repro.estimator.kernels`; the property tests assert
every result equals the scalar reference formulas' bit for bit.

Requests are validated up front with the same domain rules as
:func:`~repro.costmodel.check_model_params`; a bad row raises
:class:`~repro.reliability.ModelDomainError` naming its index, and no
partial results are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import truediv
from typing import Iterable, Sequence

import numpy as np

from ..costmodel.params import (DEFAULT_FILL, height_from_fanout,
                                is_integer, level_nodes,
                                propagate_density, side_from_ratio)
from ..reliability import ModelDomainError
from .kernels import join_kernel, range_na_kernel, selectivity_kernel

__all__ = ["EstimateRequest", "BatchResult", "estimate_batch",
           "range_na_batch"]


@dataclass(frozen=True)
class EstimateRequest:
    """One grid point of the batch estimator.

    ``max_entries`` and ``fill`` describe both trees unless the
    ``*_right`` overrides are given; ``window`` (a per-dimension tuple,
    or one float used for every dimension) additionally requests the
    Eq. 1 range-query NA over the *left* tree; ``distance`` prices a
    within-distance join in the selectivity output.
    """

    n1: int
    d1: float
    n2: int
    d2: float
    max_entries: int = 50
    ndim: int = 2
    fill: float = DEFAULT_FILL
    max_entries_right: int | None = None
    fill_right: float | None = None
    distance: float = 0.0
    window: tuple[float, ...] | float | None = None
    label: str | None = None

    @property
    def m_left(self) -> int:
        return self.max_entries

    @property
    def m_right(self) -> int:
        return (self.max_entries if self.max_entries_right is None
                else self.max_entries_right)

    @property
    def fill_left(self) -> float:
        return self.fill

    @property
    def fill_right_(self) -> float:
        return self.fill if self.fill_right is None else self.fill_right

    def window_tuple(self) -> tuple[float, ...] | None:
        """The query window as an ``ndim``-tuple (or ``None``)."""
        if self.window is None:
            return None
        if isinstance(self.window, (int, float)):
            return (float(self.window),) * self.ndim
        return tuple(float(q) for q in self.window)

    @classmethod
    def from_dict(cls, record: dict, index: int | None = None,
                  ) -> "EstimateRequest":
        """Build a request from a JSON-style record (CLI batch input)."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(record) - known
        where = f" (request {index})" if index is not None else ""
        if extra:
            raise ValueError(
                f"unknown request field(s) {sorted(extra)}{where}")
        missing = [f for f in ("n1", "d1", "n2", "d2")
                   if f not in record]
        if missing:
            raise ValueError(
                f"missing required field(s) {missing}{where}")
        kwargs = dict(record)
        if isinstance(kwargs.get("window"), list):
            kwargs["window"] = tuple(kwargs["window"])
        return cls(**kwargs)

    def as_dict(self) -> dict:
        out = {"n1": self.n1, "d1": self.d1, "n2": self.n2, "d2": self.d2,
               "max_entries": self.max_entries, "ndim": self.ndim,
               "fill": self.fill}
        if self.max_entries_right is not None:
            out["max_entries_right"] = self.max_entries_right
        if self.fill_right is not None:
            out["fill_right"] = self.fill_right
        if self.distance:
            out["distance"] = self.distance
        if self.window is not None:
            w = self.window_tuple()
            out["window"] = list(w) if w is not None else None
        if self.label is not None:
            out["label"] = self.label
        return out


@dataclass
class BatchResult:
    """Structured output of :func:`estimate_batch`, one entry per row.

    ``da`` prices the request's role assignment (left = R1 data tree,
    right = R2 query tree); ``da_swapped`` the opposite assignment, so a
    consumer gets the paper's Figure-7 role advice for free.  ``na`` is
    role-symmetric (Eq. 7).  ``range_na`` holds the Eq. 1 prediction for
    rows that carried a window, ``None`` elsewhere.
    """

    requests: list[EstimateRequest]
    mixed_height_mode: str
    height1: list[int] = field(default_factory=list)
    height2: list[int] = field(default_factory=list)
    na: list[float] = field(default_factory=list)
    da: list[float] = field(default_factory=list)
    da_left: list[float] = field(default_factory=list)
    da_right: list[float] = field(default_factory=list)
    da_swapped: list[float] = field(default_factory=list)
    selectivity: list[float] = field(default_factory=list)
    range_na: list[float | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests)

    def record(self, i: int) -> dict:
        """Row ``i`` as a JSON-safe dict (request echoed back)."""
        out = self.requests[i].as_dict()
        out.update({
            "height1": self.height1[i], "height2": self.height2[i],
            "na": self.na[i], "da": self.da[i],
            "da_left": self.da_left[i], "da_right": self.da_right[i],
            "da_swapped": self.da_swapped[i],
            "selectivity": self.selectivity[i],
        })
        if self.range_na[i] is not None:
            out["range_na"] = self.range_na[i]
        return out

    def as_records(self) -> list[dict]:
        return [self.record(i) for i in range(len(self))]


class _Columns:
    """The requests as columns, with the right-side overrides resolved."""

    def __init__(self, requests: Sequence[EstimateRequest]):
        self.n1 = [r.n1 for r in requests]
        self.d1 = [r.d1 for r in requests]
        self.n2 = [r.n2 for r in requests]
        self.d2 = [r.d2 for r in requests]
        self.ndim = [r.ndim for r in requests]
        self.m1 = [r.max_entries for r in requests]
        self.fill1 = [r.fill for r in requests]
        self.m2 = [r.max_entries if r.max_entries_right is None
                   else r.max_entries_right for r in requests]
        self.fill2 = [r.fill if r.fill_right is None else r.fill_right
                      for r in requests]
        self.distance = [r.distance for r in requests]
        self.window = [r.window for r in requests]

    def valid(self, requests: Sequence[EstimateRequest]) -> bool:
        """True only if every row passes :func:`_check_rows`.

        Each column's distinct values (types and least values, for the
        integer ones) are checked once.  The fan-out ``c*M`` is checked
        on the least ``c`` and ``M`` of a side (a rounded product does
        not fall when a factor grows), then on the distinct pairs.  An
        error of any kind only sends the caller to the row walk, which
        reports it.  These are the row rules in bulk form; a property
        test holds the two to agreement.
        """
        try:
            return (_counts(self.n1, 1) and _counts(self.n2, 1)
                    and _finite_nonneg(self.d1)
                    and _finite_nonneg(self.d2)
                    and _counts(self.ndim, 1)
                    and _structure_ok(self.m1, self.fill1)
                    and _structure_ok(self.m2, self.fill2)
                    and _finite_nonneg(self.distance)
                    and all(_window_ok(requests[i])
                            for i, w in enumerate(self.window)
                            if w is not None))
        except (TypeError, ValueError, OverflowError):
            return False


_NUMBERS = frozenset((int, float))


def _counts(column, least: int) -> bool:
    return {int}.issuperset(map(type, column)) and min(column) >= least


def _finite_nonneg(column) -> bool:
    return (_NUMBERS.issuperset(map(type, column))
            and all(math.isfinite(v) and v >= 0.0 for v in set(column)))


def _structure_ok(ms, fills) -> bool:
    return (_counts(ms, 2) and _NUMBERS.issuperset(map(type, fills))
            and all(math.isfinite(f) and 0.0 < f <= 1.0
                    for f in set(fills))
            and (min(fills) * min(ms) > 1.0
                 or all(f * m > 1.0 for m, f in set(zip(ms, fills)))))


def _window_ok(r: EstimateRequest) -> bool:
    w = r.window_tuple()
    return len(w) == r.ndim and all(math.isfinite(q) and q >= 0.0
                                    for q in w)


def _check_rows(requests: Sequence[EstimateRequest]) -> None:
    """Per-row domain guard, mirroring the scalar constructors."""
    for i, r in enumerate(requests):
        where = f"request {i}"
        for side, n in (("n1", r.n1), ("n2", r.n2)):
            if not isinstance(n, int) or isinstance(n, bool):
                raise ModelDomainError(
                    f"{where}: {side} must be an integer, got {n!r}")
            if n < 1:
                raise ModelDomainError(
                    f"{where}: cost formulas need N >= 1, got {side}={n}")
        for side, d in (("d1", r.d1), ("d2", r.d2)):
            if not isinstance(d, (int, float)) or not math.isfinite(d):
                raise ModelDomainError(
                    f"{where}: {side} must be finite, got {d!r}")
            if d < 0.0:
                raise ModelDomainError(f"{where}: {side} must be >= 0")
        if not isinstance(r.ndim, int) or isinstance(r.ndim, bool):
            raise ModelDomainError(
                f"{where}: ndim must be an integer, got {r.ndim!r}")
        if r.ndim < 1:
            raise ModelDomainError(f"{where}: ndim must be >= 1")
        for name, m, fill in (("max_entries", r.m_left, r.fill_left),
                              ("max_entries_right", r.m_right,
                               r.fill_right_)):
            if not is_integer(m):
                raise ModelDomainError(
                    f"{where}: {name} must be an integer, got {m!r}")
            if m < 2:
                raise ModelDomainError(f"{where}: {name} must be >= 2")
            if not isinstance(fill, (int, float)) or not math.isfinite(fill):
                raise ModelDomainError(
                    f"{where}: fill must be finite, got {fill!r}")
            if not 0.0 < fill <= 1.0:
                raise ModelDomainError(f"{where}: fill must be in (0, 1]")
            if fill * m <= 1.0:
                raise ModelDomainError(
                    f"{where}: average fan-out c*M must exceed 1")
        if (not isinstance(r.distance, (int, float))
                or not math.isfinite(r.distance)):
            raise ModelDomainError(
                f"{where}: distance must be finite, got {r.distance!r}")
        if r.distance < 0.0:
            raise ModelDomainError(f"{where}: distance must be >= 0")
        w = r.window_tuple()
        if w is not None:
            if len(w) != r.ndim:
                raise ModelDomainError(
                    f"{where}: window has {len(w)} dims, request has "
                    f"{r.ndim}")
            if any(not math.isfinite(q) or q < 0.0 for q in w):
                raise ModelDomainError(
                    f"{where}: window extents must be finite and >= 0")


def _validate(requests: Sequence[EstimateRequest]) -> _Columns:
    """The requests' columns, once every row is in the model's domain.

    A bad row raises :class:`~repro.reliability.ModelDomainError`
    naming its index; the rows are walked only when the column checks
    fail.
    """
    columns = _Columns(requests)
    if not columns.valid(requests):
        _check_rows(requests)
    return columns


def estimate_batch(requests: Iterable[EstimateRequest],
                   mixed_height_mode: str = "traversal",
                   ) -> BatchResult:
    """Evaluate Eqs. 1-10 for every request in one shot."""
    from ..costmodel.join_da import MIXED_HEIGHT_MODES
    if mixed_height_mode not in MIXED_HEIGHT_MODES:
        raise ValueError(
            f"mixed_height_mode must be one of {MIXED_HEIGHT_MODES}")
    reqs = [r if isinstance(r, EstimateRequest)
            else EstimateRequest.from_dict(dict(r), i)
            for i, r in enumerate(requests)]
    if not reqs:
        return BatchResult(requests=reqs,
                           mixed_height_mode=mixed_height_mode)
    return _estimate_batch_kernels(reqs, _validate(reqs), mixed_height_mode)


def _tree_tables(n, d, m, ndim, fill):
    """Per-row Eq. 2-5 level tables, derived a column at a time.

    ``n``/``d``/``m``/``ndim``/``fill`` hold one ``N``, ``D``, ``M``,
    ``ndim`` and ``c`` per row.  NumPy's ``pow``/``log`` loops are not
    libm, so every formula is a scalar call of the function
    :class:`~repro.costmodel.AnalyticalTreeParams` uses, mapped over
    flat lists: Eq. 2 and the average object extent per distinct tree,
    Eq. 5 once per distinct ``(D, cM, ndim)`` group up to the group's
    greatest height, Eq. 3 and Eq. 4 (with its ``D_j / N_j`` ratio) per
    distinct tree and level below its root.  NumPy only lays the values
    out and does the ``min(·, 1)`` clamps, which are exact, so every
    table entry equals the scalar accessor's.

    Returns ``(nodes, extents, heights, sbar)``: two ``(rows, max_h)``
    level tables whose column ``j-1`` answers level ``j`` (columns at
    and above a row's root hold 1.0, like the scalar accessors), the
    integer heights and the average object extent per row.
    """
    index: dict[tuple, int] = {}
    inverse = [index.setdefault(key, len(index))
               for key in zip(n, d, m, ndim, fill)]
    trees = list(index)
    n_u = [key[0] for key in trees]
    d_u = [key[1] for key in trees]
    nd_u = [key[3] for key in trees]
    fanout = [f * mm for _, _, mm, _, f in trees]
    heights = list(map(height_from_fanout, n_u, fanout))

    # Eq. 5: dens[start[g] + j - 1] holds group g's density D_j.
    groups: dict[tuple, int] = {}
    group = [groups.setdefault(key, len(groups))
             for key in zip(d_u, fanout, nd_u)]
    top = [1] * len(groups)
    for g, h in zip(group, heights):
        if h > top[g]:
            top[g] = h
    dens, start = [], []
    for (dj, cm, nd), t in zip(groups, top):
        start.append(len(dens))
        for _ in range(1, t):
            dj = propagate_density(dj, cm, nd)
            dens.append(dj)

    # The cells below each root, tree by tree and level by level, hold
    # Eq. 3's N_j and Eq. 4's min((D_j / N_j)^(1/n), 1); N_j > 1 there,
    # so the scalar's N_j <= 0 branch never applies.  Level 0 (N, D)
    # gives the average object extent.
    h_u = np.array(heights, dtype=np.int64)
    below_root = np.arange(1, h_u.max() + 1) < h_u[:, None]
    tree_of, col = np.nonzero(below_root)
    cells = tree_of.tolist()
    first = np.array([start[g] for g in group], dtype=np.intp)
    level_n = list(map(level_nodes, map(n_u.__getitem__, cells),
                       map(fanout.__getitem__, cells), (col + 1).tolist()))
    level_d = map(dens.__getitem__, (first[tree_of] + col).tolist())
    nodes = np.ones(below_root.shape)
    nodes[below_root] = level_n
    extents = np.ones_like(nodes)
    extents[below_root] = np.minimum(
        _sides(map(truediv, level_d, level_n),
               map(nd_u.__getitem__, cells)), 1.0)
    sbar = np.minimum(_sides(map(truediv, d_u, n_u), nd_u), 1.0)

    inv = np.array(inverse, dtype=np.intp)
    return nodes[inv], extents[inv], h_u[inv], sbar[inv]


def _sides(ratios, ndim):
    """Eq. 4's scalar ``pow`` mapped over a column of ratios."""
    return np.fromiter(map(side_from_ratio, ratios, ndim), np.float64)


def _estimate_batch_kernels(reqs: list[EstimateRequest], cols: _Columns,
                            mode: str) -> BatchResult:
    nodes1, ext1, h1, sbar1 = _tree_tables(cols.n1, cols.d1, cols.m1,
                                           cols.ndim, cols.fill1)
    nodes2, ext2, h2, sbar2 = _tree_tables(cols.n2, cols.d2, cols.m2,
                                           cols.ndim, cols.fill2)
    ndim = np.array(cols.ndim, dtype=np.int64)
    dist = np.array(cols.distance, dtype=np.float64)
    n1f = np.array(cols.n1, dtype=np.float64)
    n2f = np.array(cols.n2, dtype=np.float64)

    out = join_kernel(nodes1, ext1, h1, nodes2, ext2, h2, ndim, mode)
    swapped = join_kernel(nodes2, ext2, h2, nodes1, ext1, h1, ndim, mode)
    sel = selectivity_kernel(n1f, sbar1, n2f, sbar2, ndim, dist)

    range_na: list[float | None] = [None] * len(reqs)
    with_window = [i for i, w in enumerate(cols.window) if w is not None]
    if with_window:
        idx = np.array(with_window, dtype=np.int64)
        max_ndim = int(ndim[idx].max())
        warr = np.zeros((len(with_window), max_ndim))
        for row, i in enumerate(with_window):
            w = reqs[i].window_tuple()
            warr[row, :len(w)] = w
        totals = range_na_kernel(nodes1[idx], ext1[idx], h1[idx],
                                 ndim[idx], warr)
        for row, i in enumerate(with_window):
            range_na[i] = float(totals[row])

    return BatchResult(
        requests=reqs, mixed_height_mode=mode,
        height1=h1.tolist(), height2=h2.tolist(),
        na=out["na"].tolist(), da=out["da"].tolist(),
        da_left=out["da_left"].tolist(),
        da_right=out["da_right"].tolist(),
        da_swapped=swapped["da"].tolist(),
        selectivity=sel.tolist(),
        range_na=range_na,
    )


def range_na_batch(trees: Sequence, windows: Sequence[Sequence[float]],
                   ) -> list[float]:
    """Vectorized Eq. 1: one range-query NA per (tree, window) pair.

    ``trees`` holds per-row tree descriptions — either objects with
    ``n_objects`` / ``density`` / ``max_entries`` / ``ndim`` / ``fill``
    attributes (:class:`~repro.costmodel.AnalyticalTreeParams` works) or
    ``(N, D, M, ndim, fill)`` tuples; ``windows`` the per-row query
    extents.  This is the INL-probe costing path of the plan enumerator.
    """
    if len(trees) != len(windows):
        raise ValueError("trees and windows must have equal length")
    rows = []
    for tree, window in zip(trees, windows):
        if hasattr(tree, "n_objects"):
            n, d = tree.n_objects, tree.density
            m, nd, fill = tree.max_entries, tree.ndim, tree.fill
        else:
            n, d, m, nd, fill = tree
        rows.append(EstimateRequest(
            n1=n, d1=d, n2=1, d2=0.0, max_entries=m, ndim=nd, fill=fill,
            window=tuple(window)))
    result = estimate_batch(rows)
    return [q if q is not None else 0.0 for q in result.range_na]
