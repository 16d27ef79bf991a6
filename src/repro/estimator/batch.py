"""Batch cost estimation: thousands of model evaluations in one call.

:func:`estimate_batch` accepts a sequence of :class:`EstimateRequest`
rows — each one a complete ``(N1, D1, N2, D2, M, ndim, fill, window)``
description of a candidate join — and returns a :class:`BatchResult`
with NA / DA (both role assignments) / selectivity predictions for every
row.  The whole grid is evaluated by the vectorized kernels of
:mod:`~repro.estimator.kernels` (the property tests assert they agree
with the scalar reference formulas to 1e-12).

Requests are validated up front with the same domain rules as
:func:`~repro.costmodel.check_model_params`; a bad row raises
:class:`~repro.reliability.ModelDomainError` naming its index, and no
partial results are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..costmodel.params import DEFAULT_FILL
from ..reliability import ModelDomainError
from .cache import ParamCache
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


def _validate(requests: Sequence[EstimateRequest]) -> None:
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
        if r.ndim < 1:
            raise ModelDomainError(f"{where}: ndim must be >= 1")
        for m, fill in ((r.m_left, r.fill_left),
                        (r.m_right, r.fill_right_)):
            if m < 2:
                raise ModelDomainError(
                    f"{where}: max_entries must be >= 2")
            if not isinstance(fill, (int, float)) or not math.isfinite(fill):
                raise ModelDomainError(
                    f"{where}: fill must be finite, got {fill!r}")
            if not 0.0 < fill <= 1.0:
                raise ModelDomainError(f"{where}: fill must be in (0, 1]")
            if fill * m <= 1.0:
                raise ModelDomainError(
                    f"{where}: average fan-out c*M must exceed 1")
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
    _validate(reqs)
    if not reqs:
        return BatchResult(requests=reqs,
                           mixed_height_mode=mixed_height_mode)
    return _estimate_batch_kernels(reqs, mixed_height_mode)


def _tree_tables(descs: list[tuple], cache: ParamCache):
    """Per-row level tables from deduplicated scalar derivations.

    ``descs`` holds one ``(N, D, M, ndim, fill)`` tuple per row.  The
    Eq. 2-5 parameters involve ``pow``/``log``, whose NumPy SIMD loops
    are not bit-identical to libm, so they are derived once per
    *distinct* tree through the scalar
    :class:`~repro.costmodel.AnalyticalTreeParams` (via the cache) and
    scattered to all rows — the expensive O(rows x stages) arithmetic
    stays fully vectorized in the kernels.

    Returns ``(nodes, extents, heights, sbar)``: two ``(rows, max_h)``
    level tables (columns at/above a row's root hold 1.0, like the
    scalar accessors), the integer heights and the average object
    extent per row.
    """
    index: dict[tuple, int] = {}
    uparams = []
    inverse = []
    for key in descs:
        u = index.get(key)
        if u is None:
            u = len(uparams)
            index[key] = u
            uparams.append(cache.get(*key))
        inverse.append(u)
    max_h = max(p.height for p in uparams)
    unodes = np.ones((len(uparams), max_h))
    uext = np.ones((len(uparams), max_h))
    uh = np.empty(len(uparams), dtype=np.int64)
    usbar = np.empty(len(uparams), dtype=np.float64)
    for ui, p in enumerate(uparams):
        uh[ui] = p.height
        usbar[ui] = p.average_object_extents()[0]
        for j in range(1, p.height):
            unodes[ui, j - 1] = p.nodes_at(j)
            uext[ui, j - 1] = p.extents_at(j)[0]
    inv = np.array(inverse, dtype=np.int64)
    return unodes[inv], uext[inv], uh[inv], usbar[inv]


def _estimate_batch_kernels(reqs: list[EstimateRequest],
                            mode: str) -> BatchResult:
    cache = ParamCache(maxsize=None)
    left = [(r.n1, r.d1, r.m_left, r.ndim, r.fill_left) for r in reqs]
    right = [(r.n2, r.d2, r.m_right, r.ndim, r.fill_right_)
             for r in reqs]
    nodes1, ext1, h1, sbar1 = _tree_tables(left, cache)
    nodes2, ext2, h2, sbar2 = _tree_tables(right, cache)
    ndim = np.array([r.ndim for r in reqs], dtype=np.int64)
    dist = np.array([r.distance for r in reqs], dtype=np.float64)
    n1f = np.array([float(r.n1) for r in reqs])
    n2f = np.array([float(r.n2) for r in reqs])

    out = join_kernel(nodes1, ext1, h1, nodes2, ext2, h2, ndim, mode)
    swapped = join_kernel(nodes2, ext2, h2, nodes1, ext1, h1, ndim, mode)
    sel = selectivity_kernel(n1f, sbar1, n2f, sbar2, ndim, dist)

    windows = [r.window_tuple() for r in reqs]
    range_na: list[float | None] = [None] * len(reqs)
    with_window = [i for i, w in enumerate(windows) if w is not None]
    if with_window:
        idx = np.array(with_window, dtype=np.int64)
        max_ndim = int(ndim[idx].max())
        warr = np.zeros((len(with_window), max_ndim))
        for row, i in enumerate(with_window):
            w = windows[i]
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
