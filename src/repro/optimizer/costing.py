"""Pricing plan operators with the paper's formulas.

* SJ between two indexed relations — Eq. 10/12 (``metric="da"``, the
  realistic path-buffered cost) or Eq. 7/11 (``metric="na"``);
* PBSM between two indexed relations — one full non-root scan of each
  tree (Eq. 3 summed over levels ``1 .. h-1``), the partition build's
  page reads; the probe phase is in-memory and priced free.  Scan cost
  is the same under both metrics (no page is read twice), so PBSM wins
  exactly when SJ's traversal revisits outweigh a single scan — dense,
  low-pruning workloads — and loses when the traversal prunes most of
  the trees;
* index-nested-loop — one Eq. 1 range query per streamed tuple, with the
  average stream-tuple MBR as the window (probes are priced bufferless:
  consecutive probe windows of an unclustered stream share little path).

The join output cardinality comes from the §5 selectivity formula.

Single plans are priced through the :class:`~repro.estimator.Estimator`
facade; :func:`make_spatial_joins_batch` prices a whole candidate set in
one :func:`~repro.estimator.estimate_batch` call — the plan enumerator
uses it to cost every 2-subset seed (both role assignments) vectorized.
"""

from __future__ import annotations

from typing import Iterable

from ..costmodel import range_query_na
from ..estimator import EstimateRequest, Estimator, estimate_batch
from .catalog import CatalogEntry
from .plans import (IndexNestedLoopPlan, IndexScanPlan, PBSMJoinPlan,
                    Plan, SpatialJoinPlan)

__all__ = ["make_spatial_join", "make_spatial_joins_batch",
           "make_pbsm_join", "make_index_nested_loop", "METRICS"]

METRICS = ("na", "da")


def make_spatial_join(data: IndexScanPlan, query: IndexScanPlan,
                      metric: str = "da") -> SpatialJoinPlan:
    """Price an SJ plan with an explicit role assignment."""
    _check_metric(metric)
    est = Estimator(data.entry.params, query.entry.params)
    cost = est.da() if metric == "da" else est.na()
    return SpatialJoinPlan(data, query, cost, est.selectivity())


def make_spatial_joins_batch(pairs: Iterable[tuple[IndexScanPlan,
                                                   IndexScanPlan]],
                             metric: str = "da",
                             ) -> list[SpatialJoinPlan]:
    """Price many SJ candidates in one vectorized batch.

    ``pairs`` holds ``(data, query)`` role assignments; the returned
    plans match :func:`make_spatial_join` row for row (the batch path is
    bit-identical to the scalar formulas), evaluated by a single
    :func:`~repro.estimator.estimate_batch` call.
    """
    _check_metric(metric)
    pairs = list(pairs)
    reqs = []
    for data, query in pairs:
        e1, e2 = data.entry, query.entry
        if e1.ndim != e2.ndim:
            raise ValueError(
                "dimensionality mismatch between join inputs")
        reqs.append(EstimateRequest(
            n1=e1.cardinality, d1=e1.density,
            n2=e2.cardinality, d2=e2.density,
            max_entries=e1.max_entries, ndim=e1.ndim, fill=e1.fill,
            max_entries_right=e2.max_entries, fill_right=e2.fill))
    result = estimate_batch(reqs)
    costs = result.da if metric == "da" else result.na
    return [SpatialJoinPlan(data, query, costs[i],
                            result.selectivity[i])
            for i, (data, query) in enumerate(pairs)]


def make_pbsm_join(data: IndexScanPlan, query: IndexScanPlan,
                   metric: str = "da") -> PBSMJoinPlan:
    """Price a PBSM partition-based join between two indexed relations.

    The partition build walks each tree once, charging every non-root
    page exactly one read, so the cost is the expected non-root page
    count of both trees: ``sum_{j=1}^{h-1} N_j`` per tree (Eq. 3).  No
    page is revisited, so NA equals DA and ``metric`` does not change
    the number — it is validated for interface symmetry with the other
    pricing helpers.  The engine is role-symmetric: swapping ``data``
    and ``query`` yields the same cost.
    """
    _check_metric(metric)
    e1, e2 = data.entry, query.entry
    if e1.ndim != e2.ndim:
        raise ValueError("dimensionality mismatch between join inputs")
    cost = 0.0
    for entry in (e1, e2):
        params = entry.params
        cost += sum(params.nodes_at(j)
                    for j in range(1, params.height))
    est = Estimator(e1.params, e2.params)
    return PBSMJoinPlan(data, query, cost, est.selectivity())


def make_index_nested_loop(stream: Plan, indexed: IndexScanPlan,
                           metric: str = "da",
                           per_probe: float | None = None,
                           ) -> IndexNestedLoopPlan:
    """Price probing ``indexed`` once per streamed result tuple.

    The metric parameter is accepted for interface symmetry; probe cost
    is Eq. 1 either way (see module docstring).  ``per_probe`` lets a
    caller supply a precomputed Eq. 1 probe cost — the enumerator
    batches a whole DP round's probes through
    :func:`~repro.estimator.range_na_batch` and passes them back here.
    """
    _check_metric(metric)
    if per_probe is None:
        per_probe = range_query_na(indexed.entry.params,
                                   stream.out_extents)
    cost = stream.cost + stream.out_cardinality * per_probe
    return IndexNestedLoopPlan(stream, indexed, cost)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
