"""Join cost in node accesses — the bufferless metric (Eqs. 6, 7, 11).

At every stage of the synchronized traversal, each intersecting pair of
node rectangles — one from each tree — causes one ``ReadPage`` on both
sides.  The expected number of intersecting pairs between ``N1`` and
``N2`` rectangles of average extents ``s1`` and ``s2`` is::

    pairs = N1 * N2 * prod_k min(1, s1_k + s2_k)                  (Eq. 6)

(the ``intsect`` function with one tree's nodes as data and the other's
as query windows).  Summing ``2 * pairs`` over all stages gives
``NA_total`` — Eq. 7 for equal heights, Eq. 11 with the clamped level
pairing for different heights.  The formula is symmetric in R1/R2, as the
paper notes.

:func:`join_na_breakdown` is the scalar reference implementation; the
total is also available through the :class:`~repro.estimator.Estimator`
facade (``Estimator(left, right).na()``), to which
:func:`join_na_total` delegates, and in vectorized batch form through
:func:`~repro.estimator.estimate_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import TreeParams
from .range_query import intsect
from .stages import Stage, traversal_stages

__all__ = ["join_na_total", "join_na_breakdown", "StageCost", "stage_pairs"]


@dataclass(frozen=True)
class StageCost:
    """Per-stage cost attribution: accesses charged to each tree."""

    stage: Stage
    cost1: float
    cost2: float

    @property
    def total(self) -> float:
        return self.cost1 + self.cost2


def stage_pairs(left: TreeParams, right: TreeParams,
                stage: Stage) -> float:
    """Eq. 6 at one stage: expected intersecting node pairs."""
    n1 = left.nodes_at(stage.level1)
    s1 = left.extents_at(stage.level1)
    n2 = right.nodes_at(stage.level2)
    s2 = right.extents_at(stage.level2)
    return n2 * intsect(n1, s1, s2)


def join_na_breakdown(left: TreeParams,
                      right: TreeParams) -> list[StageCost]:
    """Per-stage NA attribution (each side is charged the pair count).

    A side whose stage level *is* its root (only possible for trees of
    height 1, whose root doubles as the leaf) is pinned in memory and
    charged nothing, exactly like the measured traversal.
    """
    out = []
    for stage in traversal_stages(left, right):
        pairs = stage_pairs(left, right, stage)
        cost1 = pairs if stage.level1 < left.height else 0.0
        cost2 = pairs if stage.level2 < right.height else 0.0
        out.append(StageCost(stage, cost1, cost2))
    return out


def join_na_total(left: TreeParams, right: TreeParams) -> float:
    """Eqs. 7/11: expected total node accesses of the spatial join.

    Trees of height 1 contribute nothing (their single root-leaf is
    memory-resident), consistent with the measured traversal.
    """
    from ..estimator import Estimator
    return Estimator(left, right).na()
