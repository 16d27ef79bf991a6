"""Join cost in disk accesses under a path buffer (Eqs. 8-10, 12).

The SJ loops are asymmetric: R2's entries drive the *outer* loop, R1's the
inner one.  With a per-tree path buffer this means:

* an R2 node, once fetched, stays buffered while all R1 partners under the
  same R1 parent are processed — it is re-fetched only when the traversal
  moves to a *different R1 parent node*.  Hence each R2 node at level
  ``j2`` costs one disk read per R1 node at the parent stage level
  intersecting it::

      DA(R2, j2) = intsect(N1_parent, s1_parent, s2_j2) * N2_j2    (Eq. 8)

  clamped at the stage's NA(R2, j2): a buffer can only save reads, and
  with zero density Eq. 5 can grow the parent extents faster than the
  parent count shrinks, which lifts the raw Eq. 8 above it;

* an R1 node is re-fetched for essentially every intersecting pair — the
  only exception (a pair adjacency across consecutive outer entries) is
  rare and unmodellable without intra-node ordering — so::

      DA(R1, j1) ≈ NA(R1, j1)                                     (Eq. 9)

Summing over stages gives ``DA_total`` (Eq. 10); the clamped level pairing
of :mod:`.stages` extends it to trees of different heights (Eq. 12):
once R2 sits at its leaf level it stops descending and its retained leaf
costs nothing more, while a leaf-pinned R1 keeps being re-read (the
``2 * DA(R2, j)`` branch of Eq. 12).

Unlike NA, DA is **not** symmetric in R1/R2 — the basis of the paper's
role-assignment advice for optimizers (Figure 7).

:func:`join_da_breakdown` is the scalar reference implementation; the
totals delegate to the :class:`~repro.estimator.Estimator` facade
(``Estimator(left, right).da()``), and
:func:`~repro.estimator.estimate_batch` evaluates the same formulas
vectorized over whole parameter grids.

Mixed heights, ``h1 < h2``: two readings of Eq. 12
--------------------------------------------------

The paper writes the re-read cost of a leaf-pinned R1 under a descending
R2 as ``2 * DA(R2, j)`` with Eq. 8's ``N_{R1, j+1}`` term.  Two readings
are defensible and they differ numerically:

* ``mixed_height_mode="traversal"`` (default) — the R1 side paired with
  R2's level-``j`` stage is R1's *leaf* level (that is where the
  traversal actually is), so Eq. 8's parent term uses ``N_{R1, 1}``.
  This variant tracks our SJ simulator, where a descending R2 node is
  re-fetched once per intersecting R1 leaf.
* ``mixed_height_mode="paper"`` — Eq. 8's index is taken literally:
  ``N_{R1, j+1}`` with ``j`` R2's level (clamped at R1's root).  This
  variant reproduces the paper's Figure 7b, including the AREA 2/3
  exceptions to the small-query-tree rule, which the traversal variant
  does not exhibit (see EXPERIMENTS.md).

For equal heights — all of the paper's Figure 5/6 workloads except the
cross-height combos — the two readings coincide exactly.
"""

from __future__ import annotations

from .join_na import StageCost, stage_pairs
from .params import TreeParams
from .range_query import intsect
from .stages import Stage, traversal_stages

__all__ = ["join_da_total", "join_da_breakdown", "join_da_by_tree",
           "MIXED_HEIGHT_MODES"]

MIXED_HEIGHT_MODES = ("traversal", "paper")


def _da_r2(left: TreeParams, right: TreeParams,
           stage: Stage, mode: str) -> float:
    """Eq. 8 at one stage (0 when R2 no longer descends)."""
    if not stage.descends2:
        # R2 is pinned at its leaf level; the path buffer retains it.
        return 0.0
    n2 = right.nodes_at(stage.level2)
    s2 = right.extents_at(stage.level2)
    if mode == "paper" and not stage.descends1:
        # Literal Eq. 8 index while R1 is leaf-pinned: N_{R1, j+1} with
        # j = R2's level, clamped at R1's root.
        r1_level = min(stage.level2 + 1, left.height)
    else:
        r1_level = stage.parent1
    n1_parent = left.nodes_at(r1_level)
    s1_parent = left.extents_at(r1_level)
    return n2 * intsect(n1_parent, s1_parent, s2)


def join_da_breakdown(left: TreeParams, right: TreeParams,
                      mixed_height_mode: str = "traversal",
                      ) -> list[StageCost]:
    """Per-stage DA attribution under the path buffer.

    ``cost1`` follows Eq. 9 (the inner tree barely benefits from the
    buffer), ``cost2`` Eq. 8.  Root-pinned sides cost nothing, as in the
    NA model.
    """
    if mixed_height_mode not in MIXED_HEIGHT_MODES:
        raise ValueError(
            f"mixed_height_mode must be one of {MIXED_HEIGHT_MODES}")
    out = []
    for stage in traversal_stages(left, right):
        pairs = stage_pairs(left, right, stage)
        # Eq. 8 clamped at the stage's NA (see the module docstring).
        cost2 = (min(_da_r2(left, right, stage, mixed_height_mode), pairs)
                 if stage.level2 < right.height else 0.0)
        if stage.level1 >= left.height:
            cost1 = 0.0
        elif (mixed_height_mode == "paper" and not stage.descends1
                and stage.descends2):
            # Literal Eq. 12, h1 < h2 branch: the leaf-pinned R1 pays
            # "2 * DA(R2, j)" — i.e. the same literal Eq. 8 quantity
            # again, not the stage pair count.
            cost1 = cost2
        else:
            cost1 = pairs
        out.append(StageCost(stage, cost1, cost2))
    return out


def join_da_total(left: TreeParams, right: TreeParams,
                  mixed_height_mode: str = "traversal") -> float:
    """Eqs. 10/12: expected total disk accesses of the spatial join."""
    from ..estimator import Estimator
    return Estimator(left, right,
                     mixed_height_mode=mixed_height_mode).da()


def join_da_by_tree(left: TreeParams, right: TreeParams,
                    mixed_height_mode: str = "traversal",
                    ) -> tuple[float, float]:
    """``(DA_R1, DA_R2)`` — the per-tree split the paper's §4.1 error
    claims are stated against (R2 within ~5%, R1 within 10-15%)."""
    from ..estimator import Estimator
    return Estimator(left, right,
                     mixed_height_mode=mixed_height_mode).da_by_tree()
