"""Per-level diagnostics: where in the tree does model error live?

Every formula of the paper is a per-level sum, and the measured side
records accesses per (tree, level) too — so the comparison can be made
level by level, attributing end-to-end error to specific levels (leaf
pair estimation vs upper-level structure).  ``level_comparison`` builds
that table for one join; the registry's ``levels`` experiment and
EXPERIMENTS.md use it, and it is handy when tuning the model on new data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..costmodel import (AnalyticalTreeParams, join_da_breakdown,
                         join_na_breakdown)
from ..datasets import SpatialDataset
from ..join import R1, R2, JoinResult
from .harness import relative_error

__all__ = ["LevelComparison", "level_comparison"]


@dataclass(frozen=True)
class LevelComparison:
    """Measured vs modelled accesses for one tree at one level."""

    tree: str                 # "R1" or "R2"
    level: int
    na_measured: int
    na_model: float
    da_measured: int
    da_model: float

    @property
    def na_error(self) -> float | None:
        """Signed relative error; ``None`` when a zero measurement
        meets a non-zero model value (same convention as
        :func:`repro.experiments.relative_error` — JSON-safe)."""
        return relative_error(self.na_model, self.na_measured)


def level_comparison(result: JoinResult, dataset1: SpatialDataset,
                     dataset2: SpatialDataset, max_entries: int,
                     fill: float = 0.67) -> list[LevelComparison]:
    """Per-(tree, level) comparison for one measured join result.

    The model's stage costs are attributed to the levels each tree
    actually visits at that stage (clamped pairing), matching how the
    measured counters were recorded.
    """
    p1 = AnalyticalTreeParams.from_dataset(dataset1, max_entries, fill)
    p2 = AnalyticalTreeParams.from_dataset(dataset2, max_entries, fill)

    na_model: dict[tuple[str, int], float] = {}
    for cost in join_na_breakdown(p1, p2):
        key1 = (R1, cost.stage.level1)
        key2 = (R2, cost.stage.level2)
        na_model[key1] = na_model.get(key1, 0.0) + cost.cost1
        na_model[key2] = na_model.get(key2, 0.0) + cost.cost2
    da_model: dict[tuple[str, int], float] = {}
    for cost in join_da_breakdown(p1, p2):
        key1 = (R1, cost.stage.level1)
        key2 = (R2, cost.stage.level2)
        da_model[key1] = da_model.get(key1, 0.0) + cost.cost1
        da_model[key2] = da_model.get(key2, 0.0) + cost.cost2

    levels = ({(R1, lv) for lv in result.stats.levels(R1)}
              | {(R2, lv) for lv in result.stats.levels(R2)}
              | set(na_model))
    out = []
    for tree, level in sorted(levels):
        out.append(LevelComparison(
            tree=tree,
            level=level,
            na_measured=result.stats.na(tree, level),
            na_model=na_model.get((tree, level), 0.0),
            da_measured=result.stats.da(tree, level),
            da_model=da_model.get((tree, level), 0.0),
        ))
    return out
