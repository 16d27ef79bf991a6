"""Guttman's original R-tree [Gut84].

Subtree choice: least area enlargement, ties broken by smaller area.
Splits: the classic *linear* and *quadratic* algorithms.  Included as the
historical baseline for the tree-variant ablation (the paper itself indexes
with R*-trees).
"""

from __future__ import annotations

from ..geometry import Rect
from .entry import Entry
from .node import Node
from .tree import RTreeBase

__all__ = ["GuttmanRTree"]


class GuttmanRTree(RTreeBase):
    """Classic R-tree with a choice of linear or quadratic split."""

    def __init__(self, ndim: int, max_entries: int,
                 min_fill: float = 0.4, split: str = "quadratic",
                 pager=None):
        if split not in ("linear", "quadratic"):
            raise ValueError("split must be 'linear' or 'quadratic'")
        super().__init__(ndim, max_entries, min_fill, pager)
        self.split = split

    # -- subtree choice ------------------------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        return self._least_area_enlargement(node, rect)

    # -- splitting --------------------------------------------------------------

    def _split_entries(self, entries: list[Entry],
                       level: int) -> tuple[list[Entry], list[Entry]]:
        if self.split == "quadratic":
            seeds = self._quadratic_seeds(entries)
        else:
            seeds = self._linear_seeds(entries)
        return self._distribute(entries, seeds)

    def _quadratic_seeds(self, entries: list[Entry]) -> tuple[int, int]:
        """PickSeeds: the pair wasting the most area when grouped."""
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            ri = entries[i].rect
            area_i = ri.area()
            for j in range(i + 1, len(entries)):
                rj = entries[j].rect
                waste = ri.union(rj).area() - area_i - rj.area()
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    def _linear_seeds(self, entries: list[Entry]) -> tuple[int, int]:
        """LinearPickSeeds: greatest normalized separation along any axis."""
        best_sep = -1.0
        seeds = (0, 1)
        for k in range(self.ndim):
            lows = [e.rect.lo[k] for e in entries]
            highs = [e.rect.hi[k] for e in entries]
            width = max(highs) - min(lows)
            if width <= 0.0:
                continue
            highest_low = max(range(len(entries)), key=lambda i: lows[i])
            lowest_high = min(range(len(entries)), key=lambda i: highs[i])
            if highest_low == lowest_high:
                continue
            sep = (lows[highest_low] - highs[lowest_high]) / width
            if sep > best_sep:
                best_sep = sep
                seeds = (lowest_high, highest_low)
        return seeds

    def _distribute(self, entries: list[Entry],
                    seeds: tuple[int, int],
                    ) -> tuple[list[Entry], list[Entry]]:
        """Assign the remaining entries greedily (Guttman's PickNext)."""
        a, b = seeds
        group1 = [entries[a]]
        group2 = [entries[b]]
        mbr1 = entries[a].rect
        mbr2 = entries[b].rect
        remaining = [e for i, e in enumerate(entries) if i not in (a, b)]

        while remaining:
            # Honour the minimum fill: once one group must take everything
            # left to reach m, hand the rest over.
            need1 = self.min_entries - len(group1)
            need2 = self.min_entries - len(group2)
            if need1 >= len(remaining):
                group1.extend(remaining)
                break
            if need2 >= len(remaining):
                group2.extend(remaining)
                break

            # PickNext: the entry with the strongest preference.
            best_i = 0
            best_diff = -1.0
            for i, entry in enumerate(remaining):
                d1 = mbr1.enlargement(entry.rect)
                d2 = mbr2.enlargement(entry.rect)
                diff = abs(d1 - d2)
                if diff > best_diff:
                    best_diff = diff
                    best_i = i
            entry = remaining.pop(best_i)
            d1 = mbr1.enlargement(entry.rect)
            d2 = mbr2.enlargement(entry.rect)
            if (d1 < d2
                    or (d1 == d2 and mbr1.area() < mbr2.area())
                    or (d1 == d2 and mbr1.area() == mbr2.area()
                        and len(group1) <= len(group2))):
                group1.append(entry)
                mbr1 = mbr1.union(entry.rect)
            else:
                group2.append(entry)
                mbr2 = mbr2.union(entry.rect)
        return group1, group2
