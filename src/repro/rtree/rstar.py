"""The R*-tree [BKSS90] — the index used by the paper's experiments.

Differences from Guttman's R-tree, all implemented here:

* **ChooseSubtree**: when descending into the level above the leaves, pick
  the entry whose *overlap enlargement* with its siblings is minimal (ties:
  least area enlargement, then least area); higher up, Guttman's criterion.
* **Split**: choose the split axis by minimal margin sum over all legal
  distributions, then the distribution with minimal overlap (ties: area).
* **Forced reinsertion**: on the first overflow per level per insertion,
  remove the ``p = 30% of (M+1)`` entries whose centers lie farthest from
  the node center and reinsert them (close-first), instead of splitting.
  This is what drives R*-tree utilisation to the ~67% the cost model's
  ``c`` parameter assumes.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from ..geometry import Rect
from ..geometry.columnar import first_least, least_overlap_enlargement
from .entry import Entry
from .node import Node
from .tree import RTreeBase

__all__ = ["RStarTree"]

#: BKSS90 found reinserting 30% of M+1 entries to perform best.
REINSERT_FRACTION = 0.3


class RStarTree(RTreeBase):
    """R*-tree with forced reinsertion and margin-driven splits."""

    def __init__(self, ndim: int, max_entries: int,
                 min_fill: float = 0.4, pager=None):
        super().__init__(ndim, max_entries, min_fill, pager)
        self._reinserted_levels: set[int] = set()

    # -- insertion bookkeeping ---------------------------------------------

    def _begin_insert(self) -> None:
        self._reinserted_levels.clear()

    # -- ChooseSubtree -------------------------------------------------------

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        if node.level != 2:
            return self._least_area_enlargement(node, rect)
        # One node as a column block, rebuilt per call: O(M) against
        # the kernel's O(M^2), and nothing to keep in step with the node.
        block = np.array([e.rect.lo + e.rect.hi for e in node.entries])
        return least_overlap_enlargement(
            block[:, :self.ndim], block[:, self.ndim:], rect.lo, rect.hi)

    # -- overflow: forced reinsertion, then split ---------------------------------

    def _handle_overflow(self, path: list[Node],
                         indices: list[int]) -> None:
        node = path[-1]
        is_root = node.page_id == self.root_id
        if not is_root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._reinsert(path, indices)
        else:
            self._split_node(path, indices)

    def _reinsert(self, path: list[Node], indices: list[int]) -> None:
        node = path[-1]
        p = max(1, round(REINSERT_FRACTION * len(node.entries)))
        center = node.mbr().center

        def distance(entry: Entry) -> float:
            ec = entry.rect.center
            return math.dist(ec, center)

        ordered = sorted(node.entries, key=distance)
        keep, reinsert = ordered[:-p], ordered[-p:]
        node.entries = keep
        self._adjust_path(path, indices)
        # Close reinsert: BKSS90 reinserts the removed entries starting
        # with the one closest to the node center.
        for entry in reinsert:
            self._insert_entry(entry, node.level)

    # -- R* split -----------------------------------------------------------------

    def _split_entries(self, entries: list[Entry],
                       level: int) -> tuple[list[Entry], list[Entry]]:
        return self._choose_split_index(self._choose_split_axis(entries))

    def _axis_cuts(self, entries: list[Entry], axis: int) -> list[tuple]:
        """Every legal cut along one axis, as ``(ordered, k, mbr1, mbr2)``.

        ``ordered`` is the entries sorted by lower bound, then by upper
        bound; ``k`` ascends within each.  ``mbr1`` bounds
        ``ordered[:k]`` and ``mbr2`` bounds ``ordered[k:]``, both read
        off the running MBRs of the order taken from its head and from
        its tail, so a sort costs O(M) unions however many cuts it has.
        """
        cuts = []
        for key in (lambda e: (e.rect.lo[axis], e.rect.hi[axis]),
                    lambda e: (e.rect.hi[axis], e.rect.lo[axis])):
            ordered = sorted(entries, key=key)
            rects = [e.rect for e in ordered]
            heads = list(accumulate(rects, Rect.union))
            tails = list(accumulate(reversed(rects),
                                    lambda mbr, rect: rect.union(mbr)))
            tails.reverse()
            cuts.extend(
                (ordered, k, heads[k - 1], tails[k])
                for k in range(self.min_entries,
                               len(ordered) - self.min_entries + 1))
        return cuts

    def _choose_split_axis(self, entries: list[Entry]) -> list[tuple]:
        """Cuts of the axis with the least margin sum over all of them."""
        per_axis = [self._axis_cuts(entries, axis)
                    for axis in range(self.ndim)]
        margins = []
        for cuts in per_axis:
            # A plain left fold: ``sum()`` compensates since Python
            # 3.12, and the last bit decides ties between axes.
            margin = 0.0
            for _ordered, _k, mbr1, mbr2 in cuts:
                margin += mbr1.margin() + mbr2.margin()
            margins.append(margin)
        return per_axis[first_least(margins)]

    @staticmethod
    def _choose_split_index(cuts: list[tuple],
                            ) -> tuple[list[Entry], list[Entry]]:
        """Cut with minimal overlap (ties: minimal area sum)."""
        # len(entries) = M + 1 >= 2 * min_entries: there is a cut.
        ordered, k, _mbr1, _mbr2 = cuts[first_least([
            (mbr1.intersection_area(mbr2), mbr1.area() + mbr2.area())
            for _ordered, _k, mbr1, mbr2 in cuts])]
        return ordered[:k], ordered[k:]
