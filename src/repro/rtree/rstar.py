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
from functools import reduce

import numpy as np

from ..geometry import Rect
from ..geometry.columnar import first_least, least_overlap_enlargement
from .entry import Entry
from .node import Node
from .tree import RTreeBase

__all__ = ["RStarTree"]

#: BKSS90 found reinserting 30% of M+1 entries to perform best.
REINSERT_FRACTION = 0.3


def _keeps_its_overlaps(rects: list[Rect], i: int, rect: Rect) -> bool:
    """Whether ``rects[i]``, grown to hold ``rect``, overlaps each sibling
    as much as before (``Rect.intersection_area``'s arithmetic); a grown
    side ``<= 0`` is one before too, so axis 0 settles most siblings."""
    lo, hi = rects[i].lo, rects[i].hi
    grown_lo = tuple(map(min, lo, rect.lo))
    grown_hi = tuple(map(max, hi, rect.hi))
    if grown_lo == lo and grown_hi == hi:
        return True
    lo0, hi0 = grown_lo[0], grown_hi[0]
    for j, other in enumerate(rects):
        x, y = other.lo[0], other.hi[0]
        if j == i or (y if y < hi0 else hi0) - (x if x > lo0 else lo0) <= 0.0:
            continue
        grown = kept = 1.0
        for a, b, p, q, x, y in zip(grown_lo, grown_hi, lo, hi,
                                    other.lo, other.hi):
            side = (y if y < b else b) - (x if x > a else a)
            grown = grown * side if side > 0.0 else 0.0
            side = (y if y < q else q) - (x if x > p else p)
            kept = kept * side if side > 0.0 else 0.0
        if grown != kept:
            return False
    return True


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
        keys = self._area_keys(node, rect)
        best = first_least(keys)
        if node.level != 2:
            return best
        # A non-finite area makes its enlargement NaN; with none NaN, no
        # overlap enlargement is below 0.0 (rounding is monotone), so a
        # lead whose growth keeps every overlap leads all three keys.
        rects = [e.rect for e in node.entries]
        if all(enl == enl for enl, _ in keys) \
                and _keeps_its_overlaps(rects, best, rect):
            return best
        return least_overlap_enlargement(rects, rect, keys)

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
        """The axis with the least margin sum over all its legal cuts,
        then its cut with the least overlap (ties: least area sum).

        Every axis is sorted by lower bound, then by upper bound, and by
        upper, then lower (stable sorts); cut ``k`` of an order, for
        ``m <= k <= n - m``, puts ``order[:k]`` in one group.  All cuts
        of all orders are read off one column block: a group's MBR is
        the running min/max of the order from its head or its tail.
        The keys are the scalar ``Rect`` loop's bit for bit, but for a
        zero's sign, which no comparison sees (``geometry/columnar.py``):
        margins and areas fold the axes in dimension order, an overlap
        with a side ``<= 0`` is ``0.0``, and each axis's margins are
        summed as a left fold in cut order.
        """
        ndim, n, m = self.ndim, len(entries), self.min_entries
        orders = []
        for axis in range(ndim):
            los = [e.rect.lo[axis] for e in entries]
            his = [e.rect.hi[axis] for e in entries]
            for keys in (list(zip(los, his)), list(zip(his, los))):
                orders.append(sorted(range(n), key=keys.__getitem__))
        block = np.array([e.rect.lo + e.rect.hi for e in entries])
        runs = block.T[:, np.array(orders)]  # corner, order, position
        lo, hi = runs[:ndim], runs[ndim:]
        head_lo = np.minimum.accumulate(lo, axis=2)[:, :, m - 1:n - m]
        head_hi = np.maximum.accumulate(hi, axis=2)[:, :, m - 1:n - m]
        tail_lo = np.minimum.accumulate(
            lo[:, :, ::-1], axis=2)[:, :, ::-1][:, :, m:n - m + 1]
        tail_hi = np.maximum.accumulate(
            hi[:, :, ::-1], axis=2)[:, :, ::-1][:, :, m:n - m + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            head, tail = head_hi - head_lo, tail_hi - tail_lo
            side = (np.minimum(head_hi, tail_hi)
                    - np.maximum(head_lo, tail_lo))
            margin = reduce(np.add, head) + reduce(np.add, tail)
            overlap = np.where((side <= 0.0).any(axis=0), 0.0,
                               reduce(np.multiply, side))
            area = (reduce(np.multiply, head)
                    + reduce(np.multiply, tail))
            per_axis = margin.reshape(ndim, -1).cumsum(axis=1)[:, -1]
        axis = first_least(per_axis.tolist())
        cuts = slice(2 * axis, 2 * axis + 2)
        best = first_least(list(zip(overlap[cuts].ravel().tolist(),
                                    area[cuts].ravel().tolist())))
        per_order = n - 2 * m + 1
        order = orders[2 * axis + best // per_order]
        k = m + best % per_order
        return ([entries[i] for i in order[:k]],
                [entries[i] for i in order[k:]])
