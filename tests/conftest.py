"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from itertools import accumulate

import pytest

from repro.exec import ExecutionConfig
from repro.geometry import Rect, TreeArena
from repro.geometry.columnar import first_least
from repro.join import JoinPredicate, Overlap
from repro.join.plane_sweep import sweep_pairs_batch
from repro.rtree import GuttmanRTree, Node, RStarTree, RTreeBase

#: One config per pair enumeration, for the tests that compare the stack
#: machine's kernels (``NESTED_LOOP`` is the paper's Fig. 2, the oracle).
NESTED_LOOP = ExecutionConfig(traversal="stack",
                              pair_enumeration="nested-loop")
PLANE_SWEEP = NESTED_LOOP.with_options(pair_enumeration="plane-sweep")
VECTORIZED = NESTED_LOOP.with_options(pair_enumeration="vectorized")
VECTORIZED_SWEEP = NESTED_LOOP.with_options(
    pair_enumeration="vectorized-sweep")


def batch_sweep(entries1, entries2, **options):
    """:func:`~repro.join.plane_sweep.sweep_pairs_batch` over two lists
    of 2-d entries, read through the arena slices of two leaves holding
    them."""
    nodes = [Node(0, 1, entries1), Node(1, 1, entries2)]
    arena = TreeArena.build(nodes, 2)
    return sweep_pairs_batch(entries1, entries2, *(
        arena.slice(node.page_id) if node.entries else None
        for node in nodes), **options)


class KernelLessOverlap(JoinPredicate):
    """Overlap written as a custom predicate: the two scalar tests and
    no kernel of its own (the default, all-pass inexact ``pair_mask``)."""

    def node_test(self, r1, r2):
        return r1.intersects(r2)

    leaf_test = node_test


class StrictOverlap(Overlap):
    """Overlap with a stricter leaf test, which the inherited mask must
    not pass as exact: R1's lower x-bound lies strictly left of R2's."""

    def leaf_test(self, r1, r2):
        return r1.intersects(r2) and r1.lo[0] < r2.lo[0]

    def __repr__(self) -> str:
        return "StrictOverlap()"


def least_overlap_enlargement(node, rect) -> int:
    """Minimal increase of overlap with siblings (BKSS90 §4.1).

    The scalar definition of R*-tree ChooseSubtree above the leaves:
    what :func:`repro.geometry.columnar.least_overlap_enlargement` must
    answer bit for bit.
    """
    rects = [e.rect for e in node.entries]
    keys = []
    for i, old in enumerate(rects):
        new = old.union(rect)
        delta = 0.0
        for j, other in enumerate(rects):
            if j == i:
                continue
            delta += (new.intersection_area(other)
                      - old.intersection_area(other))
        area = old.area()
        keys.append((delta, new.area() - area, area))
    return first_least(keys)


def _axis_cuts(tree, entries, axis: int) -> list[tuple]:
    """Every legal cut along one axis, as ``(ordered, k, mbr1, mbr2)``.

    ``ordered`` is the entries sorted by lower bound, then by upper
    bound; ``k`` ascends within each.  ``mbr1`` bounds ``ordered[:k]``
    and ``mbr2`` bounds ``ordered[k:]``, both read off the running MBRs
    of the order taken from its head and from its tail.
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
            for k in range(tree.min_entries,
                           len(ordered) - tree.min_entries + 1))
    return cuts


def _choose_split_axis(tree, entries) -> list[tuple]:
    """Cuts of the axis with the least margin sum over all of them."""
    per_axis = [_axis_cuts(tree, entries, axis)
                for axis in range(tree.ndim)]
    margins = []
    for cuts in per_axis:
        margin = 0.0
        for _ordered, _k, mbr1, mbr2 in cuts:
            margin += mbr1.margin() + mbr2.margin()
        margins.append(margin)
    return per_axis[first_least(margins)]


def _choose_split_index(cuts: list[tuple]) -> tuple[list, list]:
    """Cut with minimal overlap (ties: minimal area sum)."""
    ordered, k, _mbr1, _mbr2 = cuts[first_least([
        (mbr1.intersection_area(mbr2), mbr1.area() + mbr2.area())
        for _ordered, _k, mbr1, mbr2 in cuts])]
    return ordered[:k], ordered[k:]


def rstar_split(tree, entries, level) -> tuple[list, list]:
    """The R*-tree split (BKSS90 §4.2) over ``Rect`` objects: the
    scalar definition ``RStarTree._split_entries`` must answer."""
    return _choose_split_index(_choose_split_axis(tree, entries))


def rebound_path(tree, path, indices, rect) -> None:
    """Re-bound every path MBR from all of its node's entries
    (``Node.mbr()``): the definition the union growth of
    ``RTreeBase._grow_path`` must reproduce bit for bit."""
    tree._adjust_path(path, indices)


@contextmanager
def reference_insert(enabled: bool = True):
    """Build trees on the scalar reference insert path for a block (a
    no-op when not ``enabled``): :func:`least_overlap_enlargement` for
    R* ChooseSubtree above the leaves, :func:`rstar_split` for the R*
    split and :func:`rebound_path` for every variant's path MBRs."""
    kernel = RStarTree._choose_subtree

    def choose(tree, node, rect):
        if node.level != 2:
            return kernel(tree, node, rect)
        return least_overlap_enlargement(node, rect)

    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(RStarTree, "_choose_subtree", choose)
            patch.setattr(RStarTree, "_split_entries", rstar_split)
            patch.setattr(RTreeBase, "_grow_path", rebound_path)
        yield


#: ``reference_insert(...)`` arguments for a test that builds its trees
#: both ways.
INSERT_PATHS = [pytest.param(True, id="scalar"),
                pytest.param(False, id="numpy")]


def arena_segments() -> list[str]:
    """Shared-memory arena segments currently present in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):    # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm")
            if f.startswith("repro_arena_")]


def make_items(n: int, ndim: int = 2, seed: int = 0,
               side: float = 0.02) -> list[tuple[Rect, int]]:
    """Random square rectangles fully inside the unit workspace."""
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        lo = [rng.uniform(0.0, 1.0 - side) for _ in range(ndim)]
        items.append((Rect(lo, [a + side for a in lo]), oid))
    return items


def build_rstar(items, ndim: int = 2, max_entries: int = 8) -> RStarTree:
    tree = RStarTree(ndim, max_entries)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def build_guttman(items, ndim: int = 2, max_entries: int = 8,
                  split: str = "quadratic") -> GuttmanRTree:
    tree = GuttmanRTree(ndim, max_entries, split=split)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


@pytest.fixture
def items_200():
    return make_items(200, ndim=2, seed=7)


@pytest.fixture
def rstar_200(items_200):
    return build_rstar(items_200)
