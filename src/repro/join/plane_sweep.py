"""Plane-sweep pair matching: the BKS93 CPU-cost optimisation.

The paper's Section 2.1: the original SpatialJoin1 algorithm was
improved "towards the reduction of the CPU- and I/O-cost ... by
considering faster main-memory algorithms".  The main-memory improvement
is this one: instead of testing all ``|n1| x |n2|`` entry pairs of two
joined nodes, sort both entry lists by their lower boundary on one axis
and sweep, testing only pairs whose intervals on the sweep axis overlap.
The *set* of qualifying pairs is identical; the number of rectangle
comparisons drops from quadratic toward the overlap count.

The paper then excludes CPU cost from the I/O model, so the sweep is
packaged here as a drop-in pair enumerator for the SJ traversal: an
``A3`` ablation bench measures the comparison savings and verifies the
I/O counters stay meaningful.  Note that the sweep emits pairs in sweep
order, not in the outer-R2/inner-R1 order the DA model assumes — the
measured DA under a path buffer therefore shifts slightly; the bench
quantifies it.

**Guaranteed emission order** (both :func:`sweep_pairs` and the batched
:func:`sweep_pairs_batch`): each entry list is sorted by the key
``(rect.lo[axis], rect.hi[axis], ref)``; repeatedly, the unprocessed
entry with the smallest key *opens* (``entries1`` winning exact key
ties), and is paired — in ascending key order — with every unopened
entry of the other list whose ``lo[axis]`` does not exceed the opener's
``hi[axis] + slack``.  Because ``ref`` is unique within a node, the key
is a total order: the sequence of yielded pairs is a pure function of
the entry *sets* (and ``slack``), independent of input order, tied
lower boundaries included.  That determinism is what makes checkpoints
cut mid-node resumable and the batched variant bit-compatible with the
scalar one.

**Slack.**  With ``slack = 0`` the sweep yields exactly the pairs whose
intervals overlap on the sweep axis — a necessary condition for MBR
*intersection*, but not for predicates that can match rectangles at a
positive distance.  ``WithinDistance(d)`` needs every pair whose
per-axis gap is at most ``d``; passing ``slack = d`` widens each
opener's partner window to ``lo_partner <= hi_opener + slack``, which
is exactly that condition on the sweep axis (the caller's ``leaf_test``
still confirms the full Euclidean distance).  Predicates declare their
requirement via :meth:`~repro.join.JoinPredicate.sweep_slack`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..rtree import Entry

__all__ = ["sweep_pairs", "sweep_pairs_batch", "nested_loop_pairs"]


def nested_loop_pairs(entries1: list[Entry], entries2: list[Entry],
                      ) -> Iterator[tuple[Entry, Entry, int]]:
    """All entry pairs in the paper's loop order (outer R2, inner R1).

    Yields ``(e1, e2, comparisons)`` triples for qualifying-on-axis
    pairs; the caller applies the real predicate.  For the nested loop
    every pair is a comparison, so the third element is always 1.
    """
    for e2 in entries2:
        for e1 in entries1:
            yield e1, e2, 1


def _sweep_key(entry: Entry, axis: int) -> tuple[float, float, int]:
    rect = entry.rect
    return (rect.lo[axis], rect.hi[axis], entry.ref)


def sweep_pairs(entries1: list[Entry], entries2: list[Entry],
                axis: int = 0, slack: float = 0.0,
                ) -> Iterator[tuple[Entry, Entry, int]]:
    """Entry pairs whose extents overlap on ``axis``, via plane sweep.

    Only pairs within ``slack`` of each other on the sweep axis are
    yielded (with ``slack = 0``: pairs overlapping on the axis — a
    necessary condition for rectangle intersection), so the caller's
    predicate sees a superset of the qualifying pairs but far fewer
    than the full cross product.  The ``comparisons`` element counts
    the sweep's own interval tests so CPU accounting stays honest.  The
    emission order is the canonical one documented in the module
    docstring — deterministic even under tied lower boundaries.
    """
    sorted1 = sorted(entries1, key=lambda e: _sweep_key(e, axis))
    sorted2 = sorted(entries2, key=lambda e: _sweep_key(e, axis))
    i = j = 0
    while i < len(sorted1) and j < len(sorted2):
        e1 = sorted1[i]
        e2 = sorted2[j]
        if _sweep_key(e1, axis) <= _sweep_key(e2, axis):
            # e1 opens: pair it with every e2 starting before it closes
            # (plus slack — see the module docstring).
            limit = e1.rect.hi[axis] + slack
            k = j
            while k < len(sorted2) and sorted2[k].rect.lo[axis] <= limit:
                yield e1, sorted2[k], 1
                k += 1
            i += 1
        else:
            limit = e2.rect.hi[axis] + slack
            k = i
            while k < len(sorted1) and sorted1[k].rect.lo[axis] <= limit:
                yield sorted1[k], e2, 1
                k += 1
            j += 1


def sweep_pairs_batch(entries1: list[Entry], entries2: list[Entry],
                      axis: int = 0, cols1=None, cols2=None,
                      slack: float = 0.0,
                      ) -> Iterator[tuple[Entry, Entry, int]]:
    """The plane sweep with batched sorting and partner scans.

    Identical yields, order included, to :func:`sweep_pairs` — the sort
    happens via one ``lexsort`` per side and each opener's partner range
    is located with a single binary search (``searchsorted``) instead of
    a Python comparison per partner.

    ``cols1``/``cols2`` optionally hand over the entries' columnar MBR
    views (tree-arena slices): the sweep-axis coordinates are then read
    straight from the existing float64 columns — the same bits the
    per-``Rect`` extraction would produce — instead of being rebuilt
    from the ``Rect`` objects.  A view is ignored unless it matches the
    entry count.
    """
    if not entries1 or not entries2:
        return

    def prepare(entries, cols):
        if cols is not None and len(cols) == len(entries):
            lo = np.ascontiguousarray(cols.lo[:, axis])
            hi = np.ascontiguousarray(cols.hi[:, axis])
        else:
            lo = np.array([e.rect.lo[axis] for e in entries],
                          dtype=np.float64)
            hi = np.array([e.rect.hi[axis] for e in entries],
                          dtype=np.float64)
        refs = np.array([e.ref for e in entries])
        # lexsort: last key is primary — (lo, hi, ref), the scalar key.
        order = np.lexsort((refs, hi, lo))
        ordered = [entries[t] for t in order.tolist()]
        return ordered, lo[order], hi[order]

    sorted1, lo1, hi1 = prepare(entries1, cols1)
    sorted2, lo2, hi2 = prepare(entries2, cols2)
    n1, n2 = len(sorted1), len(sorted2)
    i = j = 0
    while i < n1 and j < n2:
        if _sweep_key(sorted1[i], axis) <= _sweep_key(sorted2[j], axis):
            e1 = sorted1[i]
            # Partners: sorted2[j:end) with lo2 <= e1.hi + slack — one
            # bisect replaces the scalar sweep's per-partner comparison.
            end = int(np.searchsorted(lo2, hi1[i] + slack, side="right"))
            for k in range(j, end):
                yield e1, sorted2[k], 1
            i += 1
        else:
            e2 = sorted2[j]
            end = int(np.searchsorted(lo1, hi2[j] + slack, side="right"))
            for k in range(i, end):
                yield sorted1[k], e2, 1
            j += 1
