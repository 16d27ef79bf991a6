"""Vectorized pair matching: whole entry blocks in one kernel call.

The SJ traversal of Figure 2 spends its CPU time testing the
``|n1| x |n2|`` entry pairs of every visited node pair.  The
:func:`vectorized_pairs` enumerator evaluates that block against the
join predicate in one batched kernel over the nodes' columnar MBR
views (their :meth:`repro.geometry.TreeArena.slice`) and yields **only
the qualifying pairs, already tested** — the traversal skips its
per-pair predicate call entirely.  Without the views (a tree with no
arena) the same block is tested scalar-side: same yields, same order,
same accounting.  The kernel is the predicate's
:meth:`~repro.join.JoinPredicate.pair_mask` — the one the level-batch
planner and the PBSM tile probe call.

Equivalence guarantees (property-tested in
``tests/test_property_vectorized.py``):

* the qualifying-pair *set* equals the nested-loop reference exactly,
  with and without the kernels — they vectorize only IEEE-exact
  comparisons and confirm anything else (the within-distance Euclidean
  norm) scalar-side;
* pairs are emitted in the paper's outer-R2/inner-R1 order, so the
  child ``ReadPage`` sequence — and therefore NA and DA under any
  buffer — is bit-identical to ``pair_enumeration="nested-loop"``.

Comparison accounting: the whole block counts as ``|n1| * |n2|``
rectangle comparisons (what the scalar nested loop would have spent),
charged on the first yielded pair.  A block with no qualifying pair
yields nothing and charges nothing — comparison counts are a CPU-cost
indicator for the ablation benches, not part of the I/O model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..rtree import Entry
from .predicates import JoinPredicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rtree import Node

__all__ = ["vectorized_pairs"]


def vectorized_pairs(node1: "Node", node2: "Node",
                     predicate: JoinPredicate, leaf: bool,
                     cols1=None, cols2=None,
                     ) -> Iterator[tuple[Entry, Entry, int]]:
    """Qualifying entry pairs of two nodes, batch-evaluated.

    Yields ``(e1, e2, comparisons)`` triples in outer-R2/inner-R1 order
    for exactly the pairs satisfying ``predicate.leaf_test`` (with
    ``leaf=True``) or ``predicate.node_test`` — the caller must *not*
    re-test them.  ``cols1``/``cols2`` are the nodes' columnar views
    (:meth:`repro.geometry.TreeArena.slice`), handed to
    :meth:`~repro.join.JoinPredicate.pair_mask` as a row against a
    column.  Without them, and for predicates without a kernel
    (``pair_mask`` returning ``None``), the predicate is applied
    scalar-side over the full block, preserving the pretested contract;
    an inexact mask's survivors get the same scalar test.
    """
    entries1, entries2 = node1.entries, node2.entries
    if not entries1 or not entries2:
        return
    block = None
    if cols1 is not None:
        # (ndim, 1, |n1|) against (ndim, |n2|, 1): the mask is
        # (|n2|, |n1|), so its row-major nonzero() is already j-major.
        block = predicate.pair_mask(
            cols1.lo.T[:, None, :], cols1.hi.T[:, None, :],
            cols2.lo.T[:, :, None], cols2.hi.T[:, :, None])
    if block is None:
        n1 = len(entries1)
        candidates = ((i, j) for j in range(len(entries2))
                      for i in range(n1))
        exact = False
    else:
        mask, exact = block
        jj, ii = mask.nonzero()
        candidates = zip(ii.tolist(), jj.tolist())
    cost = len(entries1) * len(entries2)
    test = predicate.leaf_test if leaf else predicate.node_test
    for i, j in candidates:
        e1 = entries1[i]
        e2 = entries2[j]
        if exact or test(e1.rect, e2.rect):
            yield e1, e2, cost
            cost = 0
