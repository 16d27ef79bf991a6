"""NumPy-vectorized kernels for the join/range cost formulas (Eqs. 1-10).

One call evaluates an entire parameter grid: every row is one
``(N1, D1, N2, D2, M, ndim, fill, window)`` combination, and the kernel
returns NA / DA / selectivity predictions for all rows at once.  The
paper's point — the formulas never touch a tree — is what makes this
possible: the whole model is closed-form arithmetic on primitive data
properties, so a 10k-point sweep becomes a handful of array ops instead
of 10k Python-object evaluations.

Bit-for-bit equivalence with the scalar path
--------------------------------------------

The scalar formulas in :mod:`repro.costmodel` remain the reference
implementation, and the test suite asserts the vectorized results match
them to an *absolute* 1e-12 — which on costs of magnitude 1e6 means
bit-identical floats.  Two design rules make that achievable:

* the per-level parameters (Eqs. 2-5) involve ``pow``/``log``, whose
  NumPy SIMD loops are *not* bit-identical to libm — so they are never
  vectorized.  The caller derives them through the scalar
  :class:`~repro.costmodel.AnalyticalTreeParams` once per *distinct*
  tree (deduplicated on ``(N, D, M, ndim, fill)``, the batch-side
  analogue of :class:`~repro.estimator.cache.ParamCache`) and passes
  level tables in;
* the per-stage arithmetic (Eqs. 6-10) is pure ``+``/``*``/``min`` —
  IEEE-exact and identical under vectorization — and mirrors the scalar
  operation sequence: products over dimensions multiply sequentially
  (never ``factor ** ndim``) and stage totals accumulate in traversal
  order, like the scalar ``sum()`` over the breakdown.

Level tables are ``(rows, n_levels)`` arrays whose column ``j-1``
answers level ``j`` (leaves at 1, root at ``h``, as in the paper); at
and above a row's root they hold ``nodes = 1`` and ``extent = 1``,
exactly like :meth:`AnalyticalTreeParams.nodes_at` /
:meth:`~AnalyticalTreeParams.extents_at`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["join_kernel", "selectivity_kernel", "range_na_kernel"]


def _take_level(table, level):
    """``table[row, level[row] - 1]`` for every row."""
    idx = (level - 1)[:, None]
    return np.take_along_axis(table, idx, axis=1)[:, 0]


def _seq_prod(base, factor, ndim, max_ndim):
    """``base * factor * ... * factor`` (``ndim[row]`` times), mirroring
    the scalar ``intsect`` loop's sequential multiplication."""
    out = base
    for k in range(max_ndim):
        out = np.where(k < ndim, out * factor, out)
    return out


def join_kernel(nodes1, s1, h1, nodes2, s2, h2, ndim,
                mixed_height_mode="traversal"):
    """Vectorized Eqs. 6-10 over request rows.

    ``nodes1``/``s1`` (and ``2``) are the per-level node-count and
    extent tables of each side, ``h1``/``h2`` the integer heights,
    ``ndim`` the shared dimensionality per row.  Returns per-row arrays
    ``na``, ``da``, ``da_left`` and ``da_right``.
    """
    rows = h1.shape[0]
    max_ndim = int(ndim.max()) if rows else 1
    na = np.zeros(rows)
    da = np.zeros(rows)
    da_left = np.zeros(rows)
    da_right = np.zeros(rows)
    paper_mode = mixed_height_mode == "paper"

    n_stages = np.maximum(h1, h2) - 1
    prev1 = h1.copy()
    prev2 = h2.copy()
    one = np.ones(rows, dtype=np.int64)
    for t in range(int(n_stages.max()) if rows else 0):
        active = t < n_stages
        j1 = np.maximum(one, h1 - 1 - t)
        j2 = np.maximum(one, h2 - 1 - t)
        descends1 = j1 < prev1
        descends2 = j2 < prev2

        nj1 = _take_level(nodes1, j1)
        sj1 = _take_level(s1, j1)
        nj2 = _take_level(nodes2, j2)
        sj2 = _take_level(s2, j2)

        # Eq. 6: pairs = N2_j2 * intsect(N1_j1, s1, s2).
        factor = np.minimum(1.0, sj1 + sj2)
        pairs = nj2 * _seq_prod(nj1, factor, ndim, max_ndim)

        # NA (Eq. 7/11): each non-root side is charged the pair count.
        na_cost1 = np.where(j1 < h1, pairs, 0.0)
        na_cost2 = np.where(j2 < h2, pairs, 0.0)
        na = na + np.where(active, na_cost1 + na_cost2, 0.0)

        # DA for R2 (Eq. 8): one read per intersecting R1 parent-stage
        # node, at most the stage's NA, and nothing once R2 stops
        # descending.
        if paper_mode:
            r1_level = np.where(descends1, prev1,
                                np.minimum(j2 + 1, h1))
        else:
            r1_level = prev1
        np1 = _take_level(nodes1, r1_level)
        sp1 = _take_level(s1, r1_level)
        pfactor = np.minimum(1.0, sp1 + sj2)
        da2_val = np.minimum(nj2 * _seq_prod(np1, pfactor, ndim, max_ndim),
                             pairs)
        da_cost2 = np.where(descends2 & (j2 < h2), da2_val, 0.0)

        # DA for R1 (Eq. 9 / the literal Eq. 12 branch).
        da_cost1 = np.where(
            j1 >= h1, 0.0,
            np.where(paper_mode & ~descends1 & descends2,
                     da_cost2, pairs))
        da = da + np.where(active, da_cost1 + da_cost2, 0.0)
        da_left = da_left + np.where(active, da_cost1, 0.0)
        da_right = da_right + np.where(active, da_cost2, 0.0)

        prev1 = j1
        prev2 = j2

    return {"na": na, "da": da, "da_left": da_left,
            "da_right": da_right}


def selectivity_kernel(n1, sbar1, n2, sbar2, ndim, distance,
                       max_ndim=None):
    """Vectorized §5 selectivity: every R1 object probed with an
    R2-object window inflated by ``2 * distance`` per dimension.

    ``sbar1``/``sbar2`` are the average object extents (one per row,
    equal across dimensions), derived scalar-side like everything else
    that involves ``pow``.
    """
    if max_ndim is None:
        max_ndim = int(ndim.max()) if ndim.shape[0] else 1
    window = sbar2 + 2.0 * distance
    factor = np.minimum(1.0, sbar1 + window)
    return n2 * _seq_prod(n1, factor, ndim, max_ndim)


def range_na_kernel(nodes, extents, heights, ndim, windows):
    """Vectorized Eq. 1 over rows: range-query NA per tree/window pair.

    ``nodes``/``extents`` are level tables as described in the module
    docstring; ``windows`` has shape ``(rows, max_ndim)`` (entries
    beyond a row's ``ndim`` are ignored).  The root is never charged,
    so a height-1 tree costs 0.
    """
    rows = heights.shape[0]
    total = np.zeros(rows)
    if rows == 0:
        return total
    max_ndim = windows.shape[1]
    for j in range(1, int(heights.max())):
        level = np.full(rows, j, dtype=np.int64)
        nj = _take_level(nodes, level)
        sj = _take_level(extents, level)
        # intsect with a per-dimension window: sequential product.
        out = nj
        for k in range(max_ndim):
            factor = np.minimum(1.0, sj + windows[:, k])
            out = np.where(k < ndim, out * factor, out)
        total = total + np.where(j < heights, out, 0.0)
    return total
