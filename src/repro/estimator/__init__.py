"""Unified, batch-capable cost estimation over the paper's formulas.

The analytical model (Eqs. 1-10) never touches a tree, which makes it
embarrassingly vectorizable — yet the original API evaluated it one
scalar call at a time.  This package is the consolidated front door:

* :class:`Estimator` — the facade: one (left, right) pair, every
  estimate (``.na()`` / ``.da()`` / ``.selectivity()`` /
  ``.breakdown()`` / ``.range_na()``).  The old free functions in
  :mod:`repro.costmodel` delegate here and stay importable.
* :func:`estimate_batch` — thousands of ``(N1, D1, N2, D2, M, ndim,
  window)`` grid points in one call, NumPy-vectorized.  Plan
  enumeration, the experiments harness and the CLI (``repro estimate
  --batch``) all go through it.
* :class:`ParamCache` / :func:`cached_params` — memoized Eq. 2-5
  derivations keyed on ``(N, D, M, ndim, fill)``, shared by the facade
  and the execution governor's admission control.
"""

from .batch import (BatchResult, EstimateRequest, estimate_batch,
                    range_na_batch)
from .cache import DEFAULT_PARAM_CACHE, ParamCache, cached_params
from .facade import Estimate, EstimateBreakdown, Estimator

__all__ = [
    "BatchResult",
    "DEFAULT_PARAM_CACHE",
    "Estimate",
    "EstimateBreakdown",
    "EstimateRequest",
    "Estimator",
    "ParamCache",
    "cached_params",
    "estimate_batch",
    "range_na_batch",
]
