"""Memoized per-level tree parameters.

Deriving :class:`~repro.costmodel.params.AnalyticalTreeParams` runs the
Eq. 5 density propagation once per level — cheap, but plan enumeration
and admission control ask for the *same* trees over and over.  (Grids
go through :func:`~repro.estimator.estimate_batch`, which derives its
level tables by column and builds no parameter objects.)
:class:`ParamCache` memoizes the derived objects on the complete key
``(N, D, M, ndim, fill)``; the objects are immutable in practice (no
public mutator), so sharing them is safe.

A module-level default cache backs :func:`cached_params`, which is what
the :class:`~repro.estimator.Estimator` facade and the execution
governor's admission control use.
"""

from __future__ import annotations

from collections import OrderedDict

from ..costmodel.params import DEFAULT_FILL, AnalyticalTreeParams

__all__ = ["ParamCache", "cached_params", "DEFAULT_PARAM_CACHE"]


class ParamCache:
    """LRU-bounded memo of analytical tree parameters.

    Parameters
    ----------
    maxsize:
        Retained distinct trees; ``None`` means unbounded.  The default
        comfortably covers an optimizer session over hundreds of
        relations while staying O(MB).
    """

    def __init__(self, maxsize: int | None = 4096):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None)")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._memo: OrderedDict[tuple, AnalyticalTreeParams] = OrderedDict()

    def get(self, n_objects: int, density: float, max_entries: int,
            ndim: int, fill: float = DEFAULT_FILL) -> AnalyticalTreeParams:
        """The memoized Eq. 2-5 parameters for one tree description."""
        key = (n_objects, density, max_entries, ndim, fill)
        try:
            params = self._memo[key]
        except KeyError:
            self.misses += 1
            params = AnalyticalTreeParams(n_objects, density, max_entries,
                                          ndim, fill)
            self._memo[key] = params
            if self.maxsize is not None and len(self._memo) > self.maxsize:
                self._memo.popitem(last=False)
        else:
            self.hits += 1
            self._memo.move_to_end(key)
        return params

    def clear(self) -> None:
        self._memo.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def __repr__(self) -> str:
        return (f"ParamCache(size={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")


#: Process-wide cache shared by the facade and admission control.
DEFAULT_PARAM_CACHE = ParamCache()


def cached_params(n_objects: int, density: float, max_entries: int,
                  ndim: int, fill: float = DEFAULT_FILL,
                  ) -> AnalyticalTreeParams:
    """Eq. 2-5 parameters through the shared :data:`DEFAULT_PARAM_CACHE`."""
    return DEFAULT_PARAM_CACHE.get(n_objects, density, max_entries, ndim,
                                   fill)
