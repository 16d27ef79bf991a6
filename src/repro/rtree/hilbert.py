"""Hilbert space-filling curve indexing for arbitrary dimensionality.

Used by the Hilbert-packed bulk loader (packed R-trees are the setting of
the Kamel-Faloutsos analysis [KF93] the paper's Eq. 1 descends from).  The
implementation is Skilling's 2004 transpose algorithm: coordinates are
quantised onto a ``2^bits`` grid per dimension and mapped to a single
integer whose order follows the Hilbert curve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["hilbert_index", "hilbert_index_float", "hilbert_keys"]


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """Hilbert curve position of an integer grid point.

    Parameters
    ----------
    coords:
        One integer per dimension, each in ``[0, 2**bits)``.
    bits:
        Grid resolution per dimension.
    """
    ndim = len(coords)
    if ndim < 1:
        raise ValueError("need at least one coordinate")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    limit = 1 << bits
    x = list(coords)
    for k, c in enumerate(x):
        if not 0 <= c < limit:
            raise ValueError(
                f"coordinate {c} in dimension {k} outside [0, {limit})"
            )
    if ndim == 1:
        # The 1-d Hilbert curve is the identity.
        return x[0]

    # Skilling's AxestoTranspose: inverse-undo the excess work ...
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1

    # ... then Gray-encode.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[ndim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(ndim):
        x[i] ^= t

    # Interleave the transposed bits, most significant first.
    h = 0
    for b in range(bits - 1, -1, -1):
        for i in range(ndim):
            h = (h << 1) | ((x[i] >> b) & 1)
    return h


def hilbert_index_float(coords: Sequence[float], bits: int = 16) -> int:
    """Hilbert position of a point with coordinates in ``[0, 1]``.

    Coordinates outside the unit interval are clamped; this only matters
    for node MBR centers that stick out marginally due to float rounding.
    """
    limit = (1 << bits) - 1
    grid = []
    for c in coords:
        c = min(max(c, 0.0), 1.0)
        grid.append(min(int(c * (limit + 1)), limit))
    return hilbert_index(grid, bits)


def hilbert_keys(points, bits: int = 16):
    """:func:`hilbert_index_float` of each column of ``points``
    (``(ndim, n)``), one Skilling transform over ``int64`` rows.

    The keys are ``uint64`` when ``ndim * bits <= 64``, else Python
    ints in an object array; either way they sort as the scalar keys do.
    """
    points = np.asarray(points, dtype=np.float64)
    ndim, count = points.shape
    if ndim < 1:
        raise ValueError("need at least one coordinate")
    limit = (1 << bits) - 1
    # The scalar clamp and quantisation, operation for operation.
    clamped = np.minimum(np.maximum(points, 0.0), 1.0)
    x = np.minimum((clamped * (limit + 1)).astype(np.int64), limit)
    if ndim == 1:
        # The 1-d Hilbert curve is the identity.
        return x[0].astype(np.uint64)
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            hit = (x[i] & q) != 0
            t = np.where(hit, 0, (x[0] ^ x[i]) & p)
            x[0] ^= np.where(hit, p, t)
            x[i] ^= t
        q >>= 1
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = np.zeros(count, dtype=np.int64)
    q = m
    while q > 1:
        t ^= np.where(x[ndim - 1] & q, q - 1, 0)
        q >>= 1
    x ^= t
    # Interleave the transposed bits, most significant first.
    dtype, cast = ((object, int) if ndim * bits > 64
                   else (np.uint64, np.uint64))
    h = np.zeros(count, dtype=dtype)
    x = x.astype(dtype)
    for b in range(bits - 1, -1, -1):
        for i in range(ndim):
            h = (h << cast(1)) | ((x[i] >> cast(b)) & cast(1))
    return h
