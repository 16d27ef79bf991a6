"""Inputs derive from ``--seed`` through a stable mix, never ``hash()``.

The program under test receives only what is generated here; it never
sees the seed.
"""

from __future__ import annotations

import zlib

__all__ = ["mix"]

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix(seed: int, *stream: int | str) -> int:
    """A 63-bit sub-seed for one named input stream of one run.

    ``stream`` names the consumer (``"uniform-60k"``, ``"r1"``, a point
    index); the same seed and stream give the same value on every
    interpreter, platform and ``PYTHONHASHSEED``.
    """
    x = _splitmix64(seed & _MASK)
    for part in stream:
        if isinstance(part, str):
            part = zlib.crc32(part.encode("utf-8"))
        x = _splitmix64(x ^ (part & _MASK))
    return x >> 1
