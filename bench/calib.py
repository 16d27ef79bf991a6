"""The frozen calibration kernel every timing is normalised by.

Host speed in the sandbox drifts over minutes (neighbours on the same
core and caches), so the same code reads 10-50 % apart from one run to
the next.  Each timed sample is therefore bracketed by two readings of
this kernel and reported as ``t * CALIB_NOMINAL_S / mean(before,
after)``: the time the operation would have taken on a host on which
the kernel takes its nominal time.

What the kernel does was chosen by measurement (README.md, "Choosing
the calibration kernel"): a slow phase of the host costs object-heavy
Python two to three times what it costs a tight loop or a NumPy sort,
and the program under test is object-heavy Python even inside its NumPy
engines.  The kernel is therefore mostly a miniature of that mix that
shares no code with the program — boxes inserted into the bucket that
grows least (attribute reads, tuple allocation, method calls, ``min``
with a key), full buckets split by a keyed sort — plus a smaller NumPy
part (stable argsort, compare, ``repeat`` over float64).  Its inputs
come from a fixed LCG and depend on nothing the benchmark is given.

**Changing anything in this file re-baselines every normalised number.**
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["CALIB_NOMINAL_S", "Kernel"]

#: Nominal duration of one reading, measured once by the builder of the
#: benchmark (median of 1 000 readings on the 2-core sandbox) and frozen.
CALIB_NOMINAL_S = 0.050

_BOXES = 420
_BUCKET_CAPACITY = 12
_FLOATS = 100_000


def _lcg(n: int, state: int) -> list[float]:
    """``n`` reproducible floats in [0, 1)."""
    out = []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
        out.append((state >> 11) / 2.0 ** 53)
    return out


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: tuple, hi: tuple):
        self.lo = lo
        self.hi = hi

    def area(self) -> float:
        out = 1.0
        for lo, hi in zip(self.lo, self.hi):
            out *= hi - lo
        return out

    def union(self, other: "_Box") -> "_Box":
        return _Box(tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
                    tuple(max(a, b) for a, b in zip(self.hi, other.hi)))

    def enlargement(self, other: "_Box") -> float:
        return self.union(other).area() - self.area()


class _Bucket:
    __slots__ = ("box", "items")

    def __init__(self, box: _Box, items: list):
        self.box = box
        self.items = items

    def tighten(self) -> None:
        box = self.items[0]
        for item in self.items[1:]:
            box = box.union(item)
        self.box = box


class Kernel:
    """One process's calibration kernel; :meth:`read` times one pass."""

    def __init__(self) -> None:
        raw = _lcg(4 * _BOXES, 0xA5A5A5A5DEADBEEF)
        self._boxes = [
            _Box((x, y), (x + 0.02 * w, y + 0.02 * h))
            for x, y, w, h in zip(raw[0::4], raw[1::4], raw[2::4], raw[3::4])]
        self._floats = np.asarray(_lcg(_FLOATS, 0xD1B54A32D192ED03))
        self._expected = self._work()

    def _work(self) -> tuple[int, int]:
        buckets = [_Bucket(self._boxes[0], [])]
        for box in self._boxes:
            best = min(buckets, key=lambda b: (b.box.enlargement(box),
                                               b.box.area()))
            best.items.append(box)
            best.box = best.box.union(box)
            if len(best.items) > _BUCKET_CAPACITY:
                wide = best.box.hi[0] - best.box.lo[0]
                tall = best.box.hi[1] - best.box.lo[1]
                axis = 0 if wide > tall else 1
                best.items.sort(key=lambda item: item.lo[axis])
                half = len(best.items) // 2
                other = _Bucket(best.box, best.items[half:])
                best.items = best.items[:half]
                best.tighten()
                other.tighten()
                buckets.append(other)
        a = self._floats
        order = np.argsort(a, kind="stable")
        above = a[order] > 0.5
        doubled = np.repeat(order, 2)
        return len(buckets), int(above.sum()) + int(doubled[-1])

    def read(self) -> float:
        """Seconds one pass of the kernel takes right now."""
        start = time.perf_counter()
        got = self._work()
        elapsed = time.perf_counter() - start
        if got != self._expected:
            raise RuntimeError("calibration kernel is not deterministic")
        return elapsed
