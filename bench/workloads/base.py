"""What the runner asks of a workload."""

from __future__ import annotations

import time
from pathlib import Path

from ..spans import Recorder

__all__ = ["Workload", "peak_rss_mb"]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workload:
    """One set of inputs and the operations timed on it.

    The constructor makes the inputs from the seed (untimed).  The
    runner then calls :meth:`setup` several times (with
    :meth:`teardown` between), :meth:`reference` once, :meth:`once` in
    traced runs only, and :meth:`round` until the window closes.
    ``layer`` collects the exact counters and once-per-run readings by
    per-layer metric name.
    """

    name = ""

    def __init__(self, seed: int, rec: Recorder, out: Path):
        self.seed = seed
        self.rec = rec
        self.out = out
        self.layer: dict[str, float] = {}

    def setup(self) -> None:
        """What the user pays before the first operation."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup`; must be safe to call twice."""

    def close(self) -> None:
        """Remove what the constructor left on disk."""

    def reference(self, timer) -> None:
        """Run the oracle, outside the timed window."""

    def once(self, timer) -> None:
        """Once-per-run readings of a traced run."""

    def round(self, timer) -> None:
        """Execute each timed operation of the workload once."""
        raise NotImplementedError

    def finish(self, timer) -> None:
        """Checks and exact counters that need the whole run."""

    def derive(self, values: dict) -> None:
        """Add readings computed from other per-layer ``values``."""

    def timed(self, name: str, fn, *args, **kwargs):
        """One once-per-run reading: ``(milliseconds, result)`` of a call."""
        start = time.perf_counter()
        out = self.rec.call(name, fn, *args, **kwargs)
        return (time.perf_counter() - start) * 1e3, out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()
