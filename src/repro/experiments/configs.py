"""Experiment parameter grids.

A profile is the one scale selector of the experiment registry:
``python -m repro experiment <id> [--scale paper]`` regenerates a table
at it, and ``pytest benchmarks/`` checks every experiment's claims at
:data:`BENCH_SCALE`.  Every size an experiment uses — cardinalities,
densities, the node capacity ``M`` — comes from here.

* :data:`PAPER_SCALE` — the paper's exact setup: 1 Kbyte pages giving
  ``M = 84`` (n=1) / ``M = 50`` (n=2), cardinalities 20K-80K, average
  capacity 67%.  An 80K-object R*-tree builds in about half a minute
  (0.4 ms per insert) and a whole 16-combination Figure 5 grid (400K
  inserts) in 2-3 minutes.
* :data:`BENCH_SCALE` — the default: 512-byte pages giving ``M = 41`` /
  ``M = 24`` and cardinalities 2K-10K, chosen so the *structure* of the
  paper's figures is preserved (DESIGN.md §3):

  - n=1: every tree has height 3 across the whole grid — Figure 5a/6a's
    linear plots;
  - n=2: heights transition from 3 (2K, 4K) to 4 (8K, 10K) — Figure
    5b/6b's kink — with the 4K-8K gap placed so the analytical Eq. 2 and
    the real R*-tree agree on which side of the transition every grid
    point lies (5K-7K is a borderline zone where they can differ).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import node_capacity

__all__ = ["ExperimentScale", "BENCH_SCALE", "PAPER_SCALE", "SMOKE_SCALE"]


@dataclass(frozen=True)
class ExperimentScale:
    """One consistent set of experiment parameters."""

    name: str
    page_size: int
    cardinalities: tuple[int, ...]
    density: float = 0.5
    densities: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    fill: float = 0.67

    def max_entries(self, ndim: int) -> int:
        """Node capacity ``M`` for the profile's page size."""
        return node_capacity(self.page_size, ndim)


#: Default profile: the CI-sized view, seconds per tree.
BENCH_SCALE = ExperimentScale(
    name="bench",
    page_size=512,                      # M = 41 (n=1), M = 24 (n=2)
    cardinalities=(2000, 4000, 8000, 10000),
)

#: The paper's Section 4 setup (HP700-era full size).
PAPER_SCALE = ExperimentScale(
    name="paper",
    page_size=1024,                     # M = 84 (n=1), M = 50 (n=2)
    cardinalities=(20000, 40000, 60000, 80000),
)

#: Tiny profile for fast CI smoke runs of the harness itself.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    page_size=512,
    cardinalities=(500, 1000),
)
