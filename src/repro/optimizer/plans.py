"""Physical plans for multi-way spatial join queries.

The plan algebra mirrors what the paper's cost model can price:

* :class:`IndexScanPlan` — a base relation with its R-tree;
* :class:`SpatialJoinPlan` — the SJ synchronized traversal between two
  *indexed* base relations, with an explicit data/query role assignment
  (the DA model is role-sensitive — Figure 7's point);
* :class:`PBSMJoinPlan` — the partition-based (PBSM-style) join between
  two indexed base relations: both trees are scanned once into a uniform
  grid and joined tile by tile, so the priced I/O is one full non-root
  scan of each tree regardless of selectivity (role-symmetric);
* :class:`IndexNestedLoopPlan` — an unindexed intermediate result streamed
  as query windows over an indexed base relation (one Eq. 1 range query
  per tuple), which is how later joins of a pipeline are priced.

Each plan carries estimated output statistics (cardinality, average tuple
MBR extents) so parent operators can be priced; estimation uses the §5
selectivity model.
"""

from __future__ import annotations

from ..costmodel import intsect
from .catalog import CatalogEntry

__all__ = ["Plan", "IndexScanPlan", "SpatialJoinPlan",
           "PBSMJoinPlan", "IndexNestedLoopPlan"]


class Plan:
    """A node of a physical plan tree.

    ``cost`` is the estimated I/O (disk accesses) of executing this node
    and everything below it; ``out_cardinality`` and ``out_extents`` are
    the estimated result statistics used to price parent operators.
    """

    cost: float
    out_cardinality: float
    out_extents: tuple[float, ...]

    def relations(self) -> frozenset[str]:
        """Names of the base relations this plan covers."""
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Human-readable plan tree."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()


class IndexScanPlan(Plan):
    """A base relation accessed through its R-tree (no standalone cost —
    the consuming join operator prices all page reads)."""

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.cost = 0.0
        self.out_cardinality = float(entry.cardinality)
        self.out_extents = entry.average_extents

    def relations(self) -> frozenset[str]:
        return frozenset({self.entry.name})

    def describe(self, indent: int = 0) -> str:
        return (" " * indent
                + f"IndexScan({self.entry.name}, "
                  f"N={self.entry.cardinality})")


class SpatialJoinPlan(Plan):
    """SJ between two indexed relations; ``data`` is R1, ``query`` R2.

    The plan prices page reads; which traversal engine issues them is
    the executor's ``ExecutionConfig`` (both engines issue the identical
    ``ReadPage`` sequence, so Eq. 7/10 apply to either).
    """

    def __init__(self, data: IndexScanPlan, query: IndexScanPlan,
                 cost: float, out_cardinality: float):
        self.data = data
        self.query = query
        self.cost = cost
        self.out_cardinality = out_cardinality
        # A qualifying pair's MBR spans both tuples; under overlap the
        # combined extent is bounded by (and close to) the extent sum.
        self.out_extents = tuple(
            min(1.0, a + b)
            for a, b in zip(data.out_extents, query.out_extents))

    def relations(self) -> frozenset[str]:
        return self.data.relations() | self.query.relations()

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        inner = " " * (indent + 2)
        return (f"{pad}SpatialJoin(cost={self.cost:.0f}, "
                f"out~{self.out_cardinality:.0f})\n"
                f"{inner}data  (R1): {self.data.describe().strip()}\n"
                f"{inner}query (R2): {self.query.describe().strip()}")


class PBSMJoinPlan(Plan):
    """Partition-based join between two indexed relations.

    The PBSM engine bulk-scans both trees' leaf entries (charging every
    non-root page exactly once), tiles them into a uniform grid, and
    plane-sweeps each tile in memory — so its cost is independent of
    join selectivity and identical under the NA and DA metrics (no page
    is ever revisited, hence no buffer effect to model).  The engine is
    role-symmetric; ``data``/``query`` only name which tree feeds R1/R2
    of the emitted pairs.
    """

    def __init__(self, data: IndexScanPlan, query: IndexScanPlan,
                 cost: float, out_cardinality: float):
        self.data = data
        self.query = query
        self.cost = cost
        self.out_cardinality = out_cardinality
        self.out_extents = tuple(
            min(1.0, a + b)
            for a, b in zip(data.out_extents, query.out_extents))

    def relations(self) -> frozenset[str]:
        return self.data.relations() | self.query.relations()

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        inner = " " * (indent + 2)
        return (f"{pad}PBSMJoin(cost={self.cost:.0f}, "
                f"out~{self.out_cardinality:.0f})\n"
                f"{inner}R1: {self.data.describe().strip()}\n"
                f"{inner}R2: {self.query.describe().strip()}")


class IndexNestedLoopPlan(Plan):
    """Stream a sub-plan's result as range queries over an indexed base."""

    def __init__(self, stream: Plan, indexed: IndexScanPlan,
                 cost: float):
        self.stream = stream
        self.indexed = indexed
        self.cost = cost
        entry = indexed.entry
        per_probe = intsect(entry.cardinality, entry.average_extents,
                            stream.out_extents)
        self.out_cardinality = stream.out_cardinality * per_probe
        self.out_extents = tuple(
            min(1.0, a + b)
            for a, b in zip(stream.out_extents, indexed.out_extents))

    def relations(self) -> frozenset[str]:
        return self.stream.relations() | self.indexed.relations()

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        inner = " " * (indent + 2)
        return (f"{pad}IndexNestedLoop(cost={self.cost:.0f}, "
                f"out~{self.out_cardinality:.0f})\n"
                f"{inner}probe: {self.indexed.describe().strip()}\n"
                f"{inner}stream:\n"
                f"{self.stream.describe(indent + 4)}")
