"""Access accounting for simulated I/O.

The paper measures two quantities:

* ``NA`` — *node accesses*: every ``ReadPage`` call, i.e. the cost when no
  buffer exists;
* ``DA`` — *disk accesses*: ``ReadPage`` calls that miss the buffer, i.e.
  actual reads when a path buffer is kept per tree.

``DA <= NA`` holds by construction.  Both are recorded per tree and per
level so experiments can be compared against the per-level formulas
(Eqs. 6-12) and not just the totals.

A third counter family, ``retries``, records re-attempted reads under
fault injection (see :mod:`repro.reliability`).  Retries are kept apart
from NA/DA on purpose: a retried ``ReadPage`` still records exactly one
NA (and at most one DA) on success, so NA/DA of a faulty run match the
fault-free run bit-for-bit and the retry overhead stays separately
auditable.  ``accounted_backoff`` sums the backoff delay a retry policy
*would* have slept — the simulation accounts time, it never sleeps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["AccessStats"]


@dataclass
class AccessStats:
    """Per-(tree, level) node- and disk-access counters.

    Trees are identified by arbitrary hashable labels (the join code uses
    ``"R1"`` and ``"R2"``); levels follow the paper's convention — leaves
    at level 1, root at level ``h`` (the root is pinned and never counted).
    """

    node_accesses: dict[tuple[object, int], int] = field(
        default_factory=lambda: defaultdict(int))
    disk_accesses: dict[tuple[object, int], int] = field(
        default_factory=lambda: defaultdict(int))
    retries: dict[tuple[object, int], int] = field(
        default_factory=lambda: defaultdict(int))
    accounted_backoff: float = 0.0
    # Grand totals, maintained incrementally: the execution governor
    # polls na()/da() at every node-pair visit, and summing the
    # per-(tree, level) maps there turns a budgeted join O(levels)
    # slower per visit than an unbudgeted one.
    _na_total: int = field(default=0, repr=False)
    _da_total: int = field(default=0, repr=False)

    def record(self, tree: object, level: int, buffer_hit: bool) -> None:
        """Record one ``ReadPage``; a buffer hit costs NA but not DA."""
        key = (tree, level)
        self.node_accesses[key] += 1
        self._na_total += 1
        if not buffer_hit:
            self.disk_accesses[key] += 1
            self._da_total += 1

    def record_counts(self, tree: object, level: int, na: int,
                      da: int) -> None:
        """Record ``na`` ``ReadPage`` s at once, ``da`` of them buffer
        misses: the counters ``na`` calls of :meth:`record` leave."""
        key = (tree, level)
        if na:
            self.node_accesses[key] += na
            self._na_total += na
        if da:
            self.disk_accesses[key] += da
            self._da_total += da

    def record_retry(self, tree: object, level: int,
                     backoff: float = 0.0) -> None:
        """Record one failed read attempt and its accounted backoff."""
        self.retries[(tree, level)] += 1
        self.accounted_backoff += backoff

    # -- aggregations -------------------------------------------------------

    def na(self, tree: object | None = None, level: int | None = None) -> int:
        """Total node accesses, optionally filtered by tree and/or level."""
        if tree is None and level is None:
            return self._na_total
        return self._total(self.node_accesses, tree, level)

    def da(self, tree: object | None = None, level: int | None = None) -> int:
        """Total disk accesses, optionally filtered by tree and/or level."""
        if tree is None and level is None:
            return self._da_total
        return self._total(self.disk_accesses, tree, level)

    def retry_count(self, tree: object | None = None,
                    level: int | None = None) -> int:
        """Total retried reads, optionally filtered by tree and/or level."""
        return self._total(self.retries, tree, level)

    @staticmethod
    def _total(counts: dict[tuple[object, int], int],
               tree: object | None, level: int | None) -> int:
        out = 0
        for (t, lv), n in counts.items():
            if tree is not None and t != tree:
                continue
            if level is not None and lv != level:
                continue
            out += n
        return out

    def levels(self, tree: object) -> list[int]:
        """Sorted list of levels with at least one access for ``tree``."""
        return sorted({lv for (t, lv) in self.node_accesses if t == tree})

    def merge(self, other: "AccessStats") -> None:
        """Fold another stats object into this one (for batched runs)."""
        for key, n in other.node_accesses.items():
            self.node_accesses[key] += n
        for key, n in other.disk_accesses.items():
            self.disk_accesses[key] += n
        for key, n in other.retries.items():
            self.retries[key] += n
        self.accounted_backoff += other.accounted_backoff
        self._na_total += other._na_total
        self._da_total += other._da_total

    def reset(self) -> None:
        """Zero every counter."""
        self.node_accesses.clear()
        self.disk_accesses.clear()
        self.retries.clear()
        self.accounted_backoff = 0.0
        self._na_total = 0
        self._da_total = 0

    def as_dict(self) -> dict[str, object]:
        """A JSON-friendly summary keyed by ``"<tree>@<level>"``.

        Three counter maps (``str -> int``) plus the float
        ``accounted_backoff`` scalar — which is why the value type is
        ``object``, not a uniform counter map.
        """
        return {
            "node_accesses": {
                f"{t}@{lv}": n for (t, lv), n in
                sorted(self.node_accesses.items(), key=lambda kv: str(kv[0]))
            },
            "disk_accesses": {
                f"{t}@{lv}": n for (t, lv), n in
                sorted(self.disk_accesses.items(), key=lambda kv: str(kv[0]))
            },
            "retries": {
                f"{t}@{lv}": n for (t, lv), n in
                sorted(self.retries.items(), key=lambda kv: str(kv[0]))
            },
            "accounted_backoff": self.accounted_backoff,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AccessStats":
        """Rebuild counters from :meth:`as_dict` output.

        Used by checkpoint restore and as the parallel join's process
        transport; tree labels round-trip as strings (the join layer's
        ``"R1"``/``"R2"``), so counters resumed from a checkpoint merge
        bit-identically with the pre-cut counters.  Unknown keys are
        rejected rather than silently dropped — a counter section this
        class doesn't know about would otherwise vanish in transport.
        """
        known = ("node_accesses", "disk_accesses", "retries",
                 "accounted_backoff")
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ValueError(
                f"unknown AccessStats sections {unknown!r} "
                f"(expected a subset of {sorted(known)!r})")
        stats = cls()
        for attr in ("node_accesses", "disk_accesses", "retries"):
            for key, n in (doc.get(attr) or {}).items():
                label, _, level = key.rpartition("@")
                getattr(stats, attr)[(label, int(level))] += int(n)
        stats.accounted_backoff = float(doc.get("accounted_backoff", 0.0))
        stats._na_total = sum(stats.node_accesses.values())
        stats._da_total = sum(stats.disk_accesses.values())
        return stats

    def __repr__(self) -> str:
        extra = (f", retries={self.retry_count()}"
                 if self.retries else "")
        return f"AccessStats(NA={self.na()}, DA={self.da()}{extra})"
