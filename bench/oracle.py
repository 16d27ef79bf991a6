"""Output checks against the paper's Fig. 2 stack machine.

The stack machine with nested-loop pair enumeration is the repository's
reference implementation; it runs outside the timed window and every
timed sample must reproduce it.  At 60 000 objects it takes 5-10 s, a
third of a run, so the untraced runs of the two ``join-*`` workloads
take the same stack machine with the vectorized pair kernel as their
reference (0.5 s), and every traced run checks that stand-in against
Fig. 2 on the same trees.
"""

from __future__ import annotations

from repro import ExecutionConfig, spatial_join

__all__ = ["LEVEL_BATCH", "ORACLE", "PBSM", "STAND_IN", "Reference",
           "reference_join", "same_join", "same_pbsm", "batch_levels"]

LEVEL_BATCH = ExecutionConfig(traversal="level-batch",
                              pair_enumeration="vectorized")
PBSM = ExecutionConfig(strategy="pbsm")
ORACLE = ExecutionConfig(traversal="stack", pair_enumeration="nested-loop")
STAND_IN = ExecutionConfig(traversal="stack", pair_enumeration="vectorized")


class Reference:
    """What the oracle produced for one pair of trees."""

    def __init__(self, result, tree1, tree2):
        self.pairs = result.pairs
        self.pair_set = frozenset(result.pairs)
        self.stats = result.stats.as_dict()
        self.by_tree = {"na": {t: result.na(t) for t in ("R1", "R2")},
                        "da": {t: result.da(t) for t in ("R1", "R2")}}
        self.na = result.na_total
        self.da = result.da_total
        self.comparisons = result.comparisons
        #: PBSM scans every page below the roots exactly once.
        self.nonroot_pages = len(tree1.pager) + len(tree2.pager) - 2


def reference_join(tree1, tree2, make_buffer, predicate,
                   config=ORACLE) -> Reference:
    result = spatial_join(tree1, tree2, buffer=make_buffer(),
                          predicate=predicate, config=config)
    return Reference(result, tree1, tree2)


def same_join(result, ref: Reference) -> bool:
    """Pairs in order and NA/DA per tree per level, bit for bit."""
    return result.pairs == ref.pairs and result.stats.as_dict() == ref.stats


def same_pbsm(result, ref: Reference) -> bool:
    """The same pair set (no duplicates), NA = DA = non-root pages."""
    return (len(result.pairs) == len(ref.pair_set)
            and frozenset(result.pairs) == ref.pair_set
            and result.na_total == result.da_total == ref.nonroot_pages)


def batch_levels(metrics) -> int:
    """Levels the level-batch engine advanced; 0 is a silent fallback."""
    return metrics.counter("join.batch.levels").value
