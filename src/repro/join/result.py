"""Join results: output pairs plus the measured access accounting."""

from __future__ import annotations

from ..exec.budget import BudgetExceeded, Cancelled
from ..exec.checkpoint import JoinCheckpoint
from ..storage import AccessStats

__all__ = ["JoinResult", "PartialJoinResult", "R1", "R2"]

#: Tree labels used throughout the join layer and the cost-model
#: comparisons.  R2 plays the "query tree" role (outer loop of SJ),
#: R1 the "data tree" role (inner loop), matching the paper's Figure 2.
R1 = "R1"
R2 = "R2"


class JoinResult:
    """Output of one spatial-join execution.

    ``pairs`` holds ``(oid1, oid2)`` tuples (object from R1 first);
    ``stats`` the per-tree, per-level NA/DA counters gathered during the
    traversal.  ``comparisons`` counts rectangle-pair predicate
    evaluations — a CPU-cost indicator the paper excludes from its model
    but that the ablation benches report.  ``engine`` names the engine
    that ran (``"level-batch"`` or ``"stack"``, see
    :func:`~repro.join.select_traversal`; ``"pbsm"`` for the partition
    join) and ``fallback`` why it is not the run the config names
    (``None`` when it is).
    """

    def __init__(self, pairs: list[tuple[int, int]], stats: AccessStats,
                 comparisons: int = 0, pair_count: int | None = None, *,
                 engine: str | None = None, fallback: str | None = None):
        self.pairs = pairs
        self.stats = stats
        self.comparisons = comparisons
        self.pair_count = pair_count if pair_count is not None else len(pairs)
        self.engine = engine
        self.fallback = fallback

    @property
    def na_total(self) -> int:
        """Measured node accesses over both trees (paper's NA_total)."""
        return self.stats.na()

    @property
    def da_total(self) -> int:
        """Measured disk accesses over both trees (paper's DA_total)."""
        return self.stats.da()

    def na(self, tree: str) -> int:
        """Node accesses charged to one tree (``"R1"`` or ``"R2"``)."""
        return self.stats.na(tree)

    def da(self, tree: str) -> int:
        """Disk accesses charged to one tree."""
        return self.stats.da(tree)

    @property
    def selectivity_count(self) -> int:
        """Number of qualifying pairs (the quantity §5 wants to model).

        Valid also for measurement-only runs where pairs were counted but
        not materialised.
        """
        return self.pair_count

    #: ``False`` on :class:`PartialJoinResult` — check before trusting
    #: ``pair_count`` as the join's selectivity.
    complete = True

    def __repr__(self) -> str:
        return (f"JoinResult(pairs={len(self.pairs)}, "
                f"NA={self.na_total}, DA={self.da_total})")


class PartialJoinResult(JoinResult):
    """A budget- or cancellation-interrupted join, ready to resume.

    Produced by :class:`~repro.join.sync.SpatialJoin` when its governor
    runs in ``partial`` mode.  Counters (``stats``, ``pair_count``,
    ``comparisons``) are exact for the work done so far; ``checkpoint``
    serializes the traversal frontier so ``resume`` can continue where
    the cut happened with bit-identical NA/DA; ``reason`` is the typed
    stop cause (``BudgetExceeded.as_dict()`` / ``Cancelled.as_dict()``);
    the ``remaining_*`` fields estimate the outstanding cost from the
    Eq. 7/10 predictions minus the observed counters (``None`` when the
    model cannot price the pair).
    """

    complete = False

    def __init__(self, pairs: list[tuple[int, int]], stats: AccessStats,
                 comparisons: int, pair_count: int,
                 checkpoint: JoinCheckpoint,
                 reason: BudgetExceeded | Cancelled,
                 remaining_na_estimate: float | None = None,
                 remaining_da_estimate: float | None = None, *,
                 engine: str | None = None, fallback: str | None = None):
        super().__init__(pairs, stats, comparisons, pair_count,
                         engine=engine, fallback=fallback)
        self.checkpoint = checkpoint
        self.reason = reason
        self.remaining_na_estimate = remaining_na_estimate
        self.remaining_da_estimate = remaining_da_estimate

    def __repr__(self) -> str:
        return (f"PartialJoinResult(pairs={self.pair_count}, "
                f"NA={self.na_total}, DA={self.da_total}, "
                f"reason={self.reason.as_dict().get('error')!r})")
