"""Join results: output pairs plus the measured access accounting."""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

import numpy as np

from ..exec.budget import BudgetExceeded, Cancelled
from ..exec.checkpoint import JoinCheckpoint
from ..storage import AccessStats

__all__ = ["JoinResult", "PairList", "PartialJoinResult", "R1", "R2"]

#: Tree labels used throughout the join layer and the cost-model
#: comparisons.  R2 plays the "query tree" role (outer loop of SJ),
#: R1 the "data tree" role (inner loop), matching the paper's Figure 2.
R1 = "R1"
R2 = "R2"


def _frozen(refs) -> np.ndarray:
    """A read-only one-dimensional ``int64`` view of ``refs``."""
    view = np.asarray(refs, dtype=np.int64).view()
    if view.ndim != 1:
        raise ValueError(f"pair columns must be one-dimensional, "
                         f"got shape {view.shape}")
    view.flags.writeable = False
    return view


class PairList(Sequence[tuple[int, int]]):
    """A join's result pairs as two read-only ``int64`` columns.

    ``refs1[k]`` and ``refs2[k]`` are the object ids of the ``k``-th
    pair (R1 first).  As a sequence it reads like the list of
    ``(oid1, oid2)`` tuples it replaces: indexing and iteration yield
    tuples of Python ``int``, a slice is a ``PairList``, and ``==``
    holds against another ``PairList`` with equal columns or against a
    list or tuple of the same pairs in the same order.  It is
    unhashable, like a list, and pickles as its two arrays.
    :meth:`tolist` is the JSON form, ``[[oid1, oid2], ...]``.
    """

    __slots__ = ("refs1", "refs2")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, refs1=(), refs2=()):
        self.refs1 = _frozen(refs1)
        self.refs2 = _frozen(refs2)
        if len(self.refs1) != len(self.refs2):
            raise ValueError(f"pair columns differ in length: "
                             f"{len(self.refs1)} != {len(self.refs2)}")

    @classmethod
    def of(cls, pairs: Iterable) -> "PairList":
        """``pairs`` as a ``PairList``: itself if it is one, else its
        ``(oid1, oid2)`` items copied into two columns."""
        if isinstance(pairs, PairList):
            return pairs
        block = np.array(list(pairs), dtype=np.int64)
        if block.size == 0:
            return cls()
        if block.ndim != 2 or block.shape[1] != 2:
            raise ValueError(f"pairs must be (oid1, oid2) items, "
                             f"got shape {block.shape}")
        return cls(block[:, 0].copy(), block[:, 1].copy())

    @classmethod
    def concat(cls, parts: Iterable["PairList"]) -> "PairList":
        """The ``PairList`` s of ``parts`` one after another."""
        parts = list(parts)
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls()
        return cls(np.concatenate([p.refs1 for p in parts]),
                   np.concatenate([p.refs2 for p in parts]))

    def __len__(self) -> int:
        return len(self.refs1)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PairList(self.refs1[index], self.refs2[index])
        index = operator.index(index)
        return int(self.refs1[index]), int(self.refs2[index])

    def __iter__(self):
        return zip(self.refs1.tolist(), self.refs2.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, PairList):
            return (np.array_equal(self.refs1, other.refs1)
                    and np.array_equal(self.refs2, other.refs2))
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and list(self) == list(other)
        return NotImplemented

    def __add__(self, other) -> "PairList":
        return PairList.concat((self, PairList.of(other)))

    def __reduce__(self):
        return PairList, (self.refs1, self.refs2)

    def __repr__(self) -> str:
        return f"PairList(n={len(self)}, head={list(self[:3])})"

    def tolist(self) -> list[list[int]]:
        """``[[oid1, oid2], ...]`` — what JSON documents carry."""
        return np.stack((self.refs1, self.refs2), axis=1).tolist()


class JoinResult:
    """Output of one spatial-join execution.

    ``pairs`` is a :class:`PairList`: the ``(oid1, oid2)`` pairs
    (object from R1 first) in the order the join produced them, held
    as two ``int64`` columns; whatever sequence of pairs the result is
    built from is converted once, here.  With ``collect_pairs=False``
    it is empty and ``pair_count`` alone says how many there were.
    ``stats`` holds the per-tree, per-level NA/DA counters gathered
    during the traversal.  ``comparisons`` counts rectangle-pair predicate
    evaluations — a CPU-cost indicator the paper excludes from its model
    but that the ablation benches report.  ``engine`` names the engine
    that ran (``"level-batch"`` or ``"stack"``, see
    :func:`~repro.join.select_traversal`; ``"pbsm"`` for the partition
    join) and ``fallback`` why it is not the run the config names
    (``None`` when it is).
    """

    def __init__(self, pairs: Iterable, stats: AccessStats,
                 comparisons: int = 0, pair_count: int | None = None, *,
                 engine: str | None = None, fallback: str | None = None):
        self.pairs = PairList.of(pairs)
        self.stats = stats
        self.comparisons = comparisons
        self.pair_count = (pair_count if pair_count is not None
                           else len(self.pairs))
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
        return (f"JoinResult(pairs={self.pair_count}, "
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

    def __init__(self, pairs: Iterable, stats: AccessStats,
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
