"""The execution governor: admission, budgets, and cancellation.

An :class:`ExecutionGovernor` rides along one query execution.  The
traversals (:mod:`repro.join.sync`, :mod:`repro.join.nested_loop`,
:mod:`repro.join.parallel`, :mod:`repro.optimizer.executor`) call
:meth:`ExecutionGovernor.check` at every node-pair visit; the governor
observes the shared :class:`~repro.storage.AccessStats` and raises a
typed :class:`~repro.exec.budget.BudgetExceeded` or
:class:`~repro.exec.budget.Cancelled` the moment the budget is gone or
the token is cancelled.  Because the check sits *between* node-pair
visits, stopping is always clean: counters are consistent and (in the
spatial join) the frontier can be checkpointed.

What makes this paper's setting special is **admission control**: Eqs.
6/7 (NA) and 8-10 (DA) predict the join's cost from primitive data
properties alone, so the governor can refuse — or warn about — a query
whose *predicted* cost already exceeds the budget, before a single page
is read.  This closes the same predict-vs-execute loop the optimizer
uses for role assignment [TS96], but for resource governance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..costmodel.params import AnalyticalTreeParams, DEFAULT_FILL
from ..estimator import Estimator
from ..geometry import TreeArena
from ..geometry.arena import run_slots
from ..reliability import ModelDomainError
from ..rtree.node import LEAF_LEVEL
from ..storage import AccessStats
from .budget import (UNLIMITED, AdmissionRejected, Budget, BudgetExceeded,
                     Cancelled)
from .cancellation import CancellationToken

__all__ = ["ExecutionGovernor", "AdmissionDecision", "ADMISSION_MODES",
           "evaluate_admission", "predict_join_cost", "tree_params"]

#: Admission behaviours: ignore predictions, warn when they exceed the
#: budget, or reject the query outright (exit code 5 in the CLI).
ADMISSION_MODES = ("off", "warn", "reject")


def tree_params(tree: Any, fill: float = DEFAULT_FILL,
                ) -> AnalyticalTreeParams:
    """Eq. 2-5 parameters from a built tree's primitive properties.

    Uses only the cardinality and summed data-rectangle area (the
    density ``D``) — the statistics a real SDBMS keeps in its catalog —
    and is the one place that derives them.  No metered page read is
    performed: nothing touches a :class:`~repro.storage.MeteredReader`
    or a buffer.  The sum is read from the tree's arena
    (:func:`_leaf_area`), so a packed or loaded tree builds no node to
    be priced, and it is remembered with the tree
    (:meth:`~repro.rtree.RTreeBase.derived`) until the tree changes:
    pricing the same trees again costs one clock comparison.  A
    tree-like without that catalog is summed per call.  The arena is
    built from uncounted node reads, so a pager that injects faults
    into the join's ``ReadPage`` s never fails it.  The Eq. 2-5
    parameters are derived afresh on each call.
    """
    derived = getattr(tree, "derived", None)
    catalog = {} if derived is None else derived()
    if "leaf_area" not in catalog:
        catalog["leaf_area"] = _leaf_area(tree.arena())
    return AnalyticalTreeParams(len(tree), catalog["leaf_area"],
                                tree.max_entries, tree.ndim, fill)


def _leaf_area(arena: TreeArena) -> float:
    """The summed area of an arena's leaf rectangles, the bits of
    ``sum(e.rect.area() for e in tree.leaf_entries())``: each area is
    the product of the extents over the axes in order, as
    ``Rect.area`` multiplies, and the areas are added in a left fold
    in slot order (breadth-first, the order of ``leaf_entries``), as
    ``sum`` adds floats (before Python 3.12, which compensates).  An
    arena without leaf entries sums to ``0``.
    """
    runs = [(offset, count) for offset, count, level
            in arena.index.values() if level == LEAF_LEVEL]
    offset, count = np.array(runs, np.int64).reshape(-1, 2).T
    slots = run_slots(offset, count)
    if not len(slots):
        return 0
    lo, hi = arena._coords[:, :, slots]
    area = hi[0] - lo[0]
    for k in range(1, arena.ndim):
        area *= hi[k] - lo[k]
    return float(np.add.accumulate(area)[-1])


def predict_join_cost(left: Any, right: Any,
                      ) -> tuple[float, float] | None:
    """Predicted (NA, DA) of one join, Eqs. 7 and 10 — the one price
    admission, the ledger and remaining-cost estimates read.

    Each side is a built tree, reduced to its :func:`tree_params`, or
    parameters already derived (anything with ``nodes_at``, as the
    daemon keeps per registered tree: closed-form admission).  ``None``
    when the cost model cannot price the pair — an empty tree, say.  The
    estimate is best-effort: a failed prediction never aborts the query
    it was meant to price.
    """
    try:
        est = Estimator(*(side if hasattr(side, "nodes_at")
                          else tree_params(side)
                          for side in (left, right)))
        return est.na(), est.da()
    except (ModelDomainError, ValueError):
        return None


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of comparing the predicted cost against a budget."""

    allowed: bool
    resource: str | None = None      #: first violated axis, or ``None``
    limit: float | None = None
    predicted_na: float | None = None
    predicted_da: float | None = None

    def as_dict(self) -> dict[str, object]:
        return {"allowed": self.allowed, "resource": self.resource,
                "limit": self.limit, "predicted_na": self.predicted_na,
                "predicted_da": self.predicted_da}

    def rejection(self) -> AdmissionRejected:
        """The typed refusal of a decision that is not ``allowed``:
        the violated axis, its limit and the prediction that broke it."""
        return AdmissionRejected(
            self.resource, self.limit,
            self.predicted_na if self.resource == "na"
            else self.predicted_da)


def evaluate_admission(budget: Budget,
                       predicted_na: float | None,
                       predicted_da: float | None) -> AdmissionDecision:
    """Pure admission verdict: does the prediction fit the budget?

    The deadline and result axes are not predictable from Eqs. 6-10 and
    are never grounds for refusal here.
    """
    if predicted_na is not None and budget.max_na is not None \
            and predicted_na > budget.max_na:
        return AdmissionDecision(False, "na", budget.max_na,
                                 predicted_na, predicted_da)
    if predicted_da is not None and budget.max_da is not None \
            and predicted_da > budget.max_da:
        return AdmissionDecision(False, "da", budget.max_da,
                                 predicted_na, predicted_da)
    return AdmissionDecision(True, None, None, predicted_na, predicted_da)


class ExecutionGovernor:
    """Budget + cancellation enforcement for one query execution.

    Parameters
    ----------
    budget:
        Resource limits; defaults to unlimited.
    token:
        Cooperative cancellation token; a private one is created when
        omitted.
    partial:
        When ``True``, the spatial join converts a budget/cancellation
        stop into a :class:`~repro.join.PartialJoinResult` carrying a
        resumable checkpoint instead of raising.  Only the synchronized
        traversal supports this; other consumers refuse a partial
        governor.
    admission:
        ``"off"``, ``"warn"`` or ``"reject"`` — what
        :meth:`admit` does when the predicted cost exceeds the budget.
    clock:
        Monotonic time source (injectable for deterministic tests).

    The deadline is measured from the first :meth:`start` (or first
    :meth:`check`, whichever comes first); call :meth:`reset` to reuse a
    governor for a fresh execution.
    """

    def __init__(self, budget: Budget = UNLIMITED,
                 token: CancellationToken | None = None,
                 partial: bool = False,
                 admission: str = "off",
                 clock: Callable[[], float] = time.monotonic):
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}")
        self.budget = budget
        self.token = token if token is not None else CancellationToken()
        self.partial = partial
        self.admission = admission
        self.last_admission: AdmissionDecision | None = None
        self._clock = clock
        self._started: float | None = None
        self.checks = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the deadline clock (idempotent; first caller wins)."""
        if self._started is None:
            self._started = self._clock()

    def reset(self) -> None:
        """Forget the start time and check count (reuse the governor)."""
        self._started = None
        self.checks = 0

    def elapsed(self) -> float:
        """Seconds since :meth:`start`; zero before the clock started."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def spawn(self, extra_token: CancellationToken | None = None,
              ) -> "ExecutionGovernor":
        """A worker-side view of this governor (for the parallel join).

        Shares the budget and clock, links the worker's token to this
        governor's (plus an optional abort token raised when a sibling
        fails), inherits an already-running deadline, and is never
        partial — workers raise, the coordinator decides.
        """
        if extra_token is None:
            token = self.token
        else:
            token = CancellationToken(self.token, extra_token)
        worker = ExecutionGovernor(self.budget, token, partial=False,
                                   admission="off", clock=self._clock)
        worker._started = self._started
        return worker

    # -- enforcement --------------------------------------------------------

    def check(self, stats: AccessStats, results: int = 0) -> None:
        """One cooperative checkpoint, called at every node-pair visit.

        Raises :class:`Cancelled` when the token was cancelled, else
        :class:`BudgetExceeded` for the first exhausted axis (deadline,
        then NA, DA, results).  Returning normally means execution may
        proceed with the next node pair.
        """
        self.checks += 1
        if self.token.cancelled:
            raise Cancelled()
        budget = self.budget
        if budget.deadline is not None:
            self.start()
            elapsed = self.elapsed()
            if elapsed >= budget.deadline:
                raise BudgetExceeded("deadline", budget.deadline, elapsed)
        if budget.max_na is not None:
            na = stats.na()
            if na >= budget.max_na:
                raise BudgetExceeded("na", budget.max_na, na)
        if budget.max_da is not None:
            da = stats.da()
            if da >= budget.max_da:
                raise BudgetExceeded("da", budget.max_da, da)
        if budget.max_results is not None and results >= budget.max_results:
            raise BudgetExceeded("results", budget.max_results, results)

    def admit(self, tree1: Any, tree2: Any) -> AdmissionDecision:
        """Admission control over two built trees, before any page read.

        Evaluates the Eq. 7/10 predictions against the budget.  In
        ``"reject"`` mode a violating query raises
        :class:`AdmissionRejected`; in ``"warn"`` (and ``"reject"`` with
        a fitting query) the decision is returned and kept as
        :attr:`last_admission` for callers to report.  ``"off"`` skips
        the prediction entirely.
        """
        if self.admission == "off":
            decision = AdmissionDecision(True)
        else:
            predicted = predict_join_cost(tree1, tree2)
            if predicted is None:
                decision = AdmissionDecision(True)
            else:
                decision = evaluate_admission(self.budget, *predicted)
        self.last_admission = decision
        if not decision.allowed and self.admission == "reject":
            raise decision.rejection()
        return decision

    def __repr__(self) -> str:
        return (f"ExecutionGovernor(budget={self.budget!r}, "
                f"partial={self.partial}, admission={self.admission!r}, "
                f"checks={self.checks})")
