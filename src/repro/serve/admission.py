"""O(1) cost-model admission and the retry-after estimator.

Admission is the paper's closed loop applied to a shared daemon: Eqs. 7
(NA) and 10 (DA) price a join from catalog statistics alone, so the
service can refuse a query that cannot fit — its own budget's or the
server's — **before a single page is read**.  The expensive part of the
prediction (the Eq. 2-5 parameters, an O(N) density sum) is computed
once per registered tree; per request only the closed-form evaluation
runs, making the admission decision O(1) in the data size.

The same predictions drive backpressure: when the service sheds load it
derives a *retry-after* hint from the estimated remaining cost of the
joins currently running — predicted NA still outstanding, divided by
the observed node-access throughput — rather than a blind constant.
"""

from __future__ import annotations

import threading

from ..exec import Budget, evaluate_admission, predict_join_cost

__all__ = ["CostAdmission", "ThroughputClock"]

#: Assumed node accesses per second before the first completed join
#: calibrates the clock (pure-Python traversal, conservative).
_DEFAULT_NA_RATE = 2000.0

#: Bounds for the retry-after hint (seconds).
_RETRY_AFTER_MIN = 0.1
_RETRY_AFTER_MAX = 60.0


class ThroughputClock:
    """EWMA of observed node accesses per second across completed joins.

    Purely observational: the clock converts *predicted remaining NA*
    into *seconds until a slot frees up*.  It never influences which
    pages a join reads.
    """

    def __init__(self, alpha: float = 0.3,
                 initial_rate: float = _DEFAULT_NA_RATE):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._rate = float(initial_rate)
        self._samples = 0
        self._lock = threading.Lock()

    def observe(self, na: int, seconds: float) -> None:
        """Fold one completed join's measured throughput in."""
        if seconds <= 0.0 or na <= 0:
            return
        rate = na / seconds
        with self._lock:
            if self._samples == 0:
                self._rate = rate
            else:
                self._rate += self._alpha * (rate - self._rate)
            self._samples += 1

    @property
    def na_per_second(self) -> float:
        with self._lock:
            return self._rate

    def seconds_for(self, na: float) -> float:
        """Predicted wall-clock seconds to perform ``na`` node accesses."""
        return max(0.0, na) / max(self.na_per_second, 1e-9)


class CostAdmission:
    """Admission verdicts against per-request and server-wide ceilings."""

    def __init__(self, max_predicted_na: float | None = None,
                 max_predicted_da: float | None = None,
                 clock: ThroughputClock | None = None):
        self.ceiling = Budget(
            max_na=(int(max_predicted_na)
                    if max_predicted_na is not None else None),
            max_da=(int(max_predicted_da)
                    if max_predicted_da is not None else None))
        self.clock = clock if clock is not None else ThroughputClock()

    #: Eq. 7/10 cost of joining two *pre-computed* parameter sets:
    #: O(height) closed-form arithmetic — no tree traversal, no page
    #: read; ``None`` when the model cannot price the pair.  The
    #: governor's own pricing function, handed parameters, not trees.
    predict = staticmethod(predict_join_cost)

    def admit(self, params1, params2,
              request_budget: Budget | None = None,
              ) -> tuple[float, float] | None:
        """Admit or refuse one join request before any page read.

        Checks the prediction against the server ceiling first, then
        against the request's own NA/DA budget.  Returns the
        ``(predicted_na, predicted_da)`` pair on admission (``None``
        when unpriceable — unpriceable queries are admitted, matching
        the governor's best-effort stance).  Raises
        :class:`~repro.exec.AdmissionRejected` with the machine-readable
        Eq. 7/10 estimate on refusal.
        """
        predicted = self.predict(params1, params2)
        if predicted is None:
            return None
        for budget in (self.ceiling, request_budget):
            if budget is None or budget.unlimited:
                continue
            decision = evaluate_admission(budget, *predicted)
            if not decision.allowed:
                raise decision.rejection()
        return predicted

    def retry_after(self, running: list[tuple[float, float]]) -> float:
        """Seconds until the next execution slot is expected to free.

        ``running`` holds ``(predicted_na, elapsed_seconds)`` for every
        join currently executing.  Each join's remaining time is its
        predicted total duration (predicted NA over the observed NA
        throughput) minus the time it has already run; the hint is the
        *minimum* over running joins — the soonest expected completion —
        clamped to a sane band.  With nothing running (pure queue
        pressure) the hint is the lower bound.
        """
        remaining = [
            max(0.0, self.clock.seconds_for(predicted_na) - elapsed)
            for predicted_na, elapsed in running
            if predicted_na is not None
        ]
        hint = min(remaining) if remaining else _RETRY_AFTER_MIN
        return round(min(max(hint, _RETRY_AFTER_MIN), _RETRY_AFTER_MAX), 3)
