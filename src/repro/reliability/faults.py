"""Deterministic fault injection for the simulated storage path.

:class:`FaultInjector` draws faults from a seeded RNG at configurable
per-read rates, so a chaos run is exactly reproducible: the same seed,
rates, and read sequence produce the same faults.  :class:`FaultyPager`
wraps a :class:`~repro.storage.pager.Pager` and consults the injector on
every ``ReadPage`` (its ``read``); the tree's uncounted reads (``peek``),
writes and allocation pass through untouched (the paper's workloads are
read-only once the trees are built).

Three fault types, mirroring what a real disk/page-cache path exhibits:

* **transient** — the read raises
  :class:`~repro.reliability.errors.TransientPageError`; an immediate
  retry re-draws, so retries eventually succeed (no sticky state);
* **corrupt** — the read raises
  :class:`~repro.reliability.errors.CorruptPageError`, modelling a page
  whose checksum does not verify — retrying is pointless;
* **latency** — the read succeeds but a simulated delay is *accounted*
  (never slept) on the injector, so tests stay fast while the cost is
  still observable.

:class:`StreamFaultInjector` applies the same seeded-decision idea one
layer up, to a byte-stream *transport*: per request it plans whether to
drop the connection mid-request or mid-response, truncate the framed
body, or trickle bytes slow-loris style.  The injector only decides —
executing the plan against real sockets lives in
:mod:`repro.serve.chaos`, keeping this module transport-free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..storage.pager import Pager
from .errors import CorruptPageError, TransientPageError

__all__ = ["FaultInjector", "FaultyPager", "InjectionCounts",
           "StreamFault", "StreamFaultInjector", "StreamInjectionCounts"]


@dataclass
class InjectionCounts:
    """What an injector actually did, for assertions and reports."""

    reads: int = 0
    transients: int = 0
    corruptions: int = 0
    latency_events: int = 0
    accounted_latency: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "reads": self.reads,
            "transients": self.transients,
            "corruptions": self.corruptions,
            "latency_events": self.latency_events,
            "accounted_latency": self.accounted_latency,
        }


@dataclass
class FaultInjector:
    """Seeded, per-read fault source.

    Parameters
    ----------
    seed:
        RNG seed; two injectors with equal seed and rates make identical
        decisions for identical read sequences.
    transient_rate, corrupt_rate, latency_rate:
        Independent per-read probabilities in ``[0, 1]``.
    latency:
        Simulated delay accounted per latency event (seconds).
    """

    seed: int = 0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    latency_rate: float = 0.0
    latency: float = 0.005
    counts: InjectionCounts = field(default_factory=InjectionCounts)

    def __post_init__(self) -> None:
        for name in ("transient_rate", "corrupt_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency < 0.0:
            raise ValueError("latency must be >= 0")
        self._rng = random.Random(self.seed)

    def on_read(self, page_id: int) -> None:
        """Draw faults for one read; raises if the read should fail.

        The draw order (corrupt, transient, latency) is fixed so runs
        with equal configuration are bitwise-reproducible.
        """
        self.counts.reads += 1
        if self.corrupt_rate and self._rng.random() < self.corrupt_rate:
            self.counts.corruptions += 1
            raise CorruptPageError(
                f"injected corruption on page {page_id}", page_id)
        if self.transient_rate and self._rng.random() < self.transient_rate:
            self.counts.transients += 1
            raise TransientPageError(page_id)
        if self.latency_rate and self._rng.random() < self.latency_rate:
            self.counts.latency_events += 1
            self.counts.accounted_latency += self.latency

    def reset(self) -> None:
        """Re-seed the RNG and zero the counters (fresh identical run)."""
        self._rng = random.Random(self.seed)
        self.counts = InjectionCounts()


@dataclass(frozen=True)
class StreamFault:
    """One planned transport fault (see :class:`StreamFaultInjector`).

    ``kind`` is one of ``"none"``, ``"drop-request"`` (close after
    sending ``fraction`` of the request bytes), ``"truncate-frame"``
    (send full headers whose Content-Length promises the whole body,
    then only ``fraction`` of it, then close — a torn JSON frame),
    ``"slow-loris"`` (send the full request ``chunk`` bytes at a time
    with ``delay`` seconds between chunks), or ``"drop-response"``
    (send everything, read a few response bytes, close).
    """

    kind: str
    fraction: float = 1.0
    chunk: int = 1
    delay: float = 0.0


@dataclass
class StreamInjectionCounts:
    """What a stream injector actually planned."""

    requests: int = 0
    drop_request: int = 0
    truncate_frame: int = 0
    slow_loris: int = 0
    drop_response: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "drop_request": self.drop_request,
            "truncate_frame": self.truncate_frame,
            "slow_loris": self.slow_loris,
            "drop_response": self.drop_response,
        }


@dataclass
class StreamFaultInjector:
    """Seeded, per-request transport fault planner.

    Same reproducibility contract as :class:`FaultInjector`: equal seed,
    rates, and request sequence yield the identical fault plan.  Rates
    are independent probabilities drawn in the fixed order
    (drop-request, truncate-frame, slow-loris, drop-response); the first
    hit wins.  ``fraction`` — where a drop or truncation cuts — is drawn
    from the same RNG, so it is reproducible too.
    """

    seed: int = 0
    drop_request_rate: float = 0.0
    truncate_frame_rate: float = 0.0
    slow_loris_rate: float = 0.0
    drop_response_rate: float = 0.0
    chunk: int = 3
    delay: float = 0.002
    counts: StreamInjectionCounts = field(
        default_factory=StreamInjectionCounts)

    def __post_init__(self) -> None:
        for name in ("drop_request_rate", "truncate_frame_rate",
                     "slow_loris_rate", "drop_response_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if self.delay < 0.0:
            raise ValueError("delay must be >= 0")
        self._rng = random.Random(self.seed)

    def plan(self) -> StreamFault:
        """Decide the fault (if any) for the next request."""
        self.counts.requests += 1
        if (self.drop_request_rate
                and self._rng.random() < self.drop_request_rate):
            self.counts.drop_request += 1
            return StreamFault("drop-request",
                               fraction=self._rng.uniform(0.1, 0.9))
        if (self.truncate_frame_rate
                and self._rng.random() < self.truncate_frame_rate):
            self.counts.truncate_frame += 1
            return StreamFault("truncate-frame",
                               fraction=self._rng.uniform(0.1, 0.9))
        if (self.slow_loris_rate
                and self._rng.random() < self.slow_loris_rate):
            self.counts.slow_loris += 1
            return StreamFault("slow-loris", chunk=self.chunk,
                               delay=self.delay)
        if (self.drop_response_rate
                and self._rng.random() < self.drop_response_rate):
            self.counts.drop_response += 1
            return StreamFault("drop-response")
        return StreamFault("none")

    def reset(self) -> None:
        """Re-seed the RNG and zero the counters (fresh identical run)."""
        self._rng = random.Random(self.seed)
        self.counts = StreamInjectionCounts()


class FaultyPager:
    """A :class:`Pager` wrapper that injects faults on reads.

    Structurally a drop-in replacement: everything except :meth:`read`
    delegates to the wrapped pager, and the wrapped pager's pages are
    shared (a tree whose ``pager`` attribute is swapped for a
    ``FaultyPager`` keeps serving the same nodes).  Only the query's
    ``ReadPage`` s — the reads of a
    :class:`~repro.storage.MeteredReader` — draw faults; the tree's own
    uncounted reads (``peek``: its catalog, its arena, its upkeep) do
    not.
    """

    def __init__(self, pager: Pager, injector: FaultInjector):
        self.inner = pager
        self.injector = injector

    @property
    def page_size(self) -> int:
        return self.inner.page_size

    def allocate(self, payload: Any = None) -> int:
        return self.inner.allocate(payload)

    def write(self, page_id: int, payload: Any) -> None:
        self.inner.write(page_id, payload)

    def put(self, page_id: int, payload: Any) -> None:
        self.inner.put(page_id, payload)

    def install(self, source: Any, page_ids: Iterable[int]) -> None:
        self.inner.install(source, page_ids)

    def read(self, page_id: int) -> Any:
        self.injector.on_read(page_id)
        return self.inner.read(page_id)

    def peek(self, page_id: int) -> Any:
        # A catalog or maintenance read is not a ReadPage: no draw.
        return self.inner.peek(page_id)

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.inner

    def __repr__(self) -> str:
        return f"FaultyPager({self.inner!r}, injector={self.injector!r})"
