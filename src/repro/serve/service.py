"""The join service: admission, queueing, quotas, execution, drain.

:class:`JoinService` is the transport-agnostic core of the daemon.  It
owns the registered trees (with their Eq. 2-5 parameters cached at
registration, so per-request admission is O(1)), the bounded admission
queue, the per-tenant buffer-page quotas, and the running-join registry
used for cooperative cancellation and drain.  The HTTP layer
(:mod:`repro.serve.http`) is a thin JSON mapping over its two halves:
:meth:`JoinService.admit`, which never blocks and answers a replay or a
refusal itself, and :meth:`JoinService.run`, which executes an admitted
join; :meth:`JoinService.execute` chains them, and tests exercise the
service directly.

Design invariants:

* **Admission before I/O** — a request is priced (Eq. 7/10, closed
  form over cached parameters) and either rejected, queued or admitted
  *before any page read*.  Rejections and sheds carry the
  machine-readable cost estimate.
* **Bounded everything** — at most ``max_concurrency`` joins run, at
  most ``queue_limit`` wait, a queued request waits at most
  ``queue_wait_limit`` seconds; everyone else is shed with a
  retry-after hint derived from the estimated remaining cost of the
  running joins.
* **Bit-identical results** — the service adds governance *around* the
  join, never inside it: a served join's NA/DA/pairs equal a direct
  :class:`~repro.join.SpatialJoin` run of the same configuration.
* **Graceful degradation** — deadlines yield partial results with
  CRC-guarded resume tokens; process-parallel requests fall back to
  serial for trees below the known-unprofitable size threshold or when
  workers die; drain stops intake, lets running joins finish, then
  cancels cooperatively.
* **Crash safety (opt-in)** — with a ``state_dir`` configured, every
  registration and every admitted request is journaled through
  :class:`~repro.serve.durable.DurableState`; serial joins spill their
  checkpoint every ``spill_na_interval`` node accesses, and
  :meth:`JoinService.recover` replays it all after a crash — resumed
  joins produce NA/DA/pairs bit-identical to an uninterrupted run, and
  a retried completed idempotency key is answered from the cache
  without re-executing.  The cache holds each response's wire body, so
  a replay is one lookup and nobody can alter what it replays.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from ..exec import (Budget, CancellationToken, ExecutionGovernor,
                    JoinCheckpoint, tree_params)
from ..io import load_tree
from ..join import (PairList, ParallelJoinResult, PartialJoinResult,
                    SpatialJoin, parallel_spatial_join)
from ..obs import MetricsRegistry
from ..reliability import ReproError
from ..storage import AccessStats, buffer_from_spec
from .admission import CostAdmission, ThroughputClock
from .config import ServeConfig
from .durable import DurableState, JsonText
from .quotas import BufferPool, QuotaExceeded
from .tokens import decode_resume_token, encode_resume_token

__all__ = ["AdmittedJoin", "JoinResponse", "JoinService", "Overloaded",
           "ServiceDraining", "UnknownTree"]

_REQUEST_FIELDS = frozenset({
    "tree1", "tree2", "tenant", "deadline", "max_na", "max_da",
    "max_results", "buffer", "pair_enumeration", "traversal",
    "workers", "mode", "collect_pairs", "resume_token", "admission",
    "idempotency_key", "strategy",
})

#: Request fields that override the service-wide ``ExecutionConfig``
#: under their own name (``workers`` is range-checked separately).
_EXECUTION_FIELDS = ("pair_enumeration", "traversal", "mode", "strategy")


def _journal_request(doc: dict) -> dict:
    """The request as journaled: everything but the resume token.

    A client-supplied checkpoint is captured as the entry's first spill
    instead — the journal stays small and recovery always resumes from
    the *latest* frontier, not the token the client happened to send.
    """
    return {k: v for k, v in doc.items() if k != "resume_token"}


def wire_body(doc: dict) -> bytes:
    """A response document as the daemon sends it: ``json.dumps(doc)``
    and a newline, UTF-8.

    A :class:`~repro.serve.durable.JsonText` value (a response's pairs,
    :func:`_pairs_text`) is spliced in with the default separators: it
    holds only digits, ``-``, brackets and commas, so that form is its
    compact text with ``", "`` for ``","``.
    """
    if not any(isinstance(value, JsonText) for value in doc.values()):
        return (json.dumps(doc) + "\n").encode("utf-8")
    text = ", ".join(
        json.dumps(key) + ": " + (value.replace(",", ", ")
                                  if isinstance(value, JsonText)
                                  else json.dumps(value))
        for key, value in doc.items())
    return ("{" + text + "}\n").encode("utf-8")


def _pairs_text(pairs: PairList) -> JsonText:
    """``json.dumps(pairs.tolist(), separators=(",", ":"))``, written
    straight from the two ``int64`` columns: no per-pair object.

    Each pair is one row of bytes, ``[`` sign digits ``,`` sign digits
    ``]`` ``,``, every number right-aligned in as many digit slots as
    the longest needs.  A zero byte fills the sign of a non-negative
    number and the slots left of a number's first digit; the text is the
    rows without those bytes and without the last comma.
    """
    values = np.stack((pairs.refs1, pairs.refs2), axis=1)
    n = len(values)
    negative = values < 0
    # |value| as uint64: two's-complement negation also fits int64's min.
    mag = values.view(np.uint64)
    mag = np.where(negative, np.uint64(0) - mag, mag)
    width = len(str(int(mag.max(initial=0))))
    # Built column by column (one contiguous (n, 2) plane per byte
    # position), then transposed into the rows at once.
    cols = np.empty((width + 2, n, 2), dtype=np.uint8)
    cols[0, :, 0] = ord("[")
    cols[0, :, 1] = ord(",")
    np.multiply(negative, ord("-"), out=cols[1], casting="unsafe")
    for col in range(width + 1, 1, -1):
        quotient = mag // np.uint64(10)
        digit = cols[col]
        np.subtract(mag, quotient * np.uint64(10), out=digit,
                    casting="unsafe")
        digit += np.uint8(ord("0"))
        if col <= width:             # the units digit is always written
            digit *= mag != 0
        mag = quotient
    rows = np.empty((n, 2 * width + 6), dtype=np.uint8)
    rows[:, :-2].reshape(n, 2, width + 2)[...] = cols.transpose(1, 2, 0)
    rows[:, -2] = ord("]")
    rows[:, -1] = ord(",")
    body = rows.tobytes().replace(b"\0", b"")[:-1].decode("ascii")
    return JsonText("[" + body + "]")


#: A response's top-level fields and a stop reason's, in the order
#: :meth:`JoinService._respond` and ``BudgetExceeded.as_dict`` write
#: them.  The journal keeps a response key-sorted (canonical JSON);
#: recovery puts the keys back in this order, so a restarted daemon
#: replays the bytes its predecessor answered with.
_RESPONSE_ORDER = (
    "join_id", "tenant", "pair_count", "comparisons", "elapsed",
    "predicted_na", "predicted_da", "na", "da", "na_by_tree",
    "da_by_tree", "status", "workers", "pairs", "degraded", "engine",
    "fallback", "reason", "resume_token", "remaining_na_estimate",
    "remaining_da_estimate", "retry_after")
_REASON_ORDER = ("error", "resource", "limit", "observed", "predicted")


def _in_order(doc: dict, order: tuple[str, ...]) -> dict:
    """``doc`` with the keys named in ``order`` first, in that order."""
    out = {k: doc[k] for k in order if k in doc}
    out.update(doc)
    return out


def _recorded_body(response: dict) -> bytes:
    """The wire body of a response read back from the journal."""
    doc = _in_order(response, _RESPONSE_ORDER)
    if isinstance(doc.get("reason"), dict):
        doc["reason"] = _in_order(doc["reason"], _REASON_ORDER)
    return wire_body(doc)


class UnknownTree(ReproError, KeyError):
    """The request names a tree the service has not registered."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown tree {name!r}")

    def __str__(self) -> str:     # KeyError quotes its arg otherwise
        return f"unknown tree {self.name!r}"

    def as_dict(self) -> dict[str, object]:
        return {"error": "unknown-tree", "tree": self.name}


class Overloaded(ReproError):
    """Shed load: queue full, queue wait exhausted, or quota exceeded.

    Carries the retry-after hint (seconds, derived from the estimated
    remaining cost of running joins) and the Eq. 7/10 estimate of the
    shed request itself.
    """

    def __init__(self, reason: str, retry_after: float | None,
                 predicted_na: float | None = None,
                 predicted_da: float | None = None,
                 detail: dict | None = None):
        self.reason = reason
        self.retry_after = retry_after
        self.predicted_na = predicted_na
        self.predicted_da = predicted_da
        self.detail = detail or {}
        hint = ("retry later" if retry_after is None
                else f"retry after {retry_after:.1f}s")
        super().__init__(f"overloaded ({reason}); {hint}")

    def as_dict(self) -> dict[str, object]:
        out = {"error": "overloaded", "reason": self.reason,
               "retry_after": self.retry_after,
               "predicted_na": self.predicted_na,
               "predicted_da": self.predicted_da}
        out.update(self.detail)
        return out


class ServiceDraining(ReproError):
    """The daemon is shutting down and accepts no new joins."""

    def __init__(self, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__("service is draining")

    def as_dict(self) -> dict[str, object]:
        return {"error": "draining", "retry_after": self.retry_after}


@dataclass(frozen=True)
class _RegisteredTree:
    """A servable tree plus its catalog statistics, fixed at registration."""

    name: str
    tree: Any
    params: Any | None           #: Eq. 2-5 parameters, or None (empty tree)
    height: int
    size: int
    path: str | None = None      #: durable source file, when state_dir set


class _Running:
    """Bookkeeping for one executing join."""

    __slots__ = ("join_id", "tenant", "predicted_na", "started", "token")

    def __init__(self, join_id, tenant, predicted_na, started, token):
        self.join_id = join_id
        self.tenant = tenant
        self.predicted_na = predicted_na
        self.started = started
        self.token = token


class _Recorded(NamedTuple):
    """One idempotency-cache entry: a completed response's wire body."""

    rid: int
    join_id: str
    body: bytes


class JoinResponse:
    """A finished join's response: its document, with the pairs kept as
    the result's :class:`~repro.join.PairList`, and its wire body
    (:func:`wire_body`), encoded at most once, when first asked for.

    The pairs are written as JSON text straight from their columns
    (:func:`_pairs_text`), once for the wire body and the journal;
    :attr:`doc` turns them into lists only for an in-process caller.
    A replay carries only the recorded body: its ``doc`` is ``None``.
    """

    __slots__ = ("_doc", "_encoded", "_body")

    def __init__(self, doc: dict | None, body: bytes | None = None):
        self._doc = doc
        self._encoded = None
        self._body = body

    @property
    def doc(self) -> dict | None:
        """The JSON-safe document, pairs as ``[[oid1, oid2], ...]``:
        a new top-level dict on each read."""
        if self._doc is None:
            return None
        return {key: value.tolist() if isinstance(value, PairList)
                else value for key, value in self._doc.items()}

    def _encoded_doc(self) -> dict:
        """The document with its pairs as :class:`JsonText`, what the
        wire body and the journal's ``complete`` record are made of."""
        if self._encoded is None:
            self._encoded = {
                key: _pairs_text(value) if isinstance(value, PairList)
                else value for key, value in self._doc.items()}
        return self._encoded

    @property
    def body(self) -> bytes:
        if self._body is None:
            self._body = wire_body(self._encoded_doc())
        return self._body


class AdmittedJoin(NamedTuple):
    """A request :meth:`JoinService.admit` let through, with what it
    looked up: the input of :meth:`JoinService.run`."""

    request: dict
    req: "JoinRequest"
    reg1: _RegisteredTree
    reg2: _RegisteredTree
    predicted_na: float | None
    predicted_da: float | None


class JoinRequest:
    """A validated join request (raises ``ValueError`` on bad input).

    ``execution`` is the request's one
    :class:`~repro.exec.ExecutionConfig`: the service-wide defaults
    overridden by the request's ``pair_enumeration``/``traversal``/
    ``mode``/``strategy``/``workers`` fields, validated by the config
    itself.  Every execution path — serial, durable, parallel — runs
    on this object.
    """

    def __init__(self, doc: dict, config: ServeConfig):
        if not isinstance(doc, dict):
            raise ValueError("join request must be a JSON object")
        unknown = set(doc) - _REQUEST_FIELDS
        if unknown:
            raise ValueError(
                f"unknown request fields: {sorted(unknown)}")
        for name in ("tree1", "tree2"):
            if not isinstance(doc.get(name), str):
                raise ValueError(f"request needs a string {name!r} field")
        self.tree1 = doc["tree1"]
        self.tree2 = doc["tree2"]
        self.tenant = doc.get("tenant", "default")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        deadline = doc.get("deadline", config.default_deadline)
        self.budget = Budget(
            deadline=deadline, max_na=doc.get("max_na"),
            max_da=doc.get("max_da"), max_results=doc.get("max_results"))
        self.buffer_spec = doc.get("buffer", "path")
        # Validate here, not in make_buffer()/buffer_footprint(): those
        # run after a concurrency slot is held, and a raise there must
        # never be reachable from unauthenticated input.
        buffer_from_spec(self.buffer_spec)
        workers = doc.get("workers")
        # A request without ``workers`` runs the single synchronized
        # traversal whatever the service-wide default says; a crashed
        # worker always degrades to serial (the daemon must answer,
        # not raise).
        self.execution = config.execution.with_options(
            workers=workers if workers is not None else 1,
            on_worker_crash="serial",
            **{name: doc[name] for name in _EXECUTION_FIELDS
               if name in doc})
        self.collect_pairs = doc.get("collect_pairs", False)
        if not isinstance(self.collect_pairs, bool):
            raise ValueError("collect_pairs must be a boolean")
        self.resume_token = doc.get("resume_token")
        self.admission = doc.get("admission", "reject")
        if self.admission not in ("off", "reject"):
            raise ValueError("admission must be 'off' or 'reject'")
        self.idempotency_key = doc.get("idempotency_key")
        if self.idempotency_key is not None and (
                not isinstance(self.idempotency_key, str)
                or not self.idempotency_key):
            raise ValueError("idempotency_key must be a non-empty string")
        if self.resume_token is not None and workers is not None:
            raise ValueError(
                "resume_token is incompatible with workers (checkpoints "
                "describe the single synchronized traversal)")
        if self.resume_token is not None \
                and self.execution.strategy == "pbsm":
            raise ValueError(
                "resume_token is incompatible with strategy 'pbsm' "
                "(the partition engine has no resumable frontier)")

    def make_buffer(self):
        return buffer_from_spec(self.buffer_spec)

    def buffer_footprint(self, height1: int, height2: int) -> int:
        """Pool pages this request's buffer holds while it runs."""
        buffer = self.make_buffer()
        if buffer.kind == "none":
            return 0
        if buffer.kind == "path":
            return height1 + height2
        return buffer.capacity


class JoinService:
    """See the module docstring.  Thread-safe; one instance per daemon."""

    def __init__(self, config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer=None, clock=time.monotonic):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._clock = clock
        self._trees: dict[str, _RegisteredTree] = {}
        self.admission = CostAdmission(
            self.config.max_predicted_na, self.config.max_predicted_da,
            clock=ThroughputClock())
        self.pool = BufferPool(self.config.pool_pages,
                               self.config.tenant_limit)
        self._cond = threading.Condition()
        self._running: dict[str, _Running] = {}
        self._queued = 0
        self._draining = False
        self._drained = threading.Event()
        self._next_id = 0
        self._started = clock()
        self.durable = (DurableState(self.config.state_dir,
                                     self.config.journal_fsync_interval,
                                     clock=clock)
                        if self.config.state_dir is not None else None)
        self._idem: OrderedDict[str, _Recorded] = OrderedDict()
        self._idem_lock = threading.Lock()
        self._recovery_report: dict[str, object] | None = None

    # -- registration -------------------------------------------------------

    def register_tree(self, name: str, tree: Any, *,
                      source_path: str | None = None,
                      record: bool = True) -> dict[str, object]:
        """Make a built tree joinable under ``name``.

        The O(N) part of the cost model — the Eq. 2-5 parameters, which
        need the summed leaf-rectangle area — runs here, once; every
        later admission decision is closed-form arithmetic over the
        cached parameters.

        With durable state configured, the registration is appended to
        the manifest (fsynced) so it survives a crash; a tree with no
        ``source_path`` is first serialized into the state directory.
        Recovery re-registers with ``record=False`` to avoid re-writing
        what it just replayed.
        """
        if not name or "/" in name:
            raise ValueError(
                f"tree name must be a non-empty path-safe string, "
                f"got {name!r}")
        try:
            params = tree_params(tree)
        except ValueError:
            params = None            # empty tree: unpriceable, servable
        # Build the whole-tree columnar arena once, at registration:
        # every later join reads it (and a parallel one exports it
        # straight to shared memory) instead of paying the build on the
        # request path.
        tree.arena()
        path = None
        if self.durable is not None:
            if source_path is not None:
                path = str(Path(source_path).resolve())
            else:
                path = str(self.durable.save_tree_object(name, tree))
        with self._cond:
            self._trees[name] = _RegisteredTree(
                name, tree, params, tree.height, len(tree), path)
        if self.durable is not None and record:
            self.durable.record_tree(name, path, len(tree), tree.height)
        self.metrics.counter("serve.trees_registered").inc()
        return {"name": name, "size": len(tree), "height": tree.height,
                "priceable": params is not None}

    def register_tree_file(self, name: str, path: str, *,
                           record: bool = True) -> dict[str, object]:
        """Load a saved tree (strict checksums) and register it."""
        return self.register_tree(name, load_tree(path, strict=True),
                                  source_path=path, record=record)

    def trees(self) -> list[dict[str, object]]:
        with self._cond:
            regs = list(self._trees.values())
        return [{"name": r.name, "size": r.size, "height": r.height,
                 "priceable": r.params is not None}
                for r in sorted(regs, key=lambda r: r.name)]

    def _lookup(self, name: str) -> _RegisteredTree:
        with self._cond:
            try:
                return self._trees[name]
            except KeyError:
                raise UnknownTree(name) from None

    # -- introspection ------------------------------------------------------

    def status(self) -> dict[str, object]:
        """The ``/healthz`` payload."""
        with self._cond:
            running = len(self._running)
            queued = self._queued
            draining = self._draining
            trees = sorted(self._trees)
        return {
            "status": "draining" if draining else "ok",
            "running": running,
            "queue_depth": queued,
            "max_concurrency": self.config.max_concurrency,
            "queue_limit": self.config.queue_limit,
            "trees": trees,
            "pool": self.pool.snapshot(),
            "uptime": round(self._clock() - self._started, 3),
        }

    def metrics_snapshot(self) -> dict[str, object]:
        """The ``/metrics`` payload (gauges refreshed first)."""
        with self._cond:
            self.metrics.gauge("serve.running").set(len(self._running))
            self.metrics.gauge("serve.queue_depth").set(self._queued)
            self.metrics.gauge("serve.draining").set(
                1.0 if self._draining else 0.0)
        self.metrics.gauge("serve.pool_held").set(self.pool.held())
        self.metrics.gauge("serve.na_per_second").set(
            self.admission.clock.na_per_second)
        if self.durable is not None:
            self.metrics.gauge("serve.journal.appends").set(
                self.durable.journal.appends)
            self.metrics.gauge("serve.journal.fsyncs").set(
                self.durable.journal.fsyncs)
        return self.metrics.as_dict()

    def _retry_after(self) -> float:
        """The shed hint; callable with ``_cond`` held or not (the
        condition's default lock is reentrant)."""
        now = self._clock()
        with self._cond:
            running = [(r.predicted_na, now - r.started)
                       for r in self._running.values()]
        return self.admission.retry_after(running)

    # -- cancellation / drain -----------------------------------------------

    def cancel(self, join_id: str) -> bool:
        """Cooperatively cancel one running join (True if it was found)."""
        with self._cond:
            entry = self._running.get(join_id)
        if entry is None:
            return False
        entry.token.cancel()
        self.metrics.counter("serve.cancelled").inc()
        return True

    def drain(self, grace: float | None = None) -> bool:
        """Stop intake, wait for running joins, then cancel stragglers.

        Returns ``True`` when every join finished within the grace
        period, ``False`` when cooperative cancellation was needed.
        New requests and queued waiters are refused with
        :class:`ServiceDraining` from the moment drain starts.
        """
        grace = self.config.drain_grace if grace is None else grace
        with self._cond:
            self._draining = True
            self._cond.notify_all()
        self.metrics.gauge("serve.draining").set(1.0)
        deadline = self._clock() + grace
        clean = True
        with self._cond:
            while self._running:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, 0.1))
            if self._running:
                clean = False
                for entry in self._running.values():
                    entry.token.cancel()
            # Cancelled joins stop at their next governor check; give
            # them a bounded moment to surface their partial results.
            stop = self._clock() + max(grace, 1.0)
            while self._running and self._clock() < stop:
                self._cond.wait(timeout=0.1)
        self._drained.set()
        if self.durable is not None:
            self._compact_durable()
        return clean

    def _compact_durable(self) -> None:
        """Clean-shutdown compaction of the manifest + journal."""
        with self._cond:
            regs = list(self._trees.values())
        trees = []
        for r in regs:
            path = r.path
            if path is None:     # registered before durable state existed
                path = str(self.durable.save_tree_object(r.name, r.tree))
            trees.append({"name": r.name, "path": path,
                          "size": r.size, "height": r.height})
        with self._idem_lock:
            cached = list(self._idem.items())
        # The journal keeps documents, the cache wire bytes: decode here.
        completed = [{"op": "complete", "rid": rec.rid, "key": key,
                      "response": json.loads(rec.body)}
                     for key, rec in cached]
        self.durable.compact(trees, completed)
        self.durable.close()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    # -- the request path ---------------------------------------------------

    def execute(self, request: dict,
                token: CancellationToken | None = None,
                ) -> dict[str, object]:
        """Admit, (maybe) queue, and run one join request; blocking.

        :meth:`admit`, then :meth:`run` on what it let through.
        ``token`` lets the transport cancel this specific request from
        outside (client disconnect); the join's own token is linked to
        it.  Returns the JSON-safe response document: a replay decodes
        a fresh copy of the recorded bytes.  Raises typed errors for
        every refusal — :class:`UnknownTree`,
        :class:`~repro.exec.AdmissionRejected`, :class:`Overloaded`,
        :class:`~repro.serve.quotas.QuotaExceeded`,
        :class:`ServiceDraining`, ``ValueError`` for malformed requests
        — which the transport maps to status codes.
        """
        admitted = self.admit(request)
        if isinstance(admitted, JoinResponse):
            return json.loads(admitted.body)
        return self.run(admitted, token).doc

    def admit(self, request: dict) -> JoinResponse | AdmittedJoin:
        """The half of :meth:`execute` that never blocks: parse, replay,
        drain check, tree lookup and Eq. 7/10 admission, in that order.

        Returns the recorded response of a completed idempotency key,
        as its wire body only (the join is not executed again, even
        across a restart), or the :class:`AdmittedJoin` for
        :meth:`run`; raises the typed refusal otherwise.  No page is
        read, no slot taken and nothing journaled, so the transport
        answers it on its event loop.
        """
        req = JoinRequest(request, self.config)
        key = req.idempotency_key
        if key is not None:
            cached = self._idem_get(key)
            if cached is not None:
                self.metrics.counter("serve.idempotent_hits").inc()
                if self.tracer is not None:
                    self.tracer.emit("idempotent_hit", key=key,
                                     join_id=cached.join_id)
                return JoinResponse(None, cached.body)
        if self.draining:
            raise ServiceDraining(self.config.drain_grace)
        reg1 = self._lookup(req.tree1)
        reg2 = self._lookup(req.tree2)

        # O(1) admission: closed-form Eq. 7/10 over cached parameters,
        # against the server ceiling and (opt-out) the request budget.
        predicted = None
        if reg1.params is not None and reg2.params is not None:
            request_budget = (req.budget if req.admission == "reject"
                              else None)
            try:
                predicted = self.admission.admit(
                    reg1.params, reg2.params, request_budget)
            except Exception:
                self.metrics.counter("serve.rejected.admission").inc()
                raise
        return AdmittedJoin(request, req, reg1, reg2,
                            predicted[0] if predicted else None,
                            predicted[1] if predicted else None)

    def run(self, admitted: AdmittedJoin,
            token: CancellationToken | None = None) -> JoinResponse:
        """The blocking half of :meth:`execute`: decode the resume
        token, take a slot (queueing) and the pool pages, journal, join
        and respond."""
        request, req, reg1, reg2, predicted_na, predicted_da = admitted
        checkpoint = (decode_resume_token(req.resume_token)
                      if req.resume_token is not None else None)
        pages = req.buffer_footprint(reg1.height, reg2.height)
        join_id, token = self._acquire_slot(req, predicted_na,
                                            predicted_da, token)
        # From here on, every exit path must release the slot: a leaked
        # _running entry permanently consumes concurrency and wedges
        # the daemon once max_concurrency requests have failed oddly.
        pages_held = False
        started = self._clock()
        rid = None
        try:
            if self.durable is not None:
                # Journal AFTER admission: a shed or rejected request
                # must never be replayed on recovery.
                rid = self.durable.begin(req.idempotency_key,
                                         _journal_request(request))
            try:
                self.pool.acquire(req.tenant, pages)
                pages_held = True
            except QuotaExceeded as exc:
                exc.retry_after = self._retry_after()
                self.metrics.counter("serve.shed.quota").inc()
                raise
            self.metrics.counter("serve.admitted").inc()
            started = self._clock()
            result, degraded = self._run(req, reg1, reg2, checkpoint,
                                         token, rid)
        except Exception as exc:
            if rid is not None:
                self.durable.abort(rid, exc)
            raise
        finally:
            if pages_held:
                self.pool.release(req.tenant, pages)
            elapsed = self._clock() - started
            self._release_slot(join_id)

        if result.na_total:
            self.admission.clock.observe(result.na_total, elapsed)
        self.metrics.histogram("serve.latency_ms").observe(elapsed * 1e3)
        return self._respond(req, join_id, result, predicted_na,
                             predicted_da, elapsed, degraded, rid)

    # -- idempotency cache --------------------------------------------------

    def _idem_get(self, key: str) -> _Recorded | None:
        with self._idem_lock:
            record = self._idem.get(key)
            if record is not None:
                self._idem.move_to_end(key)
            return record

    def _idem_store(self, key: str, record: _Recorded) -> None:
        with self._idem_lock:
            self._idem[key] = record
            self._idem.move_to_end(key)
            while len(self._idem) > self.config.idempotency_cache_size:
                self._idem.popitem(last=False)

    # -- slot management ----------------------------------------------------

    def _acquire_slot(self, req: JoinRequest,
                      predicted_na, predicted_da,
                      outer_token: CancellationToken | None = None):
        config = self.config
        with self._cond:
            # The wait deadline is absolute: a waiter that is notified
            # but loses the slot race re-enters wait() with only the
            # *remaining* time, so "waits at most queue_wait_limit
            # seconds" holds under contention.  Queue accounting
            # happens once, on first entry, not per wakeup.
            deadline = None
            queued = False
            try:
                while len(self._running) >= config.max_concurrency:
                    if self._draining:
                        raise ServiceDraining(config.drain_grace)
                    if not queued:
                        if self._queued >= config.queue_limit:
                            self.metrics.counter("serve.shed.queue").inc()
                            raise Overloaded(
                                "queue-full", self._retry_after(),
                                predicted_na, predicted_da,
                                {"queue_depth": self._queued})
                        queued = True
                        self._queued += 1
                        self.metrics.counter("serve.queued").inc()
                        deadline = self._clock() + config.queue_wait_limit
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        self.metrics.counter(
                            "serve.shed.queue_timeout").inc()
                        raise Overloaded("queue-timeout",
                                         self._retry_after(),
                                         predicted_na, predicted_da)
                    self._cond.wait(timeout=remaining)
            finally:
                if queued:
                    self._queued -= 1
            if self._draining:
                raise ServiceDraining(config.drain_grace)
            self._next_id += 1
            join_id = f"j{self._next_id}"
            token = (CancellationToken(outer_token)
                     if outer_token is not None else CancellationToken())
            self._running[join_id] = _Running(
                join_id, req.tenant, predicted_na, self._clock(), token)
            return join_id, token

    def _release_slot(self, join_id: str) -> None:
        with self._cond:
            self._running.pop(join_id, None)
            self._cond.notify_all()

    # -- execution ----------------------------------------------------------

    def _run(self, req, reg1, reg2, checkpoint, token, rid):
        """Run the admitted join — journaled as ``rid`` when durable
        state is configured; returns ``(result, degraded_reason)``."""
        degraded = None
        config = req.execution
        if config.workers > 1 and config.mode == "processes" \
                and min(reg1.size, reg2.size) < self.config.serial_threshold:
            # Known-unprofitable regime (`join.parallel.processes_ms`
            # against `join.batch_ms` of `python3 -m bench`): worker
            # start-up dominates below the threshold, so run serially.
            degraded = "serial-small-tree"
            self.metrics.counter("serve.degraded.small_tree").inc()
            config = config.with_options(workers=1)
        if config.workers > 1:
            governor = ExecutionGovernor(req.budget, token, partial=False)
            result = parallel_spatial_join(
                reg1.tree, reg2.tree,
                collect_pairs=req.collect_pairs, governor=governor,
                tracer=self.tracer, metrics=self.metrics,
                config=config)
            return result, degraded
        if rid is not None and config.strategy == "pbsm":
            # The partition engine has no resumable frontier to spill,
            # so durable slicing is skipped: the request stays
            # journaled (recovery replays it from scratch, in one
            # piece) but loses incremental crash-resumability —
            # surfaced as a degradation, not hidden.
            degraded = "pbsm-no-spill"
            self.metrics.counter("serve.degraded.pbsm_no_spill").inc()
        elif rid is not None:
            return (self._run_durable(req, reg1, reg2, checkpoint,
                                      token, rid), degraded)
        if checkpoint is not None:
            self.metrics.counter("serve.resumed").inc()
        return (self._serial(req, reg1, reg2, config, req.budget, token,
                             checkpoint), degraded)

    def _serial(self, req, reg1, reg2, config, budget, token,
                checkpoint=None):
        """One governed serial join of ``req`` under ``budget``, from
        ``checkpoint`` when there is one.  A trip comes back as a
        :class:`~repro.join.PartialJoinResult` (``partial=True``): the
        daemon answers with a resume token, it does not raise."""
        join = SpatialJoin(
            reg1.tree, reg2.tree, req.make_buffer(),
            governor=ExecutionGovernor(budget, token, partial=True),
            tracer=self.tracer, metrics=self.metrics, config=config)
        if checkpoint is not None:
            return join.resume(checkpoint)
        return join.run(collect_pairs=req.collect_pairs)

    def _run_durable(self, req, reg1, reg2, checkpoint, token, rid):
        """Serial execution with the checkpoint spilled every NA interval.

        The join runs in slices: a *synthetic* ``max_na`` budget one
        ``spill_na_interval`` ahead of the current frontier makes the
        governor surface a resumable :class:`PartialJoinResult` at each
        interval; the checkpoint is spilled to the state directory,
        journaled, and the join resumed in place.  Checkpoint/resume is
        bit-identical (the PR 2 property), so slicing never perturbs
        NA/DA/pairs.  A *genuine* budget trip or cancellation — the
        request's own ``max_na`` reached, deadline, token — is returned
        to the caller unchanged, after a final spill so even the
        partial frontier survives a crash.
        """
        config = req.execution
        interval = self.config.spill_na_interval
        budget = req.budget
        overall_start = self._clock()
        if checkpoint is not None:
            # A client-sent resume token: capture it as the entry's
            # first spill so recovery never falls back to scratch.
            self.metrics.counter("serve.resumed").inc()
            self.durable.spill(rid, checkpoint)
            self.metrics.counter("serve.journal.spills").inc()
        while True:
            done_na = 0
            if checkpoint is not None:
                done_na = AccessStats.from_dict(checkpoint.stats).na()
            synthetic_cap = done_na + interval
            eff_na = synthetic_cap
            if budget.max_na is not None:
                eff_na = min(eff_na, budget.max_na)
            deadline = budget.deadline
            if deadline is not None:
                # The governor measures each slice from its own start;
                # keep the request's deadline absolute across slices.
                deadline = max(
                    deadline - (self._clock() - overall_start), 1e-9)
            slice_budget = Budget(deadline=deadline, max_na=eff_na,
                                  max_da=budget.max_da,
                                  max_results=budget.max_results)
            result = self._serial(req, reg1, reg2, config, slice_budget,
                                  token, checkpoint)
            if not isinstance(result, PartialJoinResult):
                return result
            reason = result.reason
            synthetic = (
                getattr(reason, "resource", None) == "na"
                and getattr(reason, "limit", None) == eff_na
                and (budget.max_na is None or eff_na < budget.max_na))
            checkpoint = result.checkpoint
            self.durable.spill(rid, checkpoint, na=result.stats.na())
            self.metrics.counter("serve.journal.spills").inc()
            if not synthetic:
                return result

    # -- recovery -----------------------------------------------------------

    def recover(self) -> dict[str, object]:
        """Replay durable state: re-register trees, finish orphaned joins.

        Call once at startup, *before* the daemon starts listening, so
        clients never observe a half-recovered service.  Failures are
        contained per item — an unreadable tree is skipped (loudly), an
        unresumable journal entry is aborted in the journal — recovery
        never takes the daemon down with it.  Returns a JSON-safe
        report (also traced as ``recovery`` events).  Idempotent: a
        second call returns the first report without replaying.
        """
        if self.durable is None:
            return {"enabled": False}
        if self._recovery_report is not None:
            return self._recovery_report
        t0 = self._clock()
        if self.tracer is not None:
            self.tracer.emit("recovery", phase="start",
                             state_dir=str(self.durable.root))
        state = self.durable.load()
        report: dict[str, Any] = {
            "enabled": True, "trees": 0, "trees_failed": 0,
            "completed_cached": 0, "resumed": 0, "replayed": 0,
            "failed": 0, "torn_tails": len(state.torn_tails),
            "quarantined_logs": len(state.quarantined_logs)}
        for doc in state.torn_tails:
            if self.tracer is not None:
                self.tracer.emit("recovery", phase="torn_tail", **doc)
        for detail in state.quarantined_logs:
            self.metrics.counter("serve.recovery.log_quarantined").inc()
            if self.tracer is not None:
                self.tracer.emit("recovery", phase="log_quarantined",
                                 detail=detail)
        for rec in state.trees:
            name, path = rec.get("name"), rec.get("path")
            try:
                self.register_tree_file(name, path, record=False)
            except Exception as exc:
                report["trees_failed"] += 1
                self.metrics.counter("serve.recovery.tree_failed").inc()
                if self.tracer is not None:
                    self.tracer.emit("recovery", phase="tree_failed",
                                     name=name, path=path,
                                     error=str(exc))
            else:
                report["trees"] += 1
                if self.tracer is not None:
                    self.tracer.emit("recovery", phase="tree_restored",
                                     name=name, path=path)
        for rec in state.completed:
            key = rec.get("key")
            response = rec.get("response")
            if key is not None and isinstance(response, dict):
                self._idem_store(key, _Recorded(
                    rec.get("rid"), response.get("join_id"),
                    _recorded_body(response)))
                report["completed_cached"] += 1
        for entry in state.in_flight:
            report[self._recover_entry(entry)] += 1
        report["elapsed"] = round(self._clock() - t0, 6)
        if self.tracer is not None:
            self.tracer.emit("recovery", phase="done", **report)
        self._recovery_report = report
        return report

    def _recover_entry(self, entry: dict) -> str:
        """Finish one journaled in-flight join; returns its outcome key."""
        rid = entry["rid"]
        key = entry.get("key")
        reqdoc = dict(entry.get("request") or {})
        # The journaled deadline measured wall-clock of a dead process;
        # the other budget axes still bind on the resumed run.
        reqdoc.pop("deadline", None)
        reqdoc.pop("resume_token", None)
        # Nor does the worker pool of the dead process bind: recovery
        # finishes every join on the single serial traversal.
        reqdoc.pop("workers", None)
        checkpoint = None
        try:
            req = JoinRequest(reqdoc, self.config)
            reg1 = self._lookup(req.tree1)
            reg2 = self._lookup(req.tree2)
        except Exception as exc:
            return self._recovery_failed(rid, key, exc)
        spill = entry.get("spill")
        if spill is not None:
            try:
                checkpoint = JoinCheckpoint.load(self.durable.root / spill)
            except (ReproError, OSError) as exc:
                # A damaged spill costs repeated work, not correctness:
                # fall back to replaying the join from scratch.
                self.metrics.counter("serve.recovery.spill_failed").inc()
                if self.tracer is not None:
                    self.tracer.emit("recovery", phase="spill_failed",
                                     rid=rid, spill=spill,
                                     error=str(exc))
        with self._cond:
            self._next_id += 1
            join_id = f"j{self._next_id}"
        started = self._clock()
        try:
            # A recovered response reports no degradation: the request
            # carries no pool any more, and "pbsm-no-spill" described
            # the execution that died.
            result, _degraded = self._run(req, reg1, reg2, checkpoint,
                                          CancellationToken(), rid)
        except Exception as exc:
            return self._recovery_failed(rid, key, exc)
        response = self._respond(req, join_id, result, None, None,
                                 self._clock() - started, None, rid).doc
        outcome = "resumed" if checkpoint is not None else "replayed"
        self.metrics.counter(f"serve.recovery.{outcome}").inc()
        if self.tracer is not None:
            self.tracer.emit("recovery", phase=f"join_{outcome}",
                             rid=rid, key=key, na=response.get("na"),
                             da=response.get("da"),
                             pairs=response.get("pair_count"))
        return outcome

    def _recovery_failed(self, rid, key, exc: Exception) -> str:
        self.durable.abort(rid, exc)
        self.metrics.counter("serve.recovery.failed").inc()
        if self.tracer is not None:
            self.tracer.emit("recovery", phase="join_failed", rid=rid,
                             key=key, error=str(exc))
        return "failed"

    # -- responses ----------------------------------------------------------

    def _respond(self, req, join_id, result, predicted_na, predicted_da,
                 elapsed, degraded, rid):
        """The :class:`JoinResponse` of one finished join — recorded
        under the request's idempotency key (as its wire body, encoded
        here once for the cache and the transport) and in the journal
        (``rid``) before anyone sees it.  The pairs stay the result's
        columns; both records splice in one text of them."""
        doc: dict[str, object] = {
            "join_id": join_id,
            "tenant": req.tenant,
            "pair_count": result.pair_count,
            "comparisons": result.comparisons,
            "elapsed": round(elapsed, 6),
            "predicted_na": predicted_na,
            "predicted_da": predicted_da,
            "na": result.na_total,
            "da": result.da_total,
        }
        if isinstance(result, ParallelJoinResult):
            doc["status"] = "complete"
            doc["workers"] = result.workers
        else:
            doc["na_by_tree"] = {"R1": result.na("R1"),
                                 "R2": result.na("R2")}
            doc["da_by_tree"] = {"R1": result.da("R1"),
                                 "R2": result.da("R2")}
            doc["status"] = ("complete" if result.complete else "partial")
        if req.collect_pairs and result.complete:
            doc["pairs"] = result.pairs
        # Degradation is part of the contract, not a hidden fallback:
        # the field is always present (None = ran as requested) and the
        # generic counter aggregates the per-reason ones.  So is the
        # engine: it is chosen, not requested, and ``fallback`` says
        # why it is not the one the request's config names.
        doc["degraded"] = degraded
        doc["engine"] = result.engine
        doc["fallback"] = result.fallback
        if degraded is not None:
            self.metrics.counter("serve.degraded").inc()
        if isinstance(result, PartialJoinResult):
            self.metrics.counter("serve.partial").inc()
            doc["reason"] = result.reason.as_dict()
            # A PBSM partial has no checkpoint (completed tiles only);
            # its resume_token is explicitly null.
            doc["resume_token"] = (
                encode_resume_token(result.checkpoint)
                if result.checkpoint is not None else None)
            doc["remaining_na_estimate"] = result.remaining_na_estimate
            doc["remaining_da_estimate"] = result.remaining_da_estimate
            if result.remaining_na_estimate is not None:
                doc["retry_after"] = round(self.admission.clock.seconds_for(
                    result.remaining_na_estimate), 3)
        else:
            self.metrics.counter("serve.completed").inc()
        response = JoinResponse(doc)
        if rid is not None:
            key = req.idempotency_key
            if key is not None:
                self._idem_store(key, _Recorded(rid, join_id,
                                                response.body))
            self.durable.complete(rid, key, response._encoded_doc())
        return response
