"""Asyncio HTTP/1.1 transport for the join service (stdlib only).

:class:`ServeDaemon` wraps one :class:`~repro.serve.service.JoinService`
behind a minimal JSON-over-HTTP protocol, listening on TCP and/or a
unix-domain socket.  Requests are parsed with ``asyncio`` streams (no
third-party framework).  A join request is admitted on the event loop
(:meth:`JoinService.admit` never blocks), so a replayed idempotency key
is answered with its recorded bytes and a refusal with its status
without a thread hop.  Only an admitted join runs in a thread pool via
``run_in_executor`` while the event loop keeps accepting connections —
and keeps *watching* the join's connection: a client that disconnects
mid-join cancels its cooperative token, turning the work into a partial
result instead of wasted pages.

Routes::

    GET  /healthz   liveness + drain state
    GET  /metrics   MetricsRegistry snapshot (admission/shed/queue/...)
    GET  /trees     registered trees
    POST /trees     {"name": ..., "path": ...} register a saved tree
    POST /join      a join request document (see docs/serving.md)
    POST /cancel    {"join_id": ...} cooperative cancellation

Status mapping (the transport half of the exit-code protocol)::

    200 complete or partial result        400 malformed request
    404 unknown tree                      408 budget exhausted (raised)
    413 admission-rejected (Eq. 7/10)     422 bad resume token
    429 overloaded / quota (retry_after)  503 draining
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
from concurrent.futures import ThreadPoolExecutor

from ..exec import (AdmissionRejected, BudgetExceeded, Cancelled,
                    CancellationToken)
from ..reliability import (CorruptPageError, MalformedFileError,
                           ReproError, TransientPageError)
from .config import ServeConfig
from .quotas import QuotaExceeded
from .service import (JoinResponse, JoinService, Overloaded,
                      ServiceDraining, UnknownTree, wire_body)

__all__ = ["ServeDaemon"]

_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER_LINES = 100


def _error_status(exc: BaseException) -> tuple[int, dict]:
    """Map a typed service error to (HTTP status, JSON payload)."""
    if isinstance(exc, UnknownTree):
        return 404, exc.as_dict()
    if isinstance(exc, AdmissionRejected):
        return 413, exc.as_dict()
    if isinstance(exc, (Overloaded, QuotaExceeded)):
        return 429, exc.as_dict()
    if isinstance(exc, ServiceDraining):
        return 503, exc.as_dict()
    if isinstance(exc, Cancelled):
        return 499, exc.as_dict()        # client closed request
    if isinstance(exc, BudgetExceeded):
        return 408, exc.as_dict()
    if isinstance(exc, (CorruptPageError, MalformedFileError)):
        return 422, {"error": "bad-token-or-data", "detail": str(exc)}
    if isinstance(exc, TransientPageError):
        return 503, {"error": "transient", "detail": str(exc)}
    if isinstance(exc, (ValueError, KeyError, ReproError)):
        return 400, {"error": "bad-request", "detail": str(exc)}
    return 500, {"error": "internal", "detail": str(exc)}


class ServeDaemon:
    """One event loop serving a :class:`JoinService` over HTTP.

    Use either as a context manager around :meth:`run_forever` (the CLI
    path) or via :meth:`start` / :meth:`stop` on an externally driven
    loop (tests).
    """

    def __init__(self, service: JoinService | None = None,
                 config: ServeConfig | None = None):
        if service is None:
            service = JoinService(config)
        self.service = service
        self.config = service.config
        # Sized so every runnable + queueable request gets a thread;
        # the service itself enforces the actual concurrency bounds.
        self._pool = ThreadPoolExecutor(
            max_workers=(self.config.max_concurrency
                         + self.config.queue_limit + 4),
            thread_name_prefix="repro-serve")
        self._servers: list[asyncio.AbstractServer] = []
        self.addresses: list[str] = []
        self._stopping: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> list[str]:
        """Bind the configured listeners; returns the bound addresses.

        With durable state configured, crash recovery (manifest replay,
        orphaned-join resumption) runs to completion *before* any
        listener binds: clients never observe a half-recovered daemon.
        """
        self._stopping = asyncio.Event()
        if self.service.durable is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.recover)
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle, host=self.config.host,
                port=self.config.port)
            self._servers.append(server)
            for sock in server.sockets:
                if sock.family in (socket.AF_INET, socket.AF_INET6):
                    host, port = sock.getsockname()[:2]
                    self.addresses.append(f"http://{host}:{port}")
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._handle, path=self.config.unix_path)
            self._servers.append(server)
            self.addresses.append(f"unix:{self.config.unix_path}")
        if not self._servers:
            raise ValueError("ServeConfig enables no listener "
                             "(set port and/or unix_path)")
        return list(self.addresses)

    async def stop(self, grace: float | None = None) -> bool:
        """Drain then close: the SIGTERM path.  True = drained cleanly.

        The listeners close, the pool shuts down and :meth:`run_forever`
        returns whatever the drain does: a drain that raises still stops
        the daemon, its error propagates and :meth:`run_forever` reports
        it as not clean.
        """
        for server in self._servers:
            server.close()
        try:
            clean = await asyncio.get_running_loop().run_in_executor(
                None, self.service.drain, grace)
        finally:
            for server in self._servers:
                await server.wait_closed()
            self._pool.shutdown(wait=True, cancel_futures=True)
            if self._stopping is not None:
                self._stopping.set()
        return clean

    async def run_forever(self) -> bool:
        """Start (if not already), install SIGTERM/SIGINT drain handlers,
        serve until stopped; returns whether the final drain was clean."""
        if not self._servers:
            await self.start()
        loop = asyncio.get_running_loop()
        drained_clean = True

        async def _shutdown():
            nonlocal drained_clean
            try:
                drained_clean = await self.stop()
            except Exception:
                drained_clean = False
                raise

        def _on_signal():
            asyncio.ensure_future(_shutdown())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _on_signal)
            except (NotImplementedError, RuntimeError):
                pass                     # non-main thread / platform
        assert self._stopping is not None
        await self._stopping.wait()
        return drained_clean

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            timeout = self.config.read_timeout
            read = self._read_request(reader)
            if timeout is not None:
                # The slow-loris guard: a client trickling bytes (or
                # stalling after claiming a Content-Length) holds a
                # connection, never a concurrency slot — bound it.
                request = await asyncio.wait_for(read, timeout)
            else:
                request = await read
            if request is None:
                return
            method, path, body, idem_key = request
            status, payload = await self._route(method, path, body,
                                                reader, idem_key)
        except asyncio.TimeoutError:
            self.service.metrics.counter(
                "serve.slow_client_timeouts").inc()
            status, payload = 408, {
                "error": "request-timeout",
                "detail": (f"request not received within "
                           f"{self.config.read_timeout}s")}
        except asyncio.IncompleteReadError:
            return
        except Exception as exc:        # noqa: BLE001 — last-ditch 500
            status, payload = _error_status(exc)
        try:
            await self._write_response(writer, status, payload)
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split(None, 2)
        except (UnicodeDecodeError, ValueError):
            raise ValueError("malformed request line") from None
        length = 0
        idem_key = None
        for _ in range(_MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "idempotency-key":
                idem_key = value.strip()
        else:
            raise ValueError("too many headers")
        if length > _MAX_BODY:
            raise ValueError(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body, idem_key

    async def _write_response(self, writer, status: int,
                              payload: dict | JoinResponse) -> None:
        """Send ``payload``: a document, or a join response's body."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 408: "Request Timeout",
                   413: "Payload Too Large", 422: "Unprocessable Entity",
                   429: "Too Many Requests", 499: "Client Closed Request",
                   500: "Internal Server Error",
                   503: "Service Unavailable"}
        if isinstance(payload, JoinResponse):
            body = payload.body
        else:
            body = wire_body(payload)
        head = (f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if status in (429, 503) and payload.get("retry_after") is not None:
            head += (f"Retry-After: "
                     f"{max(1, round(payload['retry_after']))}\r\n")
        head += "Connection: close\r\n\r\n"
        writer.write(head.encode("ascii") + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str, body: bytes,
                     reader: asyncio.StreamReader,
                     idem_key: str | None = None):
        service = self.service
        if method == "GET" and path == "/healthz":
            status = service.status()
            return (503 if status["status"] == "draining" else 200,
                    status)
        if method == "GET" and path == "/metrics":
            return 200, service.metrics_snapshot()
        if method == "GET" and path == "/trees":
            return 200, {"trees": service.trees()}
        if method == "POST" and path == "/trees":
            doc = self._json_body(body)
            try:
                return 200, service.register_tree_file(
                    str(doc.get("name")), str(doc.get("path")))
            except Exception as exc:    # noqa: BLE001 — typed mapping
                return _error_status(exc)
        if method == "POST" and path == "/cancel":
            doc = self._json_body(body)
            found = service.cancel(str(doc.get("join_id")))
            return (200 if found else 404,
                    {"cancelled": found,
                     "join_id": doc.get("join_id")})
        if method == "POST" and path == "/join":
            return await self._route_join(body, reader, idem_key)
        if path in ("/healthz", "/metrics", "/trees", "/join", "/cancel"):
            return 405, {"error": "method-not-allowed", "method": method}
        return 404, {"error": "not-found", "path": path}

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    async def _route_join(self, body: bytes,
                          reader: asyncio.StreamReader,
                          idem_key: str | None = None):
        doc = self._json_body(body)
        if idem_key is not None and "idempotency_key" not in doc:
            doc["idempotency_key"] = idem_key
        try:
            admitted = self.service.admit(doc)
        except Exception as exc:        # noqa: BLE001 — typed mapping
            return _error_status(exc)
        if isinstance(admitted, JoinResponse):  # a replay
            return 200, admitted
        loop = asyncio.get_running_loop()
        token = CancellationToken()
        join = loop.run_in_executor(self._pool, self._run_body,
                                    admitted, token)
        # Watch for the client hanging up while the join runs: EOF on
        # the request stream cancels this request's token, converting
        # the orphaned work into a resumable partial result.
        watchdog = asyncio.ensure_future(self._await_eof(reader))
        try:
            done, _pending = await asyncio.wait(
                {join, watchdog}, return_when=asyncio.FIRST_COMPLETED)
            if join not in done:         # client vanished first
                token.cancel()
                self.service.metrics.counter(
                    "serve.client_disconnects").inc()
            return 200, await join
        except Exception as exc:        # noqa: BLE001 — typed mapping
            return _error_status(exc)
        finally:
            watchdog.cancel()

    def _run_body(self, admitted, token: CancellationToken,
                  ) -> JoinResponse:
        """Run an admitted join and encode its response, in the pool.

        The body is written from the result's pair columns: no per-pair
        document is built, so none is kept alive until the client has
        its bytes.
        """
        response = self.service.run(admitted, token)
        response.body                    # encoded here, off the loop
        return response

    @staticmethod
    async def _await_eof(reader: asyncio.StreamReader) -> None:
        """Complete only at true EOF, not on any readable bytes.

        A client that pipelines a second request, sends trailing
        bytes, or half-closes its write side after the request
        (``shutdown(SHUT_WR)``, valid HTTP/1.1) has NOT hung up;
        treating its readable bytes as a disconnect would spuriously
        cancel the join.  Discard data until the empty read.
        """
        while await reader.read(65536):
            pass
