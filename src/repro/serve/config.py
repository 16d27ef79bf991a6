"""Configuration for the join service daemon.

One frozen :class:`ServeConfig` describes everything the daemon needs:
where to listen, how many joins may run and wait, the admission cost
ceiling (the Eq. 7/10 budget no query may be *predicted* to exceed),
the shared buffer-page pool and the per-tenant slices of it, and the
thresholds of the graceful-degradation behaviours.

All limits are plain data so a config can round-trip through JSON (the
``repro serve`` CLI builds one from flags; tests build them directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec.config import ExecutionConfig

__all__ = ["ServeConfig", "DEFAULT_SERIAL_THRESHOLD"]

#: Below this tree size, process-parallel execution is known to lose to
#: serial: worker start-up is a fixed cost (the traced
#: ``join-uniform-60k`` run of ``python3 -m bench`` reads
#: ``join.parallel.processes_ms`` at twice ``join.batch_ms`` even at
#: N = 60 000 on two cores), so the service degrades such requests to
#: the serial engine — and says so — instead of paying it for nothing.
DEFAULT_SERIAL_THRESHOLD = 2000


@dataclass(frozen=True)
class ServeConfig:
    """Static limits and listen addresses of one :class:`JoinService`.

    Parameters
    ----------
    host, port:
        TCP listen address; ``port=0`` picks an ephemeral port (the
        bound address is reported once listening).  ``port=None``
        disables TCP.
    unix_path:
        Optional unix-domain socket path (served in addition to TCP).
    max_concurrency:
        Joins executing simultaneously; further admitted requests wait
        in the bounded queue.
    queue_limit:
        Admitted requests allowed to wait for a slot.  Beyond it the
        service sheds load with a retry-after hint instead of queueing
        unboundedly.
    max_predicted_na, max_predicted_da:
        Admission ceiling: a request whose Eq. 7/10 predicted cost
        exceeds either is refused before any page is read (``None``
        disables that axis).
    default_deadline:
        Per-request wall-clock budget (seconds) applied when the
        request does not carry its own; ``None`` means no default.
    pool_pages:
        Size of the shared buffer-page pool that per-tenant quotas
        carve up.
    tenant_quotas:
        ``tenant -> max pool pages held concurrently``.  Tenants not
        listed fall back to ``default_tenant_pages``.
    default_tenant_pages:
        Quota for unlisted tenants; ``None`` means unlisted tenants are
        capped only by the pool itself.
    serial_threshold:
        Tree size below which parallel execution requests degrade to
        serial (see :data:`DEFAULT_SERIAL_THRESHOLD`).
    drain_grace:
        Seconds a drain (SIGTERM) waits for running joins before
        cancelling them cooperatively.
    queue_wait_limit:
        Longest a queued request waits for a slot before being shed.
    state_dir:
        Directory for durable daemon state (registration manifest,
        request journal, checkpoint spills — see
        :mod:`repro.serve.durable`).  ``None`` (the default) keeps all
        state in memory, as before.
    journal_fsync_interval:
        fsync cadence of the request journal: ``0.0`` (default) syncs
        every record (acknowledged work survives power loss), a
        positive number syncs at most once per that many seconds
        (bounded loss, cheaper), ``None`` never syncs (survives
        ``kill -9`` but not power failure).  Checkpoint spills are
        durable (fsynced) only under the strict ``0.0`` policy.
    spill_na_interval:
        How often a durable join spills its checkpoint: once per this
        many node accesses (NA).  Smaller means less repeated work
        after a crash, at the cost of more checkpoint writes.
    idempotency_cache_size:
        Completed responses retained per idempotency key, in memory and
        across a clean restart (the journal is compacted to this bound
        on shutdown).
    read_timeout:
        Seconds the daemon waits for a complete request (header + body)
        before answering 408 and closing — the slow-loris guard.
        ``None`` disables the timeout.
    execution:
        Default :class:`~repro.exec.ExecutionConfig` for join
        execution.  A request's explicit ``pair_enumeration``/
        ``traversal``/``mode``/``strategy``/``workers`` fields override
        the corresponding knobs per request (a request naming no
        ``workers`` runs with 1, and a crashed worker always degrades
        to serial); the assignment strategy and the watchdog timeout
        come from here.
    """

    host: str = "127.0.0.1"
    port: int | None = 0
    unix_path: str | None = None
    max_concurrency: int = 4
    queue_limit: int = 16
    max_predicted_na: float | None = None
    max_predicted_da: float | None = None
    default_deadline: float | None = None
    pool_pages: int = 4096
    tenant_quotas: dict[str, int] = field(default_factory=dict)
    default_tenant_pages: int | None = None
    serial_threshold: int = DEFAULT_SERIAL_THRESHOLD
    drain_grace: float = 10.0
    queue_wait_limit: float = 30.0
    state_dir: str | None = None
    journal_fsync_interval: float | None = 0.0
    spill_na_interval: int = 50_000
    idempotency_cache_size: int = 1024
    read_timeout: float | None = 30.0
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    def __post_init__(self) -> None:
        if isinstance(self.execution, dict):
            # as_dict() emits the execution knobs as plain data so the
            # whole config round-trips through JSON; accept that form
            # back.
            object.__setattr__(self, "execution",
                               ExecutionConfig.from_dict(self.execution))
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.pool_pages < 1:
            raise ValueError("pool_pages must be >= 1")
        for axis in ("max_predicted_na", "max_predicted_da"):
            value = getattr(self, axis)
            if value is not None and value <= 0:
                raise ValueError(f"{axis} must be positive when set")
        for tenant, pages in self.tenant_quotas.items():
            if pages < 1:
                raise ValueError(
                    f"tenant {tenant!r} quota must be >= 1, got {pages}")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0")
        if self.queue_wait_limit <= 0:
            raise ValueError("queue_wait_limit must be positive")
        if (self.journal_fsync_interval is not None
                and self.journal_fsync_interval < 0):
            raise ValueError(
                "journal_fsync_interval must be >= 0 or None")
        if self.spill_na_interval < 1:
            raise ValueError("spill_na_interval must be >= 1")
        if self.idempotency_cache_size < 1:
            raise ValueError("idempotency_cache_size must be >= 1")
        if self.read_timeout is not None and self.read_timeout <= 0:
            raise ValueError("read_timeout must be positive when set")

    def tenant_limit(self, tenant: str) -> int | None:
        """Concurrent pool pages this tenant may hold (None = pool cap)."""
        limit = self.tenant_quotas.get(tenant, self.default_tenant_pages)
        return None if limit is None else min(limit, self.pool_pages)

    def as_dict(self) -> dict[str, object]:
        return {
            "host": self.host, "port": self.port,
            "unix_path": self.unix_path,
            "max_concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
            "max_predicted_na": self.max_predicted_na,
            "max_predicted_da": self.max_predicted_da,
            "default_deadline": self.default_deadline,
            "pool_pages": self.pool_pages,
            "tenant_quotas": dict(self.tenant_quotas),
            "default_tenant_pages": self.default_tenant_pages,
            "serial_threshold": self.serial_threshold,
            "drain_grace": self.drain_grace,
            "queue_wait_limit": self.queue_wait_limit,
            "state_dir": self.state_dir,
            "journal_fsync_interval": self.journal_fsync_interval,
            "spill_na_interval": self.spill_na_interval,
            "idempotency_cache_size": self.idempotency_cache_size,
            "read_timeout": self.read_timeout,
            "execution": self.execution.as_dict(),
        }
