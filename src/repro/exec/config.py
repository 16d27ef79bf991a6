"""The unified execution configuration.

Every execution entry point — ``spatial_join``, ``SpatialJoin``,
``parallel_spatial_join``, ``partition_spatial_join``, the optimizer
executor, the serve daemon and the CLI — takes its execution knobs as
one :class:`ExecutionConfig` passed as ``config=``; there is no other
way to pass them.

The canonical knob vocabularies (:data:`PAIR_ENUMERATIONS`,
:data:`EXECUTION_MODES`, …) are defined here — the bottom of the
import graph — and re-exported by :mod:`repro.join` for
compatibility.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

__all__ = [
    "ASSIGNMENT_STRATEGIES",
    "DEFAULT_WORKER_TIMEOUT",
    "EXECUTION_MODES",
    "ExecutionConfig",
    "ON_WORKER_CRASH",
    "PAIR_ENUMERATIONS",
    "STRATEGIES",
    "TRAVERSALS",
]

#: Node-pair matching kernels of the synchronized traversal (see
#: :mod:`repro.join.plane_sweep` and :mod:`repro.join.vectorized`).
PAIR_ENUMERATIONS = ("nested-loop", "plane-sweep", "vectorized",
                     "vectorized-sweep")

#: Traversal engines of the synchronized join: ``"stack"`` is the
#: per-node-pair stack machine of :mod:`repro.join.sync`, the paper's
#: Fig. 2 and the reference; ``"level-batch"`` (the default) is the
#: breadth-first frontier engine of :mod:`repro.join.batch` that
#: advances a whole tree level per NumPy kernel call over the
#: :class:`~repro.geometry.TreeArena` and then replays page charging in
#: stack-machine order (NA/DA, pairs and checkpoints stay
#: bit-identical; configurations the batch engine cannot express fall
#: back to the stack machine, with the reason recorded).
TRAVERSALS = ("stack", "level-batch")

#: Join execution strategies: ``"sync"`` is the paper's synchronized
#: R-tree traversal (:mod:`repro.join.sync`); ``"pbsm"`` is the
#: partition-based engine of :mod:`repro.join.partition` — uniform grid
#: tiling plus per-tile plane sweep with reference-point duplicate
#: avoidance.  Both produce the same pair set; their I/O profiles (and
#: therefore their Eq. 7/10-style costs) differ.
STRATEGIES = ("sync", "pbsm")

#: How worker buckets are driven: sequentially in the calling thread,
#: concurrently on a thread pool with cooperative cancellation, or on a
#: pool of worker processes.
EXECUTION_MODES = ("serial", "threads", "processes")

#: How root-entry tasks are packed into worker buckets.
ASSIGNMENT_STRATEGIES = ("round-robin", "greedy")

#: What ``mode="processes"`` does when a worker process dies or stalls
#: past the watchdog timeout: raise a typed ``WorkerCrashed``, or
#: re-execute the lost buckets serially in the coordinator.
ON_WORKER_CRASH = ("raise", "serial")

#: Default watchdog: how long the coordinator waits without *any*
#: bucket completing before declaring the worker pool hung.
DEFAULT_WORKER_TIMEOUT = 300.0


@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob of one join execution, in one frozen value.

    Parameters
    ----------
    mode:
        One of :data:`EXECUTION_MODES`.  Only
        ``parallel_spatial_join`` acts on it; the synchronized
        single-traversal join is serial by construction.
    workers:
        Worker count for the parallel modes (``>= 1``).  Refused above
        1 together with ``strategy="pbsm"``: the partition engine runs
        in the calling thread (its tile pool lost to the serial probe
        on every measured workload, see ``docs/performance.md``).
    pair_enumeration:
        Node-pair matching kernel, one of :data:`PAIR_ENUMERATIONS`.
        Consumed by every entry point.
    assignment:
        Task-to-bucket packing, one of :data:`ASSIGNMENT_STRATEGIES`.
    on_worker_crash:
        Reaction to a dead or hung worker process, one of
        :data:`ON_WORKER_CRASH`.
    worker_timeout:
        Watchdog seconds without any bucket completing before the pool
        is declared hung (``None`` disables the watchdog).
    traversal:
        Traversal engine, one of :data:`TRAVERSALS`.  Where the default
        ``"level-batch"`` does not apply (a tree without an arena,
        plane-sweep enumerations, custom predicates, resume) the
        stack machine runs instead and the join records why
        (:func:`repro.join.select_traversal`); ``"stack"`` asks for
        that machine outright.
    strategy:
        Join engine, one of :data:`STRATEGIES`.  ``"sync"`` (the
        default) is the paper's synchronized tree traversal;
        ``"pbsm"`` switches to the grid-partitioned plane-sweep engine
        of :mod:`repro.join.partition` (same pair set, different I/O
        profile; partials are non-resumable — see that module).  With
        ``"pbsm"``, ``pair_enumeration``, ``traversal`` and ``mode`` are
        ignored (the engine always sweeps its tiles, one after another)
        and ``workers`` must be 1.
    """

    mode: str = "serial"
    workers: int = 1
    pair_enumeration: str = "nested-loop"
    assignment: str = "greedy"
    on_worker_crash: str = "raise"
    worker_timeout: float | None = DEFAULT_WORKER_TIMEOUT
    traversal: str = "level-batch"
    strategy: str = "sync"

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.pair_enumeration not in PAIR_ENUMERATIONS:
            raise ValueError(
                f"pair_enumeration must be one of {PAIR_ENUMERATIONS}")
        if self.assignment not in ASSIGNMENT_STRATEGIES:
            raise ValueError(
                f"assignment must be one of {ASSIGNMENT_STRATEGIES}")
        if self.on_worker_crash not in ON_WORKER_CRASH:
            raise ValueError(
                f"on_worker_crash must be one of {ON_WORKER_CRASH}")
        if self.worker_timeout is not None and self.worker_timeout <= 0.0:
            raise ValueError("worker_timeout must be positive (or None)")
        if self.traversal not in TRAVERSALS:
            raise ValueError(
                f"traversal must be one of {TRAVERSALS}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}")
        if self.strategy == "pbsm" and self.workers > 1:
            raise ValueError(
                "strategy='pbsm' runs in the calling thread: workers "
                "must be 1 (the partition engine has no worker pool)")

    def with_options(self, **changes) -> "ExecutionConfig":
        """A copy with some fields replaced (validated on construction)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecutionConfig":
        """Build a config from a JSON document, rejecting unknown keys.

        A typoed knob (``"stratgy"``) must fail loudly — silently
        running the default engine instead of the requested one is
        exactly the class of bug a serve request cannot detect from its
        response.
        """
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown ExecutionConfig keys {sorted(unknown)!r} "
                f"(expected a subset of {sorted(known)!r})")
        return cls(**doc)
