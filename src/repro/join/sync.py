"""The SJ spatial-join algorithm: synchronized R-tree traversal.

This is the algorithm of the paper's Figure 2 (originally SpatialJoin1 of
[BKS93]) with the exact structure the cost model assumes:

* the *outer* loop runs over the entries of the R2 node, the *inner* loop
  over the entries of the R1 node — this ordering is what makes the disk
  accesses asymmetric between the two trees under a path buffer (Eqs. 8/9);
* every recursive descent fetches both child pages through the buffer
  manager (``ReadPage`` in the pseudo-code); the two roots are pinned in
  main memory and never charged;
* when the trees have different heights, both descend together until the
  shorter one reaches its leaves; afterwards the taller tree keeps
  descending while the leaf node of the shorter tree is re-fetched per
  visited pair (Section 3.2).

One traversal measures NA and DA simultaneously: each fetch counts one
node access, and each *buffer miss* counts one disk access, so running
with a :class:`~repro.storage.PathBuffer` reproduces both metrics of the
paper in a single pass (``NoBuffer`` makes DA equal NA).

The traversal is implemented as an **explicit stack machine** rather
than recursion: each stack frame holds one resident node pair plus a
cursor into its entry-pair enumeration.  The machine consumes exactly
the same ``ReadPage`` sequence the recursion would (frames carry live
iterators; children are pushed depth-first), which buys two governance
properties recursion cannot offer:

* an :class:`~repro.exec.ExecutionGovernor` is consulted *between* any
  two steps, so deadlines, NA/DA budgets, result caps and cooperative
  cancellation stop the join at a clean node-pair boundary;
* the frontier (the stack with its cursors), the buffer content and the
  counters serialize into a :class:`~repro.exec.JoinCheckpoint`, and
  :meth:`SpatialJoin.resume` continues with NA/DA **bit-identical** to
  an uninterrupted run.
"""

from __future__ import annotations

from ..exec import (CheckpointMismatch, ExecutionGovernor, JoinCheckpoint,
                    tree_fingerprint)
from ..exec.budget import BudgetExceeded, Cancelled
from ..exec.config import ExecutionConfig
from ..reliability import RetryPolicy
from ..rtree import Node, RTreeBase
from ..storage import AccessStats, BufferManager, MeteredReader, PathBuffer
from .batch import LevelBatchState, supports_level_batch
from .plane_sweep import nested_loop_pairs, sweep_pairs
from .predicates import OVERLAP, JoinPredicate, Overlap, WithinDistance
from .result import R1, R2, JoinResult, PairList
from .run import JoinRun, charged_reader
from .vectorized import vectorized_pairs

__all__ = ["spatial_join", "SpatialJoin", "PAIR_ENUMERATIONS",
           "select_traversal", "traversal_state"]

#: Pair-matching strategies inside one node pair — ``"nested-loop"``
#: (the paper's Fig. 2 loops, the reference), ``"plane-sweep"`` (BKS93
#: CPU optimisation, same pair set), ``"vectorized"`` (batched kernels,
#: bit-identical to nested-loop) and ``"vectorized-sweep"`` (the same
#: sweep as ``"plane-sweep"``).  Canonically defined on
#: :class:`~repro.exec.ExecutionConfig` and re-exported here.
from ..exec.config import PAIR_ENUMERATIONS  # noqa: E402  (re-export)

_EXHAUSTED = object()


def _predicate_spec(predicate: JoinPredicate) -> dict:
    """JSON identity of a predicate, stored in checkpoints.

    A resumed join must run the same condition the cut run did;
    predicates outside the built-in set are matched by ``repr`` (make it
    meaningful on custom predicates that should survive a checkpoint).
    """
    if isinstance(predicate, WithinDistance):
        return {"kind": "within-distance", "distance": predicate.distance}
    if isinstance(predicate, Overlap):
        return {"kind": "overlap"}
    return {"kind": "custom", "repr": repr(predicate)}


#: Pair enumerations whose stack-machine kernels read arena slices.
_COLUMNAR_PAIR_ENUMERATIONS = ("vectorized",)


def select_traversal(config: ExecutionConfig, predicate: JoinPredicate,
                     tree1, tree2, resume: bool = False):
    """Choose the traversal engine and its columnar input — the only
    place that does.

    Returns ``(engine, arenas, fallback)``: the engine that runs
    (``"level-batch"`` or the Fig. 2 ``"stack"`` machine), the pair of
    :class:`~repro.geometry.TreeArena` it reads (level-batch always,
    the stack machine for the ``vectorized`` enumerations; ``None``
    when it runs over the ``Rect`` objects) and the first reason the
    run is not the one ``config`` names, or ``None``.  Level-batch
    gives way to the stack machine for a
    :func:`~repro.join.supports_level_batch` reason or ``"resume"``
    (checkpoint cursors restore the stack machine's iterators).
    """
    fallback = None
    if config.traversal == "level-batch":
        fallback = "resume" if resume else supports_level_batch(
            predicate, config.pair_enumeration)
    batch = config.traversal == "level-batch" and fallback is None
    arenas = None
    if batch or config.pair_enumeration in _COLUMNAR_PAIR_ENUMERATIONS:
        arenas = tree1.arena(), tree2.arena()
    return "level-batch" if batch else "stack", arenas, fallback


def traversal_state(config: ExecutionConfig, predicate: JoinPredicate,
                    tree1, tree2, reader1: MeteredReader,
                    reader2: MeteredReader, collect_pairs: bool,
                    stats: AccessStats,
                    governor: ExecutionGovernor | None,
                    tracer=None, join_id: str | None = None,
                    metrics=None, resume: bool = False):
    """Build the state of one traversal on the engine
    :func:`select_traversal` picks.

    Both engines expose the same driver surface (``push``/``drain``/
    ``join``, ``stack``, ``stats``, ``pairs``, counters), so the serial
    join and the parallel workers run either through one code path;
    ``state.engine`` and ``state.fallback`` say which one it is and why.
    """
    engine, arenas, fallback = select_traversal(config, predicate, tree1,
                                                tree2, resume)
    common = dict(pinned1=tree1.root_id, pinned2=tree2.root_id,
                  pair_enumeration=config.pair_enumeration,
                  stats=stats, governor=governor,
                  tracer=tracer, join_id=join_id)
    if engine == "level-batch":
        state = LevelBatchState(reader1, reader2, predicate, collect_pairs,
                                arena1=arenas[0], arena2=arenas[1],
                                metrics=metrics, **common)
    else:
        state = _TraversalState(reader1, reader2, predicate, collect_pairs,
                                arenas=arenas, **common)
    state.fallback = fallback
    return state


def spatial_join(tree1: RTreeBase, tree2: RTreeBase,
                 buffer: BufferManager | None = None,
                 predicate: JoinPredicate = OVERLAP, *,
                 collect_pairs: bool = True,
                 retry_policy: RetryPolicy | None = None,
                 governor: ExecutionGovernor | None = None,
                 tracer=None, metrics=None, ledger=None,
                 config: ExecutionConfig | None = None) -> JoinResult:
    """Join two R-trees; ``tree1`` is R1 (data role), ``tree2`` R2 (query).

    Parameters
    ----------
    buffer:
        Buffer manager shared by the traversal; defaults to a fresh
        :class:`PathBuffer` (the paper's DA regime).
    predicate:
        Join condition; defaults to overlap.
    collect_pairs:
        Set ``False`` for measurement-only runs over large data (the
        counters are unaffected, the pair list stays empty).
    retry_policy:
        When given, page reads go through a
        :class:`~repro.reliability.ResilientReader` that retries
        transient failures under this policy (use with a fault-injecting
        pager); NA/DA stay identical to a fault-free run, retries are
        recorded separately in the result's :class:`AccessStats`.
    governor:
        Optional :class:`~repro.exec.ExecutionGovernor` enforcing
        deadlines, NA/DA/result budgets, admission control and
        cooperative cancellation.  With ``governor.partial`` set, an
        exhausted budget yields a
        :class:`~repro.join.PartialJoinResult` with a resumable
        checkpoint instead of raising.
    tracer, metrics, ledger:
        Optional :class:`~repro.obs.Tracer`,
        :class:`~repro.obs.MetricsRegistry` and
        :class:`~repro.obs.AccuracyLedger` observability hooks.  All
        three are write-only: NA/DA/pairs/checkpoints of an observed
        run are bit-identical to an unobserved one.
    config:
        An :class:`~repro.exec.ExecutionConfig`; the synchronized
        traversal consumes its ``pair_enumeration`` — one of
        :data:`PAIR_ENUMERATIONS`: ``"nested-loop"`` (the paper's
        Fig. 2 loops, the default), ``"vectorized"`` (the same loops as
        batched kernels over columnar MBRs, bit-identical NA/DA),
        ``"plane-sweep"`` (the BKS93 CPU optimisation: same output,
        fewer comparisons, slightly different read order) and
        ``"vectorized-sweep"`` (the same sweep under another name), see
        ``docs/performance.md`` — and its ``traversal`` (the default
        ``"level-batch"`` advances whole frontiers through the NumPy
        engine of :mod:`repro.join.batch` with bit-identical
        NA/DA/pairs/checkpoints, and gives way to the Fig. 2 stack
        machine where it does not apply; ``"stack"`` asks for that
        machine outright; the parallel knobs belong to
        :func:`~repro.join.parallel_spatial_join`).  Its
        ``strategy="pbsm"`` hands the join to
        :func:`~repro.join.partition_spatial_join`, which runs in the
        calling thread.  The result's ``engine``/``fallback`` say what
        ran.

    Everything after ``predicate`` is keyword-only.
    """
    return SpatialJoin(tree1, tree2, buffer, predicate,
                       retry_policy=retry_policy, governor=governor,
                       tracer=tracer, metrics=metrics, ledger=ledger,
                       config=config).run(collect_pairs)


def _check_pairs(cp: JoinCheckpoint) -> None:
    """Refuse collected pairs that are not what a cut writes: with
    ``collect_pairs``, a list of exactly ``pair_count`` ``[oid1, oid2]``
    lists of (non-bool) ``int``; without, ``None``.  The CRC catches
    accidents, not a crafted document, so the shape is checked here."""
    pairs = cp.pairs
    if not cp.collect_pairs:
        if pairs is not None:
            raise CheckpointMismatch(
                "checkpoint collected no pairs but carries a pair list")
        return
    if not (type(pairs) is list and len(pairs) == cp.pair_count
            and all(type(p) is list and len(p) == 2
                    and type(p[0]) is int and type(p[1]) is int
                    for p in pairs)):
        raise CheckpointMismatch(
            f"checkpoint pairs must be {cp.pair_count!r} [oid1, oid2] "
            f"pairs of integers")


class SpatialJoin:
    """One configured SJ execution (reusable via repeated :meth:`run`)."""

    def __init__(self, tree1: RTreeBase, tree2: RTreeBase,
                 buffer: BufferManager | None = None,
                 predicate: JoinPredicate = OVERLAP, *,
                 retry_policy: RetryPolicy | None = None,
                 governor: ExecutionGovernor | None = None,
                 tracer=None, metrics=None, ledger=None,
                 config: ExecutionConfig | None = None):
        if config is None:
            config = ExecutionConfig()
        self.tree1 = tree1
        self.tree2 = tree2
        self.buffer = buffer if buffer is not None else PathBuffer()
        self.predicate = predicate
        self.config = config
        self.pair_enumeration = config.pair_enumeration
        self.retry_policy = retry_policy
        self.governor = governor
        # Observability hooks (repro.obs) — all write-only: nothing in
        # the traversal reads them, which is what keeps a traced run's
        # NA/DA/pairs/checkpoints bit-identical to an untraced one.
        self.tracer = tracer            #: optional repro.obs.Tracer
        self.metrics = metrics          #: optional MetricsRegistry
        self.ledger = ledger            #: optional AccuracyLedger

    def _state(self, stats: AccessStats, collect_pairs: bool,
               resume: bool = False, join_id: str | None = None):
        return traversal_state(
            self.config, self.predicate, self.tree1, self.tree2,
            charged_reader(self.tree1.pager, R1, stats, self.buffer,
                           self.retry_policy, self.tracer),
            charged_reader(self.tree2.pager, R2, stats, self.buffer,
                           self.retry_policy, self.tracer),
            collect_pairs, stats, self.governor, tracer=self.tracer,
            join_id=join_id, metrics=self.metrics, resume=resume)

    def _governed(self) -> JoinRun:
        """The protocol one execution of this join runs inside."""
        return JoinRun(self.tree1, self.tree2, self.config,
                       governor=self.governor, tracer=self.tracer,
                       metrics=self.metrics, ledger=self.ledger)

    def run(self, collect_pairs: bool = True) -> JoinResult:
        """Execute the join, returning pairs and fresh access counters.

        Admission, budgets, partial results and telemetry are the
        :class:`~repro.join.run.JoinRun` protocol's; this is the
        traversal it runs.
        """
        if self.config.strategy == "pbsm":
            # The partition engine is a sibling implementation, not a
            # traversal mode: delegate wholesale (same trees, hooks and
            # governor; the ledger is deliberately not passed — Eq.
            # 7/10 calibration points must come from the traversal).
            from .partition import partition_spatial_join
            return partition_spatial_join(
                self.tree1, self.tree2, buffer=self.buffer,
                predicate=self.predicate, collect_pairs=collect_pairs,
                retry_policy=self.retry_policy, governor=self.governor,
                tracer=self.tracer, metrics=self.metrics,
                config=self.config)
        run = self._governed()
        state = self._state(AccessStats(), collect_pairs,
                            join_id=run.join_id)
        run.start(state.engine, state.fallback, self.buffer.kind)
        self.buffer.reset()
        # Pinned-root reads go through the readers (uncharged) so the
        # retry loop also protects them under fault injection.
        root1 = state.reader1.read_pinned(self.tree1.root_id,
                                          self.tree1.height)
        root2 = state.reader2.read_pinned(self.tree2.root_id,
                                          self.tree2.height)
        if root1.entries and root2.entries:
            state.push(root1, root2)
        return self._execute(run, state)

    def resume(self, checkpoint: JoinCheckpoint) -> JoinResult:
        """Continue an interrupted join from its checkpoint.

        Restores counters, collected pairs, buffer content and the
        traversal frontier, then drains the remaining work.  The final
        result (pair set, NA, DA — per tree and level) is bit-identical
        to an uninterrupted run of the same join; a resumed run may
        itself stop again if this execution's governor runs out.

        Raises :class:`~repro.exec.CheckpointMismatch` when the
        checkpoint was taken with different trees, predicate, pair
        enumeration or buffer kind, or when its collected pairs are not
        ``pair_count`` ``[oid1, oid2]`` integer pairs (``None`` when it
        collected none).
        """
        if self.config.strategy == "pbsm":
            raise ValueError(
                "strategy='pbsm' cannot resume: PBSM partials carry no "
                "checkpoint (checkpoints describe the synchronized "
                "traversal)")
        cp = checkpoint
        if cp.pair_enumeration != self.pair_enumeration:
            raise CheckpointMismatch(
                f"checkpoint used pair_enumeration="
                f"{cp.pair_enumeration!r}, this join uses "
                f"{self.pair_enumeration!r}")
        spec = _predicate_spec(self.predicate)
        if cp.predicate != spec:
            raise CheckpointMismatch(
                f"checkpoint predicate {cp.predicate!r} does not match "
                f"this join's {spec!r}")
        for name, tree, stored in (("tree1", self.tree1, cp.tree1),
                                   ("tree2", self.tree2, cp.tree2)):
            actual = tree_fingerprint(tree)
            if stored != actual:
                raise CheckpointMismatch(
                    f"checkpoint {name} fingerprint {stored!r} does not "
                    f"match the supplied tree {actual!r}")
        if cp.buffer_kind != self.buffer.kind:
            raise CheckpointMismatch(
                f"checkpoint used a {cp.buffer_kind!r} buffer, this join "
                f"has {self.buffer.kind!r}")
        _check_pairs(cp)
        self.buffer.reset()
        self.buffer.restore(cp.buffer_state)
        run = self._governed()
        # Resume always drains on the stack machine: checkpoint cursors
        # restore its deterministic iterators directly, and the result
        # is bit-identical whichever engine took the cut.
        state = self._state(AccessStats.from_dict(cp.stats),
                            cp.collect_pairs, resume=True,
                            join_id=run.join_id)
        if self.tracer is not None:
            self.tracer.resume(
                run.join_id, frames=len(cp.stack),
                pair_count=cp.pair_count,
                pair_enumeration=cp.pair_enumeration,
                engine=state.engine, fallback=state.fallback)
        state.pair_count = cp.pair_count
        state.comparisons = cp.comparisons
        if cp.collect_pairs:
            state.pairs = [(p[0], p[1]) for p in cp.pairs]
        for row in cp.stack:
            page1, level1, page2, level2, cursor = row
            # Frontier nodes were charged before the cut (their cost is
            # in the restored counters) — rebuild them uncharged and
            # without disturbing the restored buffer content.
            n1 = state.reader1.read_pinned(page1, level1)
            n2 = state.reader2.read_pinned(page2, level2)
            frame = state.push(n1, n2)
            try:
                for _ in range(cursor):
                    next(frame.it)
            except StopIteration:
                raise CheckpointMismatch(
                    f"checkpoint cursor {cursor} exceeds the entry pairs "
                    f"of node pair ({page1}, {page2}) — stale "
                    f"checkpoint?") from None
            frame.cursor = cursor
        return self._execute(run, state)

    def _execute(self, run: JoinRun,
                 state: "_TraversalState") -> JoinResult:
        return run.execute(
            state.drain,
            lambda: JoinResult(state.pairs, state.stats, state.comparisons,
                               pair_count=state.pair_count,
                               engine=state.engine,
                               fallback=state.fallback),
            lambda exc: self._checkpoint(run, state, exc))

    def _checkpoint(self, run: JoinRun, state: "_TraversalState",
                    exc: BudgetExceeded | Cancelled) -> JoinCheckpoint:
        """The resumable frontier of an interrupted traversal."""
        checkpoint = JoinCheckpoint(
            pair_enumeration=self.pair_enumeration,
            predicate=_predicate_spec(self.predicate),
            collect_pairs=state.collect_pairs,
            tree1=tree_fingerprint(self.tree1),
            tree2=tree_fingerprint(self.tree2),
            buffer_kind=self.buffer.kind,
            buffer_state=self.buffer.snapshot(),
            stack=[[f.n1.page_id, f.n1.level, f.n2.page_id, f.n2.level,
                    f.cursor] for f in state.stack],
            stats=state.stats.as_dict(),
            pair_count=state.pair_count,
            comparisons=state.comparisons,
            pairs=(PairList.of(state.pairs).tolist()
                   if state.collect_pairs else None),
            reason=exc.as_dict())
        if self.tracer is not None:
            self.tracer.checkpoint(run.join_id,
                                   frames=len(checkpoint.stack),
                                   pair_count=checkpoint.pair_count,
                                   na=state.stats.na(),
                                   da=state.stats.da())
        return checkpoint


class _Frame:
    """One stack frame: a resident node pair and its enumeration cursor.

    ``it`` is the live entry-pair iterator; ``cursor`` counts the items
    already consumed (fully processed — the cut always falls *between*
    items, so a checkpointed cursor restores by skipping that many
    yields of a freshly built, deterministic iterator).  ``step`` is the
    bound handler for this frame's leaf/internal regime.
    """

    __slots__ = ("n1", "n2", "it", "step", "cursor", "mbr")

    def __init__(self, n1: Node, n2: Node, it, step, mbr=None):
        self.n1 = n1
        self.n2 = n2
        self.it = it
        self.step = step
        self.cursor = 0
        self.mbr = mbr


class _TraversalState:
    """Mutable state of one traversal (readers, stack, output, counters)."""

    engine = "stack"
    #: Why the run is not the one the config names (set by
    #: :func:`traversal_state`, see :func:`select_traversal`); ``None``
    #: when it is.
    fallback: str | None = None

    def __init__(self, reader1: MeteredReader, reader2: MeteredReader,
                 predicate: JoinPredicate, collect_pairs: bool,
                 pinned1: int, pinned2: int,
                 pair_enumeration: str = "nested-loop",
                 stats: AccessStats | None = None,
                 governor: ExecutionGovernor | None = None,
                 tracer=None, join_id: str | None = None, arenas=None):
        self.pair_enumeration = pair_enumeration
        #: The two trees' arenas, whose per-node slices feed the
        #: ``vectorized`` enumerations' kernels (``None`` for the others,
        #: which read the ``Rect`` objects).
        self.arenas = arenas
        # Vectorized enumerators apply the predicate inside the kernel,
        # so the step handlers must not re-test the yielded pairs.
        self.pretested = pair_enumeration == "vectorized"
        self.reader1 = reader1
        self.reader2 = reader2
        self.predicate = predicate
        self.collect_pairs = collect_pairs
        # Root pages are pinned in main memory (Section 3.1) and must not
        # be charged even when a root doubles as a leaf (height-1 trees).
        self.pinned1 = pinned1
        self.pinned2 = pinned2
        self.stats = stats if stats is not None else reader1.stats
        self.governor = governor
        # Write-only telemetry: a sampled trace of node-pair visits.
        # ``visits`` counts consumed entry pairs; it is not persisted in
        # checkpoints (sampling restarts on resume — telemetry only).
        self.tracer = tracer
        self.join_id = join_id
        self.visits = 0
        self.stack: list[_Frame] = []
        self.pairs: list[tuple[int, int]] = []
        self.pair_count = 0
        self.comparisons = 0

    def _fetch1(self, page_id: int, level: int) -> Node:
        if page_id == self.pinned1:
            return self.reader1.read_pinned(page_id, level)
        return self.reader1.fetch(page_id, level)

    def _fetch2(self, page_id: int, level: int) -> Node:
        if page_id == self.pinned2:
            return self.reader2.read_pinned(page_id, level)
        return self.reader2.fetch(page_id, level)

    # -- the stack machine --------------------------------------------------

    def _entry_pairs(self, n1: Node, n2: Node, leaf: bool):
        """The configured pair enumeration over one node pair."""
        enum = self.pair_enumeration
        if enum == "nested-loop":
            return nested_loop_pairs(n1.entries, n2.entries)
        if enum == "vectorized":
            cols1 = cols2 = None        # an empty node has no slice
            if n1.entries and n2.entries:
                cols1 = self.arenas[0].slice(n1.page_id)
                cols2 = self.arenas[1].slice(n2.page_id)
            return vectorized_pairs(n1, n2, self.predicate, leaf,
                                    cols1, cols2)
        # Both sweep enumerations widen each partner window by the
        # predicate's slack (0 for overlap; d for WithinDistance(d)) so
        # pairs matching at a positive distance are never skipped.
        return sweep_pairs(n1.entries, n2.entries,
                           slack=self.predicate.sweep_slack())

    def push(self, n1: Node, n2: Node) -> _Frame:
        """Open the SJ of a pair of resident nodes (one Fig. 2 call)."""
        if n1.is_leaf and n2.is_leaf:
            frame = _Frame(n1, n2, self._entry_pairs(n1, n2, leaf=True),
                           self._step_leaves)
        elif not n1.is_leaf and not n2.is_leaf:
            frame = _Frame(n1, n2, self._entry_pairs(n1, n2, leaf=False),
                           self._step_internal)
        elif n1.is_leaf:
            # R1 bottomed out, R2 still internal (h_R1 < h_R2 regime).
            frame = _Frame(n1, n2, iter(n2.entries),
                           self._step_r1_leaf, mbr=n1.mbr())
        else:
            # R2 bottomed out, R1 still internal (h_R1 > h_R2 regime).
            frame = _Frame(n1, n2, iter(n1.entries),
                           self._step_r2_leaf, mbr=n2.mbr())
        self.stack.append(frame)
        return frame

    def drain(self) -> None:
        """Run the machine until the stack empties (or the governor stops).

        Every iteration consumes one entry pair of the top frame (or
        pops an exhausted frame), preceded by one governor check — so a
        budget/cancellation stop always lands between fully processed
        items and the stack is checkpointable as-is.  The fetch order is
        exactly the recursion's: a qualifying internal pair pushes its
        child frame, which is drained before the parent continues.
        """
        stack = self.stack
        governor = self.governor
        tracer = self.tracer
        # Hoist the sampling decision out of the loop: with tracing off
        # (or visit sampling off) the hot path pays no tracer work.
        trace_pairs = tracer is not None and tracer.sample_pairs > 0
        while stack:
            if governor is not None:
                governor.check(self.stats, self.pair_count)
            frame = stack[-1]
            item = next(frame.it, _EXHAUSTED)
            if item is _EXHAUSTED:
                stack.pop()
                continue
            if trace_pairs:
                self.visits += 1
                if tracer.want_pair(self.visits):
                    tracer.node_pair(self.join_id, self.visits,
                                     frame.n1.page_id, frame.n1.level,
                                     frame.n2.page_id, frame.n2.level)
            frame.step(frame, item)
            frame.cursor += 1

    def join(self, n1: Node, n2: Node) -> None:
        """SJ over a pair of resident nodes, drained to completion.

        Equivalent to the recursion of Fig. 2 over this pair (used by
        the parallel join, whose workers each own a state with an empty
        stack).
        """
        self.push(n1, n2)
        self.drain()

    # -- per-regime handlers ------------------------------------------------

    def _step_leaves(self, frame: _Frame, item) -> None:
        e1, e2, cost = item
        self.comparisons += cost
        if self.pretested or self.predicate.leaf_test(e1.rect, e2.rect):
            self.pair_count += 1
            if self.collect_pairs:
                self.pairs.append((e1.ref, e2.ref))

    def _step_internal(self, frame: _Frame, item) -> None:
        e1, e2, cost = item
        self.comparisons += cost
        if self.pretested or self.predicate.node_test(e1.rect, e2.rect):
            # Line 14 of Fig. 2: ReadPage both children, recurse.
            c1 = self._fetch1(e1.ref, frame.n1.level - 1)
            c2 = self._fetch2(e2.ref, frame.n2.level - 1)
            self.push(c1, c2)

    def _step_r1_leaf(self, frame: _Frame, e2) -> None:
        self.comparisons += 1
        if self.predicate.node_test(frame.mbr, e2.rect):
            c2 = self._fetch2(e2.ref, frame.n2.level - 1)
            c1 = self._fetch1(frame.n1.page_id, frame.n1.level)
            self.push(c1, c2)

    def _step_r2_leaf(self, frame: _Frame, e1) -> None:
        self.comparisons += 1
        if self.predicate.node_test(e1.rect, frame.mbr):
            c1 = self._fetch1(e1.ref, frame.n1.level - 1)
            c2 = self._fetch2(frame.n2.page_id, frame.n2.level)
            self.push(c1, c2)
