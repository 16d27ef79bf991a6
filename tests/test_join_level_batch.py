"""Level-batch engine selection, fallback, and plan pass-through.

The equivalence guarantees live in ``test_conformance.py``;
this file pins the *plumbing*: which configurations actually dispatch
to :class:`~repro.join.LevelBatchState` (a resumed join included),
which fall back to the stack machine (the flag must never make a join
illegal) and under which recorded reason, that the one charge loop
leaves the same state whether it reads a drain in bulk or read by read
(governed, cut and sampled too), how the observability hooks surface
the batch engine, and that a priced plan executes on the engine the
config names.
"""

import contextlib

import pytest

from repro.datasets import uniform_rectangles
from repro.exec import (TRAVERSALS, Budget, ExecutionConfig,
                        ExecutionGovernor)
from repro.exec.checkpoint import _canonical
from repro.geometry import Rect
from repro.join import (LevelBatchState, PartialJoinResult, SpatialJoin,
                        WithinDistance, parallel_spatial_join,
                        spatial_join, supports_level_batch)
from repro.join import batch
from repro.join.predicates import Overlap
from repro.join.sync import _TraversalState, traversal_state
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.optimizer import (Catalog, IndexScanPlan, execute_plan,
                             make_spatial_join)
from repro.reliability import FaultInjector, FaultyPager
from repro.rtree import share_tree, str_pack
from repro.storage import (AccessStats, BufferManager, LRUBuffer,
                           MeteredReader, NoBuffer, PathBuffer)

from .conftest import BUFFERS, build_rstar, make_items, signature

# The planner pads its tiles with NaN: NaN or overflow arithmetic in its
# kernels must fail here, not pass as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BATCH = ExecutionConfig(traversal="level-batch")
STACK = ExecutionConfig(traversal="stack")


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(300, seed=71), max_entries=8)
    t2 = build_rstar(make_items(260, seed=72), max_entries=8)
    return t1, t2


def _state(t1, t2, config=BATCH, predicate=Overlap(), **kw):
    join = SpatialJoin(t1, t2, predicate=predicate, config=config, **kw)
    return join._state(AccessStats(), collect_pairs=True)


def _recorded(t1, t2, config=BATCH, predicate=Overlap()):
    """``(join_start event, counters)`` of one traced, metered run."""
    sink, metrics = MemorySink(), MetricsRegistry()
    spatial_join(t1, t2, predicate=predicate, config=config,
                 tracer=Tracer(sink), metrics=metrics)
    start, = [r for r in sink.records if r["event"] == "join_start"]
    return start, metrics.as_dict()["counters"]


class TestSelection:
    def test_traversals_vocabulary(self):
        assert TRAVERSALS == ("stack", "level-batch")
        with pytest.raises(ValueError, match="traversal"):
            ExecutionConfig(traversal="magic")

    def test_level_batch_config_selects_batch_engine(self, trees):
        assert isinstance(_state(*trees), LevelBatchState)

    def test_default_config_selects_batch_engine(self, trees):
        """``ExecutionConfig()`` runs level-batch."""
        state = _state(*trees, config=ExecutionConfig())
        result = spatial_join(*trees, config=ExecutionConfig())
        assert isinstance(state, LevelBatchState)
        assert (state.engine, state.fallback) == ("level-batch", None)
        assert (result.engine, result.fallback) == ("level-batch", None)

    def test_stack_config_selects_stack(self, trees):
        state = _state(*trees, config=STACK)
        assert isinstance(state, _TraversalState)
        assert (state.engine, state.fallback) == ("stack", None)

    def test_arena_view_selects_batch_engine(self, trees):
        t1, _t2 = trees
        h, lease = share_tree(t1)
        try:
            view = h.attach()
            assert view.arena() is not None
            assert isinstance(_state(view, view), LevelBatchState)
        finally:
            lease.close()


class TestFallback:
    """No silent fallback: the stack machine runs, and the join says why
    (``engine``/``fallback`` on ``join_start``, one counter per reason).
    """

    def _assert_fell_back(self, trees, reason, **kw):
        state = _state(*trees, **kw)
        assert isinstance(state, _TraversalState)
        assert (state.engine, state.fallback) == ("stack", reason)
        start, counters = _recorded(*trees, **kw)
        assert (start["engine"], start["fallback"]) == ("stack", reason)
        assert counters[f"join.fallback.{reason}"] == 1

    @pytest.mark.parametrize("enum", ["plane-sweep", "vectorized-sweep"])
    def test_plane_sweeps_fall_back(self, trees, enum):
        assert supports_level_batch(Overlap(), enum) == "enumeration"
        self._assert_fell_back(
            trees, "enumeration",
            config=BATCH.with_options(pair_enumeration=enum))

    def test_predicate_subclass_falls_back(self, trees):
        class Narrower(Overlap):          # could override leaf_test
            pass
        assert supports_level_batch(Narrower(), "nested-loop") \
            == "predicate"
        self._assert_fell_back(trees, "predicate", predicate=Narrower())
        assert supports_level_batch(WithinDistance(0.1),
                                    "vectorized") is None

    def test_resume_continues_on_level_batch(self, trees):
        # A level-batch cut, resumed on each traversal: no engine switch
        # at a resume (the stack machine still resumes a stack join),
        # and the uncut run's pairs, NA/DA and comparisons.
        gov = ExecutionGovernor(Budget(max_na=10), partial=True)
        first = SpatialJoin(*trees, governor=gov, config=BATCH).run()
        assert isinstance(first, PartialJoinResult)
        for config, engine in ((BATCH, "level-batch"), (STACK, "stack")):
            sink, metrics = MemorySink(), MetricsRegistry()
            final = SpatialJoin(*trees, config=config, tracer=Tracer(sink),
                                metrics=metrics).resume(first.checkpoint)
            assert final.complete
            assert (final.engine, final.fallback) == (engine, None)
            assert signature(final) \
                == signature(SpatialJoin(*trees, config=config).run())
            resumed, = [r for r in sink.records if r["event"] == "resume"]
            assert (resumed["engine"], resumed["fallback"]) == (engine, None)
            assert not [c for c in metrics.as_dict()["counters"]
                        if c.startswith("join.fallback.")]

    def test_the_engine_asked_for_is_not_a_fallback(self, trees):
        for config, engine in ((BATCH, "level-batch"), (STACK, "stack")):
            start, counters = _recorded(*trees, config=config)
            assert (start["engine"], start["fallback"]) == (engine, None)
            assert not [c for c in counters
                        if c.startswith("join.fallback.")]

    @pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
    def test_parallel_join_records_it_too(self, trees, mode):
        sink, metrics = MemorySink(), MetricsRegistry()
        parallel_spatial_join(
            *trees, tracer=Tracer(sink), metrics=metrics,
            config=BATCH.with_options(mode=mode, workers=2,
                                      pair_enumeration="plane-sweep"))
        start, = [r for r in sink.records if r["event"] == "join_start"]
        assert (start["engine"], start["fallback"]) \
            == ("stack", "enumeration")
        counters = metrics.as_dict()["counters"]
        assert counters["join.fallback.enumeration"] == 1


class TestObservability:
    def test_metrics_and_trace_events(self, trees):
        t1, t2 = trees
        metrics = MetricsRegistry()
        sink = MemorySink()
        spatial_join(t1, t2, config=BATCH, metrics=metrics,
                     tracer=Tracer(sink))
        counters = metrics.as_dict()["counters"]
        assert counters["join.batch.levels"] > 0
        assert counters["join.batch.frontier_pairs"] > 0
        assert counters["join.batch.kernel_calls"] > 0
        levels = [r for r in sink.records
                  if r["event"] == "level_batch"]
        assert len(levels) == counters["join.batch.levels"]
        assert {"depth", "kind", "frontier", "items", "qualifying",
                "kernel_calls"} <= set(levels[0])

    @pytest.mark.parametrize("predicate", [Overlap(), WithinDistance(0.03)],
                             ids=repr)
    @pytest.mark.parametrize("tall_first", [True, False],
                             ids=["r2leaf", "r1leaf"])
    def test_mixed_level_kernel_calls_ignore_the_frontier(self, predicate,
                                                          tall_first):
        """No per-visit loop: a mixed-height depth goes through the one
        planner, so its NumPy call count is the same however many node
        pairs the depth visits — within a join and across joins."""
        short = build_rstar(make_items(60, seed=77), max_entries=16)
        mixed = []
        for n, seed in ((200, 75), (600, 76)):
            tall = build_rstar(make_items(n, seed=seed), max_entries=4)
            assert tall.height > short.height + 1
            sink = MemorySink()
            spatial_join(*((tall, short) if tall_first else (short, tall)),
                         predicate=predicate, config=BATCH,
                         tracer=Tracer(sink))
            mixed.append([r for r in sink.records
                          if r["event"] == "level_batch"
                          and r["kind"] not in ("int", "leaf")])
        kind = "r2leaf" if tall_first else "r1leaf"
        assert {r["kind"] for run in mixed for r in run} == {kind}
        assert mixed[0][-1]["frontier"] != mixed[1][-1]["frontier"]
        assert len({r["frontier"] for run in mixed for r in run}) > 2
        assert len({r["kernel_calls"] for run in mixed for r in run}) == 1

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    def test_governor_is_polled_per_descent_not_per_item(self, trees, enum):
        """A budget does not poll per item: one poll on entry, one per
        level boundary of the plan and one per chunk of
        ``CHARGE_CHUNK_ITEMS`` descents — not one per descent, let alone
        one per enumerated entry pair."""
        t1, t2 = trees
        gov = ExecutionGovernor(Budget(deadline=3600.0, max_na=10 ** 9,
                                       max_da=10 ** 9))
        result = spatial_join(
            t1, t2, governor=gov,
            config=BATCH.with_options(pair_enumeration=enum))
        assert result.engine == "level-batch" and result.na_total > 100
        chunks = -(-result.na_total // (2 * batch.CHARGE_CHUNK_ITEMS))
        assert gov.checks <= 1 + max(t1.height, t2.height) + chunks

    def test_parallel_modes_merge_batch_counters(self, trees):
        t1, t2 = trees
        for mode in ("serial", "threads"):
            metrics = MetricsRegistry()
            cfg = BATCH.with_options(mode=mode, workers=2)
            parallel_spatial_join(t1, t2, config=cfg, metrics=metrics)
            counters = metrics.as_dict()["counters"]
            assert counters["join.batch.levels"] > 0, mode


def _shifted(items, by):
    """``items`` moved ``by`` along both axes."""
    return [(Rect([c + by for c in rect.lo], [c + by for c in rect.hi]), oid)
            for rect, oid in items]


@contextlib.contextmanager
def _per_read(*trees):
    """The trees read through pagers that draw a fault per read (at rate
    zero, so none fails): a reader that acts on each read, so every
    drain is charged read by read."""
    for tree in dict.fromkeys(trees):
        tree.pager = FaultyPager(tree.pager, FaultInjector(seed=0))
    try:
        yield
    finally:
        for tree in dict.fromkeys(trees):
            tree.pager = tree.pager.inner


class TestArrayCharger:
    """One loop (``LevelBatchState._charge``) charges a drain from its
    plan's arrays: in bulk on plain readers, governed or not; read by
    read, one item per chunk, when a reader acts on each read.  Both
    walk one ``ReadPage`` order and must leave the same pairs, counters,
    comparison count and buffer."""

    @pytest.fixture(scope="class")
    def shapes(self, trees):
        tall = build_rstar(make_items(700, seed=75), max_entries=8)
        short = build_rstar(make_items(40, seed=76), max_entries=8)
        leaf = build_rstar(make_items(6, seed=77, side=0.3), max_entries=8)
        far = build_rstar(_shifted(make_items(200, seed=78), 2.0),
                          max_entries=8)
        assert tall.height > short.height > leaf.height == 1
        return {"equal": trees, "tall-first": (tall, short),
                "short-first": (short, tall), "leaf-r1": (leaf, tall),
                "empty": (trees[0], far)}

    @staticmethod
    def _spy(monkeypatch):
        """Record each ``access_many`` call: a bulk drain makes one
        (ungoverned), a per-read drain none (it reads page by page)."""
        calls = []
        for cls in (BufferManager, NoBuffer, PathBuffer, LRUBuffer):
            if "access_many" in vars(cls):
                def spy(self, labels, sides, levels, pages,
                        _many=vars(cls)["access_many"]):
                    calls.append(len(sides))
                    return _many(self, labels, sides, levels, pages)
                monkeypatch.setattr(cls, "access_many", spy)
        return calls

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    @pytest.mark.parametrize("make_buffer", [
        PathBuffer, NoBuffer, lambda: LRUBuffer(5)],
        ids=["path", "none", "lru"])
    @pytest.mark.parametrize("shape", [
        "equal", "tall-first", "short-first", "leaf-r1", "empty"])
    def test_bulk_equals_loop(self, shapes, shape, make_buffer, enum,
                              monkeypatch):
        t1, t2 = shapes[shape]
        config = BATCH.with_options(pair_enumeration=enum)
        calls = self._spy(monkeypatch)
        runs = []
        for per_read in (False, True):
            buffer = make_buffer()
            with _per_read(t1, t2) if per_read else contextlib.nullcontext():
                result = spatial_join(t1, t2, buffer=buffer, config=config)
            assert result.engine == "level-batch"
            runs.append((result.pairs, result.stats.as_dict(),
                         result.comparisons, buffer.snapshot()))
            # Charged in bulk once on plain readers; read by read else.
            assert len(calls) == (not per_read)
            calls.clear()
        assert runs[0] == runs[1]
        if shape == "empty":
            assert runs[0][0] == [] and runs[0][1]["node_accesses"] == {}
        else:
            assert len(runs[0][0]) > 0 and runs[0][2] > 0

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    @pytest.mark.parametrize("shape", [
        "equal", "tall-first", "short-first", "leaf-r1"])
    def test_both_read_in_the_stack_machines_order(self, shapes, shape,
                                                   enum, monkeypatch):
        """The bulk charge's one ``access_many`` call and the per-read
        fetches hand the buffer the stack machine's ``ReadPage``
        sequence, read by read — the mixed-height re-fetch of a leaf
        after the other tree's child included, which a path buffer (one
        path per tree) cannot see."""
        class Recording(LRUBuffer):
            def access(self, tree, level, node_id):
                reads.append((tree, level, node_id))
                return super().access(tree, level, node_id)

        t1, t2 = shapes[shape]
        calls = self._spy(monkeypatch)
        logs = []
        for config, per_read in ((STACK, False), (BATCH, False),
                                (BATCH, True)):
            reads = []
            with _per_read(t1, t2) if per_read else contextlib.nullcontext():
                spatial_join(t1, t2, buffer=Recording(5),
                             config=config.with_options(
                                 pair_enumeration=enum))
            logs.append(reads)
        stack, bulk, per_read = logs
        assert calls == [len(bulk)] and len(stack) > 10
        assert bulk == stack
        assert per_read == stack

    def test_parallel_workers_start_from_buffer_state(self, trees,
                                                      monkeypatch):
        """A bucket worker fetches a task's root pages itself, through
        its private path buffer, between drains: each bulk charge starts
        from that state."""
        calls = self._spy(monkeypatch)
        config = BATCH.with_options(mode="serial", workers=3)
        runs = []
        for per_read in (False, True):
            with _per_read(*trees) if per_read else contextlib.nullcontext():
                result = parallel_spatial_join(*trees, config=config)
            runs.append((result.pairs,
                         [s.as_dict() for s in result.worker_stats],
                         result.comparisons))
            assert bool(calls) == (not per_read)
            calls.clear()
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 3


    @pytest.mark.parametrize("sampling", [
        {"sample_pairs": 7}, {"sample_buffer": 5},
        {"sample_pairs": 7, "sample_buffer": 5}],
        ids=["pairs", "buffer", "both"])
    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    @pytest.mark.parametrize("shape", [
        "equal", "tall-first", "short-first", "leaf-r1", "empty"])
    def test_sampling_interleaves(self, shapes, shape, enum, sampling,
                                  monkeypatch):
        """A sampling tracer sees the stack machine's ``node_pair`` and
        ``buffer_access`` events, in its order: a node pair between the
        reads of the items around it.  Sampling node pairs alone leaves
        an ungoverned drain on plain readers in bulk, one
        ``access_many`` call; a tracer sampling buffer accesses watches
        each read, so the drain is charged read by read."""
        t1, t2 = shapes[shape]
        calls = self._spy(monkeypatch)
        traced = []
        for config in (BATCH, STACK):
            sink = MemorySink(1 << 16)
            spatial_join(t1, t2, tracer=Tracer(sink, **sampling),
                         config=config.with_options(pair_enumeration=enum))
            traced.append([
                {k: v for k, v in r.items()
                 if k not in ("seq", "ts", "elapsed", "join")}
                for r in sink.records
                if r["event"] in ("node_pair", "buffer_access")])
        assert traced[0] == traced[1]
        assert len(traced[0]) > 10 or shape == "empty"
        # (The empty join's drain has no item to read.)
        assert len(calls) == ("sample_buffer" not in sampling
                              and shape != "empty")

    def test_readers_with_buffers_of_their_own(self, trees):
        """The bulk charger sends both trees through one buffer; readers
        that keep one each are read by read, as the stack machine
        would."""
        runs = []
        for config in (BATCH, STACK):
            stats, buffers = AccessStats(), (PathBuffer(), PathBuffer())
            readers = [MeteredReader(tree.pager, label, stats, buffer)
                       for tree, label, buffer
                       in zip(trees, ("R1", "R2"), buffers)]
            state = traversal_state(config, Overlap(), *trees, *readers,
                                    True, stats, None)
            state.join(trees[0].root(), trees[1].root())
            runs.append((state.engine, state.pairs, stats.as_dict(),
                         [buffer.snapshot() for buffer in buffers]))
        assert runs[0][0] == "level-batch" and runs[1][0] == "stack"
        assert runs[0][1:] == runs[1][1:]
        assert all(runs[0][3])

    def test_a_reader_subclass_sees_every_fetch(self, trees):
        """A reader that is not exactly a ``MeteredReader`` may do
        anything in ``fetch``: the drain is read by read, calling it in
        the stack machine's order."""
        class Logged(MeteredReader):
            def fetch(self, page_id, level):
                log.append((self.label, page_id, level))
                return super().fetch(page_id, level)

        logs = []
        for config in (BATCH, STACK):
            log, stats, buffer = [], AccessStats(), PathBuffer()
            readers = [Logged(tree.pager, label, stats, buffer)
                       for tree, label in zip(trees, ("R1", "R2"))]
            state = traversal_state(config, Overlap(), *trees, *readers,
                                    True, stats, None)
            state.join(trees[0].root(), trees[1].root())
            logs.append(log)
        assert logs[0] == logs[1] and len(logs[0]) == stats.na()

    def test_a_faulting_pager_is_read_on_every_fetch(self, trees):
        """The parallel join's workers read through plain readers, with
        no retry policy; over a ``FaultyPager`` each fetch must still
        read its page — and draw its fault — as the stack machine's
        does, so such a drain is read by read."""
        draws = []
        for config in (BATCH, STACK):
            injector = FaultInjector(seed=3)
            for tree in trees:
                tree.pager = FaultyPager(tree.pager, injector)
            try:
                parallel_spatial_join(*trees, config=config.with_options(
                    mode="serial", workers=2))
            finally:
                for tree in trees:
                    tree.pager = tree.pager.inner
            draws.append(injector.counts.reads)
        assert draws[0] == draws[1] > 100


class _RecordingGovernor(ExecutionGovernor):
    """A partial governor that notes NA at each of its polls and, given
    ``cancel_at``, cancels its token at that poll (1-based) or, given
    ``cancel_na``, at its first poll that sees that many node
    accesses."""

    def __init__(self, cancel_at=None, cancel_na=None):
        super().__init__(partial=True)
        self.cancel_at, self.cancel_na, self.polled = cancel_at, cancel_na, []

    def check(self, stats, results=0):
        self.polled.append(stats.na())
        if (self.checks + 1 == self.cancel_at
                or (self.cancel_na is not None
                    and stats.na() >= self.cancel_na)):
            self.token.cancel()
        super().check(stats, results)


def _equal_height(n1, n2, max_entries):
    trees = tuple(str_pack(uniform_rectangles(n, 0.5, 2, seed=seed).items,
                           2, max_entries)
                  for seed, n in ((91, n1), (92, n2)))
    assert trees[0].height == trees[1].height > 2
    return trees


class TestGovernedBulkCharge:
    """A governed drain on plain readers is charged in bulk too
    (``LevelBatchState._charge``): count budgets trip at the item a
    per-read drain trips at, found from the plan's arrays, and a
    deadline or a cancellation is polled after each chunk of
    ``CHARGE_CHUNK_ITEMS`` items, at one of the stack machine's polls."""

    @pytest.fixture(scope="class")
    def small(self):
        return (build_rstar(make_items(100, seed=81, side=0.06),
                            max_entries=4),
                build_rstar(make_items(25, seed=82, side=0.06),
                            max_entries=6))

    @staticmethod
    def _cut(trees, enum, kind, axis, limit, per_read, sample_pairs):
        buffer, sink = BUFFERS[kind](), MemorySink(1 << 16)
        join = SpatialJoin(
            *trees, buffer, Overlap(),
            governor=ExecutionGovernor(Budget(**{axis: limit}),
                                       partial=True),
            tracer=Tracer(sink, sample_pairs=sample_pairs),
            config=BATCH.with_options(pair_enumeration=enum))
        with _per_read(*trees) if per_read else contextlib.nullcontext():
            result = join.run()
        checkpoint = getattr(result, "checkpoint", None)
        return (signature(result, sink), buffer.snapshot(),
                checkpoint and _canonical(checkpoint.to_dict()))

    @pytest.mark.parametrize("chunk", [batch.CHARGE_CHUNK_ITEMS, 3])
    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    @pytest.mark.parametrize("kind", ["path", "none", "lru"])
    def test_every_cut_equals_stepping(self, small, kind, enum, chunk,
                                       monkeypatch):
        """At every ``max_na``, ``max_da`` and ``max_results`` cut, the
        bulk charge leaves what the per-read one does: the pairs in
        order, NA/DA per tree and level, comparisons, the buffer left
        behind and the checkpoint bytes — and, under a tracer sampling
        every or every third node pair, the sampled ``node_pair``
        events.  A DA trip inside a chunk rewinds the buffer and
        charges the prefix only; the samples stop at the same item."""
        monkeypatch.setattr(batch, "CHARGE_CHUNK_ITEMS", chunk)
        whole = spatial_join(*small, buffer=BUFFERS[kind](), config=BATCH)
        assert small[0].height != small[1].height
        for sample_pairs in (0, 1, 3):
            for axis, total in (("max_na", whole.na_total),
                                ("max_da", whole.da_total),
                                ("max_results", whole.pair_count)):
                assert total > 20
                for limit in range(1, total + 2):
                    cut = (small, enum, kind, axis, limit)
                    bulk = self._cut(*cut, False, sample_pairs)
                    assert bulk == self._cut(*cut, True, sample_pairs), \
                        (sample_pairs, axis, limit)
                    assert (bulk[-1] is None) == (limit > total)
                assert bool(bulk[0]["node_pairs"]) == bool(sample_pairs)

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    def test_a_resumed_drain_samples_from_its_cursor(self, small, enum):
        """A resumed frame's visit starts at its cursor and the visit
        counter restarts with the run: at every few ``max_na`` cuts, the
        resumed run samples what the stack machine's does, in bulk and
        read by read."""
        whole = spatial_join(*small, config=BATCH)
        for limit in range(1, whole.na_total, 3):
            runs = []
            for config, per_read in ((STACK, False), (BATCH, False),
                                     (BATCH, True)):
                config = config.with_options(pair_enumeration=enum)
                cut = SpatialJoin(*small, config=config,
                                  governor=ExecutionGovernor(
                                      Budget(max_na=limit), partial=True))
                sink = MemorySink(1 << 16)
                join = SpatialJoin(*small, config=config,
                                   tracer=Tracer(sink, sample_pairs=1))
                with (_per_read(*small) if per_read
                      else contextlib.nullcontext()):
                    runs.append(signature(
                        join.resume(cut.run().checkpoint), sink))
            assert runs[0]["node_pairs"]
            assert runs[1] == runs[0] and runs[2] == runs[0], limit

    def test_no_fetch_per_item(self, monkeypatch):
        """A governed drain on plain readers fetches no page through the
        readers: one ``access_many`` per chunk, and one poll on entry,
        one per level boundary of the plan and one per chunk."""
        trees = _equal_height(400, 350, 6)
        bare = signature(spatial_join(*trees, config=BATCH))
        fetches, chunks = [], []
        monkeypatch.setattr(MeteredReader, "fetch",
                            lambda self, *a: fetches.append(a))
        many = PathBuffer.access_many
        monkeypatch.setattr(
            PathBuffer, "access_many",
            lambda self, *a: chunks.append(len(a[1])) or many(self, *a))
        monkeypatch.setattr(batch, "CHARGE_CHUNK_ITEMS", 50)
        metrics = MetricsRegistry()
        governor = ExecutionGovernor(Budget(deadline=3600.0, max_na=10 ** 9,
                                            max_da=10 ** 9))
        result = spatial_join(*trees, governor=governor, metrics=metrics,
                              config=BATCH)
        assert signature(result) == bare
        items = result.na_total // 2
        levels = metrics.counter("join.batch.levels").value
        assert fetches == [] and items > 200
        assert sum(chunks) == result.na_total
        assert len(chunks) == -(-items // 50)
        assert governor.checks == 1 + (levels - 1) + len(chunks)

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    def test_a_cancellation_at_each_chunk_poll(self, enum):
        """A join of more than ``CHARGE_CHUNK_ITEMS`` items, cancelled at
        each of its polls: the checkpoint is the one the stack machine
        writes at its first poll that has seen as many node accesses
        (the one after the same item's fetches), and resuming it
        finishes the join as the uncut run does."""
        trees = _equal_height(2400, 2200, 8)
        config = BATCH.with_options(pair_enumeration=enum)
        governor = _RecordingGovernor()
        uncut = SpatialJoin(*trees, governor=governor, config=config).run()
        assert uncut.complete
        assert uncut.na_total // 2 > 2 * batch.CHARGE_CHUNK_ITEMS
        chunk_polls = [k for k, na in enumerate(governor.polled, start=1)
                       if na]
        assert len(chunk_polls) == -(-uncut.na_total // 2
                                     // batch.CHARGE_CHUNK_ITEMS)
        for k in range(1, len(governor.polled) + 1):
            cut = SpatialJoin(*trees, config=config,
                              governor=_RecordingGovernor(cancel_at=k)).run()
            stack = SpatialJoin(
                *trees, config=config.with_options(traversal="stack"),
                governor=_RecordingGovernor(
                    cancel_na=governor.polled[k - 1])).run()
            assert not cut.complete and not stack.complete
            assert _canonical(cut.checkpoint.to_dict()) \
                == _canonical(stack.checkpoint.to_dict())
            final = SpatialJoin(*trees, config=config).resume(cut.checkpoint)
            assert final.complete and signature(final) == signature(uncut)


def _lattice(step, side, shift=0.0, points=False):
    """Cells of an 8 x 8 lattice whose coordinates are exact binary
    fractions: neighbours meet (``side == step``) or keep a gap of
    exactly ``step - side``.  With ``points``, the lattice's own nodes
    and edges too — zero-extent rectangles lying on cell boundaries."""
    at = [shift + k * step for k in range(8)]
    rects = [Rect((x, y), (x + side, y + side)) for y in at for x in at]
    if points:
        rects += [Rect((x, y), (x, y)) for y in at for x in at]
        rects += [Rect((x, y), (x + side, y)) for y in at for x in at]
    return [(rect, oid) for oid, rect in enumerate(rects)]


class TestRestrictionEdge:
    """The planner crosses only the entries that reach the other node's
    MBR.  The property suite draws touching rectangles by chance; here
    every node boundary is one: STR packing cuts a lattice along its
    own lines, so entries meet the neighbouring node's MBR exactly on
    its edge (``lo == hi``) and a dropped ``=`` would lose pairs."""

    CASES = {
        # Cells sharing edges and corners, against the same cells plus
        # points and segments lying on those edges.
        "overlap-touching": (_lattice(0.125, 0.125),
                             _lattice(0.125, 0.125, points=True),
                             Overlap()),
        # Half-cells a gap of exactly d apart: side neighbours are at
        # distance d (in), diagonal ones at d * sqrt(2) (past the mask,
        # out at the confirm).
        "distance-gap-is-d": (_lattice(0.125, 0.0625),
                              _lattice(0.125, 0.0625, shift=0.125),
                              WithinDistance(0.0625)),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def case(self, request):
        items1, items2, predicate = self.CASES[request.param]
        return (str_pack(items1, 2, 4), str_pack(items2, 2, 4), predicate)

    @staticmethod
    def _observed(result):
        return (result.pairs, result.stats.as_dict(), result.comparisons)

    @pytest.mark.parametrize("enum", ["nested-loop", "vectorized"])
    def test_boundary_pairs_survive(self, case, enum):
        t1, t2, predicate = case
        batch_cfg = BATCH.with_options(pair_enumeration=enum)
        stack_cfg = STACK.with_options(pair_enumeration=enum)
        stack = spatial_join(t1, t2, predicate=predicate, config=stack_cfg)
        batch = spatial_join(t1, t2, predicate=predicate, config=batch_cfg)
        assert batch.engine == "level-batch"
        assert self._observed(batch) == self._observed(stack)
        # Every pair here is a boundary pair for some axis.
        assert stack.pair_count > len(t1) and stack.na_total > 40

        def checkpoint(config, cut):
            gov = ExecutionGovernor(Budget(max_na=cut), partial=True)
            result = SpatialJoin(t1, t2, predicate=predicate, governor=gov,
                                 config=config).run()
            assert isinstance(result, PartialJoinResult)
            return (_canonical(result.checkpoint.to_dict()),
                    self._observed(result))

        for k in range(20):
            cut = 1 + k * (stack.na_total - 1) // 20
            assert checkpoint(batch_cfg, cut) == checkpoint(stack_cfg, cut)

    def test_restriction_is_reported_not_charged(self, trees):
        """``items`` stays what ``comparisons`` charges — every entry
        pair of every visited node pair — and ``crossed`` says how many
        of them the planner laid out."""
        t1, t2 = trees
        sink, metrics = MemorySink(), MetricsRegistry()
        batch = spatial_join(t1, t2, config=BATCH, tracer=Tracer(sink),
                             metrics=metrics)
        stack = spatial_join(t1, t2, config=STACK)
        levels = [r for r in sink.records if r["event"] == "level_batch"]
        assert len(levels) > 2
        assert batch.comparisons == stack.comparisons \
            == sum(r["items"] for r in levels)
        crossed = sum(r["crossed"] for r in levels)
        assert batch.pair_count <= crossed < batch.comparisons
        assert all(r["qualifying"] <= r["crossed"] <= r["items"]
                   for r in levels)
        assert metrics.as_dict()["counters"]["join.batch.crossed_items"] \
            == crossed


class TestOptimizerPassThrough:
    @pytest.fixture(scope="class")
    def world(self):
        datasets = {"a": uniform_rectangles(300, 0.5, 2, seed=73),
                    "b": uniform_rectangles(280, 0.4, 2, seed=74)}
        trees = {n: build_rstar(ds.items, max_entries=16)
                 for n, ds in datasets.items()}
        catalog = Catalog(max_entries=16)
        for n, ds in datasets.items():
            catalog.register_dataset(n, ds)
        return trees, catalog

    def test_executed_plan_counters_identical(self, world):
        """The plan prices I/O; the config alone names the engine."""
        trees, catalog = world
        plan = make_spatial_join(IndexScanPlan(catalog.get("a")),
                                 IndexScanPlan(catalog.get("b")))
        assert not hasattr(plan, "traversal")
        assert "traversal" not in plan.describe()
        runs = {}
        for config in (STACK, BATCH):
            sink = MemorySink()
            runs[config.traversal] = execute_plan(
                plan, trees, config=config, tracer=Tracer(sink))
            start, = [r for r in sink.records
                      if r["event"] == "join_start"]
            assert start["engine"] == config.traversal
        stack, batch = runs["stack"], runs["level-batch"]
        assert batch.key_set() == stack.key_set()
        assert batch.na_total == stack.na_total
        assert batch.da_total == stack.da_total
