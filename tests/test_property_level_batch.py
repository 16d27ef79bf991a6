"""Property-based equivalence: level-batched traversal ≡ stack machine.

The ISSUE-level guarantee for :mod:`repro.join.batch`: for *any* tree
pair — degenerate rectangles, duplicate geometry, empty trees, unequal
heights — a join run with ``traversal="level-batch"`` is bit-identical
to the stack machine in every observable: the pair list *in emission
order*, NA, DA, comparison counts, governed checkpoint bytes on every
budget axis, the sampled ``node_pair`` events, and the result of
resuming a batch-interrupted run.

Deliberately *not* asserted: ``governor.checks`` — how often the two
engines poll the governor is telemetry, not an observable of the join.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exec import Budget, ExecutionConfig, ExecutionGovernor
from repro.exec.budget import BudgetExceeded
from repro.exec.checkpoint import _canonical
from repro.geometry import Rect
from repro.join import (PartialJoinResult, SpatialJoin, WithinDistance,
                        spatial_join)
from repro.join.predicates import Overlap
from repro.obs import MemorySink, Tracer
from repro.rtree import RStarTree
from repro.storage import AccessStats
from repro.storage.buffers import LRUBuffer, NoBuffer, PathBuffer

# The planner pads its tiles with NaN: NaN or overflow arithmetic in its
# kernels must fail here, not pass as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SLOW = settings(max_examples=15,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

#: Coarse grid (see test_property_vectorized): ties, touching edges
#: and zero-extent rectangles are routine, not measure-zero.
grid_coord = st.integers(0, 20).map(lambda k: k / 20.0)


def rect_strategy():
    def build(args):
        x1, y1, x2, y2 = args
        return Rect((min(x1, x2), min(y1, y2)),
                    (max(x1, x2), max(y1, y2)))
    return st.tuples(grid_coord, grid_coord,
                     grid_coord, grid_coord).map(build)


def items_strategy(max_size=50, min_size=0):
    return st.lists(rect_strategy(), min_size=min_size,
                    max_size=max_size).map(
        lambda rs: [(r, i) for i, r in enumerate(rs)])


enum_strategy = st.sampled_from(["nested-loop", "vectorized"])
predicate_strategy = st.one_of(
    st.just(Overlap()),
    st.floats(min_value=0.0, max_value=0.3).map(WithinDistance))


def build(items, max_entries=6):
    tree = RStarTree(2, max_entries)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def _signature(result, sink=None):
    """Everything both engines must agree on; with the ``sink`` of a
    sampling tracer, the ``node_pair`` events too."""
    sig = {
        "pairs": result.pairs,           # emission ORDER matters too
        "pair_count": result.pair_count,
        "comparisons": result.comparisons,
        "na": dict(result.stats.node_accesses),
        "da": dict(result.stats.disk_accesses),
    }
    if sink is not None:
        sig["node_pairs"] = [
            (r["visit"], r["page1"], r["level1"], r["page2"], r["level2"])
            for r in sink.records if r["event"] == "node_pair"]
    return sig


BUFFERS = {"path": PathBuffer, "none": NoBuffer,
           "lru": lambda: LRUBuffer(8)}
buffer_strategy = st.sampled_from(sorted(BUFFERS))


def _configs(enum):
    # Name both traversals: the default is level-batch, so a config
    # that leaves it out would compare the batch engine with itself.
    return (ExecutionConfig(pair_enumeration=enum, traversal="stack"),
            ExecutionConfig(pair_enumeration=enum,
                            traversal="level-batch"))


@SLOW
@given(items_strategy(), items_strategy(), enum_strategy,
       predicate_strategy)
def test_batch_join_bit_identical(items1, items2, enum, predicate):
    t1, t2 = build(items1), build(items2)
    stack_cfg, batch_cfg = _configs(enum)
    stack = spatial_join(t1, t2, predicate=predicate,
                         config=stack_cfg)
    batch = spatial_join(t1, t2, predicate=predicate,
                         config=batch_cfg)
    assert _signature(batch) == _signature(stack)


@SLOW
@given(items_strategy(max_size=10), items_strategy(max_size=60),
       enum_strategy, predicate_strategy)
def test_batch_join_unequal_heights(items1, items2, enum, predicate):
    """Small-vs-large capacity skews the heights, so the r1leaf /
    r2leaf mixed frontiers (one tree already at its leaves) run —
    under both predicates: a within-distance mixed level also needs
    the exact confirm of the leaf MBR's candidates."""
    t1 = build(items1, max_entries=8)
    t2 = build(items2, max_entries=3)
    stack_cfg, batch_cfg = _configs(enum)
    for a, b in ((t1, t2), (t2, t1)):
        stack = spatial_join(a, b, predicate=predicate,
                             config=stack_cfg)
        batch = spatial_join(a, b, predicate=predicate,
                             config=batch_cfg)
        assert _signature(batch) == _signature(stack)


@SLOW
@given(items_strategy(), items_strategy(), buffer_strategy, enum_strategy)
def test_batch_join_any_buffer_manager(items1, items2, kind, enum):
    """DA depends on the buffer; the batch charge preserves the exact
    ReadPage sequence, so DA matches under every buffer policy."""
    factory = BUFFERS[kind]
    t1, t2 = build(items1), build(items2)
    stack_cfg, batch_cfg = _configs(enum)
    stack = spatial_join(t1, t2, buffer=factory(), config=stack_cfg)
    batch = spatial_join(t1, t2, buffer=factory(), config=batch_cfg)
    assert _signature(batch) == _signature(stack)


def _lattice(shift):
    """36 squares of side 0.1 on a 0.15 grid, moved by ``shift``/20:
    enough overlapping pairs for several root entry pairs to emit."""
    cells = [(x + shift, y + shift) for y in range(0, 18, 3)
             for x in range(0, 18, 3)]
    return [(Rect((x / 20, y / 20), ((x + 2) / 20, (y + 2) / 20)), oid)
            for oid, (x, y) in enumerate(cells)]


def _run_bucket(join):
    """Run ``join`` the way a parallel bucket worker does: one traversal
    state, polled and reused for a ``join`` call per qualifying pair of
    root entries (a leaf root joins whole).  Returns the state and,
    when the governor stopped it, the checkpoint it would write."""
    state = join._state(AccessStats(), collect_pairs=True)
    roots = [reader.read_pinned(tree.root_id, tree.height)
             for reader, tree in ((state.reader1, join.tree1),
                                  (state.reader2, join.tree2))]
    sides = [[None] if root.is_leaf else root.entries for root in roots]
    tasks = [(e1, e2) for e2 in sides[1] for e1 in sides[0]
             if roots[0].entries and roots[1].entries
             and (e1 is None or e2 is None
                  or join.predicate.node_test(e1.rect, e2.rect))]
    try:
        for entries in tasks:
            join.governor.check(state.stats, state.pair_count)
            state.join(*[root if e is None else fetch(e.ref, root.level - 1)
                         for root, e, fetch in zip(
                             roots, entries, (state._fetch1, state._fetch2))])
    except BudgetExceeded as exc:
        return state, join._checkpoint(join._governed(), state, exc)
    return state, None


@SLOW
@given(items_strategy(), items_strategy(), enum_strategy,
       st.floats(min_value=0.0, max_value=1.0), predicate_strategy,
       st.sampled_from([(6, 6), (8, 3), (3, 8)]),
       st.sampled_from(["max_na", "max_da", "max_results"]),
       buffer_strategy, st.sampled_from([1, 3, 7]), st.booleans())
# A result budget spent inside a leaf visit of a later root entry pair.
@example(_lattice(0), _lattice(1), "nested-loop", 0.7, Overlap(), (6, 6),
         "max_results", "path", 3, True)
@example(_lattice(0), _lattice(1), "vectorized", 0.5, Overlap(), (8, 3),
         "max_results", "lru", 7, True)
def test_governed_checkpoint_bytes_identical(items1, items2, enum,
                                             frac, predicate,
                                             capacities, axis, kind,
                                             sample_pairs, bucket):
    """Unequal capacities skew the heights, so a cut can land inside a
    mixed (r1leaf/r2leaf) frame as well as a cross one; a cut on
    ``max_results`` lands inside a leaf frame, which the batch engine
    emits in one slice of the leaf level.  The cut runs ``1 .. total +
    1``, so the last value lets the join finish; the sampled events are
    compared either way.  With ``bucket`` both engines reuse one state
    for a join per root entry pair (:func:`_run_bucket`), so the cut
    can land in a later root pair, past the pairs earlier ones
    emitted."""
    t1 = build(items1, max_entries=capacities[0])
    t2 = build(items2, max_entries=capacities[1])
    stack_cfg, batch_cfg = _configs(enum)
    whole = SpatialJoin(t1, t2, BUFFERS[kind](), predicate,
                        config=stack_cfg).run()
    total = {"max_na": whole.na_total, "max_da": whole.da_total,
             "max_results": whole.pair_count}[axis]
    cut = 1 + int(frac * total)

    def governed(config):
        gov = ExecutionGovernor(Budget(**{axis: cut}), partial=True)
        sink = MemorySink(1 << 16)
        join = SpatialJoin(
            t1, t2, BUFFERS[kind](), predicate, governor=gov,
            tracer=Tracer(sink, sample_pairs=sample_pairs),
            config=config)
        return (_run_bucket(join) if bucket else join.run()), sink

    if bucket:
        (stack, stack_cp), stack_sink = governed(stack_cfg)
        (batch, batch_cp), batch_sink = governed(batch_cfg)
        assert batch.engine == "level-batch"
        assert _signature(batch, batch_sink) \
            == _signature(stack, stack_sink)
        assert (batch_cp is None) == (stack_cp is None)
        if stack_cp is not None:
            assert _canonical(batch_cp.to_dict()) \
                == _canonical(stack_cp.to_dict())
        return
    stack, stack_sink = governed(stack_cfg)
    batch, batch_sink = governed(batch_cfg)
    assert batch.complete == stack.complete
    assert _signature(batch, batch_sink) == _signature(stack, stack_sink)
    if stack.complete:
        return
    assert isinstance(stack, PartialJoinResult)
    assert isinstance(batch, PartialJoinResult)
    assert _canonical(batch.checkpoint.to_dict()) \
        == _canonical(stack.checkpoint.to_dict())


@SLOW
@given(items_strategy(), items_strategy(), enum_strategy,
       st.floats(min_value=0.0, max_value=1.0))
def test_resume_after_batch_cut(items1, items2, enum, frac):
    """A batch run cut mid-flight resumes (on the stack machine, by
    design) to the exact uninterrupted result."""
    t1, t2 = build(items1), build(items2)
    stack_cfg, batch_cfg = _configs(enum)
    baseline = _signature(spatial_join(t1, t2, config=stack_cfg))
    total_na = sum(baseline["na"].values())
    if total_na < 2:
        return
    cut = 1 + int(frac * (total_na - 2))
    gov = ExecutionGovernor(Budget(max_na=cut), partial=True)
    first = SpatialJoin(t1, t2, governor=gov, config=batch_cfg).run()
    if first.complete:
        assert _signature(first) == baseline
        return
    assert isinstance(first, PartialJoinResult)
    final = SpatialJoin(t1, t2, config=batch_cfg).resume(
        first.checkpoint)
    assert final.complete
    assert _signature(final) == baseline


class _CancelAt(ExecutionGovernor):
    """A partial governor whose token is cancelled at its ``k``-th
    check, so the run stops at that poll whatever moved before it."""

    def __init__(self, k: int):
        super().__init__(partial=True)
        self.k = k

    def check(self, stats, results=0):
        if self.checks + 1 == self.k:
            self.token.cancel()
        super().check(stats, results)


@SLOW
@given(items_strategy(max_size=30, min_size=8),
       items_strategy(max_size=30, min_size=8), enum_strategy,
       st.sampled_from([(6, 6), (8, 3), (3, 8)]))
@example(_lattice(0), _lattice(1), "nested-loop", (6, 6))
@example(_lattice(0), _lattice(1), "vectorized", (8, 3))
def test_cancellation_at_any_poll(items1, items2, enum, capacities):
    """Every poll of a level-batch run is a place it can stop — the
    entry poll and the polls after descents that move no budget
    included, which no NA, DA or result budget ever cuts at.  A
    cancellation at any of them leaves a checkpoint the stack machine
    writes at one of its own polls, and resuming it finishes the join
    exactly as the uncut run does."""
    t1 = build(items1, max_entries=capacities[0])
    t2 = build(items2, max_entries=capacities[1])
    stack_cfg, batch_cfg = _configs(enum)
    baseline = _signature(spatial_join(t1, t2, config=stack_cfg))

    def cut(config, k):
        governor = _CancelAt(k)
        return SpatialJoin(t1, t2, governor=governor,
                           config=config).run(), governor.checks

    written, k = set(), 1
    while True:
        result, _ = cut(stack_cfg, k)
        if result.complete:
            break
        written.add(_canonical(result.checkpoint.to_dict()))
        k += 1
    uncut, polls = cut(batch_cfg, 0)
    assert uncut.engine == "level-batch" and _signature(uncut) == baseline
    for k in range(1, polls + 1):
        partial, _ = cut(batch_cfg, k)
        assert isinstance(partial, PartialJoinResult)
        assert partial.engine == "level-batch"
        assert _canonical(partial.checkpoint.to_dict()) in written
        final = SpatialJoin(t1, t2, config=batch_cfg).resume(
            partial.checkpoint)
        assert final.complete and _signature(final) == baseline
