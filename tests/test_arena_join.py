"""Joins over the whole-tree arena: bit-identity and segment hygiene.

The arena is a pure transport/layout change, so every observable of a
join must be unchanged by it: pairs, NA, DA, checkpoint bytes — whether
the kernels read arena slices, an attached :class:`ArenaTreeView`, or
shared-memory worker processes, or no arena at all.  The second half of
the file pins the ``/dev/shm`` hygiene guarantees: no segment survives
a join, a failed join, a failed export, or a closed lease.
"""

import random

import pytest

from repro.exec import Budget, ExecutionConfig, ExecutionGovernor
from repro.exec.checkpoint import _canonical
from repro.geometry import Rect
from repro.join import (PartialJoinResult, SpatialJoin,
                        parallel_spatial_join, spatial_join)
from repro.obs import MemorySink, Tracer
from repro.rtree import RStarTree, share_tree
from repro.rtree.arena_view import ArenaTreeView

from .conftest import arena_segments as _segments


def _tree(n: int, seed: int, side: float = 0.04) -> RStarTree:
    rng = random.Random(seed)
    tree = RStarTree(2, 8)
    for oid in range(n):
        lo = (rng.random() * 0.95, rng.random() * 0.95)
        tree.insert(Rect(lo, (lo[0] + side, lo[1] + side)), oid)
    return tree


@pytest.fixture()
def trees():
    return _tree(300, seed=5), _tree(300, seed=6)


def test_arena_backed_kernels_match_nested_loop(trees):
    """The stack machine's kernels over arena slices against Fig. 2."""
    t1, t2 = trees
    fig2 = ExecutionConfig(traversal="stack", pair_enumeration="nested-loop")
    baseline = spatial_join(t1, t2, config=fig2)
    for enum in ("vectorized", "vectorized-sweep"):
        got = spatial_join(
            t1, t2, config=fig2.with_options(pair_enumeration=enum))
        assert got.fallback is None
        assert sorted(got.pairs) == sorted(baseline.pairs)
        assert got.na_total == baseline.na_total
        if enum == "vectorized":         # sweeps shift buffer hits
            assert got.da_total == baseline.da_total


def test_arena_view_join_equals_tree_join(trees):
    t1, t2 = trees
    want = spatial_join(t1, t2)
    h1, lease1 = share_tree(t1)
    h2, lease2 = share_tree(t2)
    try:
        v1, v2 = h1.attach(), h2.attach()
        assert isinstance(v1, ArenaTreeView)
        assert len(v1) == len(t1) and v1.root().level == t1.root().level
        got = spatial_join(v1, v2, config=ExecutionConfig(
            pair_enumeration="vectorized"))
        assert sorted(got.pairs) == sorted(want.pairs)
        assert got.na_total == want.na_total
        assert got.da_total == want.da_total
    finally:
        lease1.close()
        lease2.close()
    assert _segments() == []


@pytest.mark.parametrize("export_works", [True, False])
def test_process_join_matches_serial(trees, export_works, monkeypatch):
    """Over exported arenas, and over pickled trees when the export
    raises ``OSError`` (a full ``/dev/shm``): same join, transport
    recorded, no segment left either way."""
    t1, t2 = trees
    cfg = ExecutionConfig(workers=2, pair_enumeration="vectorized")
    serial = parallel_spatial_join(t1, t2, config=cfg)
    if not export_works:
        from multiprocessing import shared_memory
        real, exported = shared_memory.SharedMemory, []

        def full(*args, **kwargs):
            # The first segment is created (and must be unlinked again),
            # the second hits the full device.
            if exported:
                raise OSError(28, "No space left on device")
            exported.append(real(*args, **kwargs))
            return exported[0]

        monkeypatch.setattr(shared_memory, "SharedMemory", full)
    sink = MemorySink()
    procs = parallel_spatial_join(
        t1, t2, config=cfg.with_options(mode="processes"),
        tracer=Tracer(sink))
    assert sorted(procs.pairs) == sorted(serial.pairs)
    assert [s.as_dict() for s in procs.worker_stats] == \
        [s.as_dict() for s in serial.worker_stats]
    assert _segments() == []
    start, = [r for r in sink.records if r["event"] == "join_start"]
    if export_works:
        want = ("shared-memory", None)
    else:
        want = ("pickle", "export-failed")
    assert (start["transport"], start["transport_fallback"]) == want


def test_process_join_cleans_segments_on_failure(trees):
    t1, t2 = trees
    governor = ExecutionGovernor(Budget(max_na=1))
    with pytest.raises(Exception):
        parallel_spatial_join(
            t1, t2, governor=governor,
            config=ExecutionConfig(mode="processes", workers=2,
                                   pair_enumeration="vectorized"))
    assert _segments() == []


def test_closed_lease_is_idempotent_and_unlinks(trees):
    t1, _ = trees
    handle, lease = share_tree(t1)
    assert any(handle.arena.segment == s for s in _segments())
    lease.close()
    lease.close()                        # second close is a no-op
    assert _segments() == []
    with pytest.raises(FileNotFoundError):
        handle.attach()


def test_checkpoint_bytes_identical_on_arena_backed_trees(trees):
    t1, t2 = trees

    def first_checkpoint(config):
        gov = ExecutionGovernor(Budget(max_na=40), partial=True)
        result = SpatialJoin(t1, t2, governor=gov, config=config).run()
        assert isinstance(result, PartialJoinResult)
        return _canonical(result.checkpoint.to_dict())

    # Fig. 2 before any arena exists, the default (which builds and
    # reads them), Fig. 2 again now that they are cached.
    fig2 = ExecutionConfig(traversal="stack")
    plain = first_checkpoint(fig2)
    assert first_checkpoint(ExecutionConfig()) == plain
    assert first_checkpoint(fig2) == plain


def test_pickled_tree_sheds_arena_state(trees):
    import pickle
    t1, _ = trees
    t1.arena()
    clone = pickle.loads(pickle.dumps(t1))
    assert clone._arena is None
    assert len(clone) == len(t1)
    clone.arena()                        # rebuilds fine on the copy
    assert sorted(spatial_join(clone, t1).pairs) == \
        sorted(spatial_join(t1, t1).pairs)
