"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import threading
from contextlib import contextmanager
from itertools import accumulate

import pytest
from hypothesis import strategies as st

from repro.datasets import (tiger_like_segments, uniform_rectangles,
                            zipf_rectangles)
from repro.exec import TRAVERSALS, Budget, ExecutionConfig, ExecutionGovernor
from repro.exec.budget import BudgetExceeded
from repro.exec.checkpoint import _canonical
from repro.geometry import Rect
from repro.geometry.columnar import first_least
from repro.join import (OVERLAP, JoinPredicate, Overlap, SpatialJoin,
                        parallel_spatial_join, spatial_join)
from repro.join.batch import BATCH_PAIR_ENUMERATIONS
from repro.obs import MemorySink, Tracer
from repro.rtree import (GuttmanRTree, RStarTree, RTreeBase, hilbert_pack,
                         str_pack)
from repro.rtree.arena_view import ArenaPages
from repro.serve import JoinService, ServeConfig, ServeDaemon
from repro.storage import AccessStats, LRUBuffer, NoBuffer, PathBuffer

#: The paper's Fig. 2 (the stack machine with nested loops): the one
#: reference every join engine is held to (``test_conformance.py``).
NESTED_LOOP = ExecutionConfig(traversal="stack",
                              pair_enumeration="nested-loop")
PLANE_SWEEP = NESTED_LOOP.with_options(pair_enumeration="plane-sweep")
VECTORIZED = NESTED_LOOP.with_options(pair_enumeration="vectorized")

#: Lattice coordinates in steps of 1/20: ties, touching edges and
#: zero-extent rectangles are routine instead of vanishingly rare.
LATTICE = st.integers(0, 20).map(lambda k: k / 20.0)


def rects(ndim: int = 2, coord=LATTICE, extent=None):
    """The one rectangle strategy: per axis, two ``coord`` draws sorted
    into ``(lo, hi)``, or with an ``extent`` strategy one ``coord``
    draw and ``lo + extent``."""
    if extent is None:
        axis = st.tuples(coord, coord).map(lambda ab: (min(ab), max(ab)))
    else:
        axis = st.tuples(coord, extent).map(lambda ce: (ce[0],
                                                        ce[0] + ce[1]))
    return st.lists(axis, min_size=ndim, max_size=ndim).map(
        lambda axes: Rect(tuple(a[0] for a in axes),
                          tuple(a[1] for a in axes)))


def items(max_size: int = 50, min_size: int = 0, rect=None):
    """``[(rect, oid), ...]`` with oids ``0 .. n-1`` (lattice rectangles
    unless ``rect`` says otherwise)."""
    return st.lists(rect if rect is not None else rects(),
                    min_size=min_size, max_size=max_size).map(
        lambda rs: [(r, i) for i, r in enumerate(rs)])


#: Node capacities ``(M1, M2)``: equal, and skewed both ways so that
#: one tree reaches its leaves first (mixed-height frames).
CAPACITIES = [(6, 6), (8, 3), (3, 8)]

#: The buffers a join's DA is checked under.
BUFFERS = {"path": PathBuffer, "none": NoBuffer,
           "lru": lambda: LRUBuffer(8)}


def lattice_squares(shift: int) -> list[tuple[Rect, int]]:
    """36 squares of side 0.1 on a 0.15 grid, moved by ``shift``/20:
    enough overlapping pairs for several root entry pairs to emit."""
    cells = [(x + shift, y + shift) for y in range(0, 18, 3)
             for x in range(0, 18, 3)]
    return [(Rect((x / 20, y / 20), ((x + 2) / 20, (y + 2) / 20)), oid)
            for oid, (x, y) in enumerate(cells)]


def signature(result, sink=None) -> dict:
    """What an exact engine must reproduce of the reference: the pairs
    in emission order and their count, ``stats.as_dict()`` (NA and DA
    per tree and level) and ``comparisons``; given the ``sink`` of a
    sampling tracer, the sampled ``node_pair`` events too."""
    sig = {"pairs": list(result.pairs), "pair_count": result.pair_count,
           "stats": result.stats.as_dict(),
           "comparisons": result.comparisons}
    if sink is not None:
        sig["node_pairs"] = [
            (r["visit"], r["page1"], r["level1"], r["page2"], r["level2"])
            for r in sink.records if r["event"] == "node_pair"]
    return sig


# -- the conformance oracle's contracts (its cells: test_conformance.py) --

def _nonroot_pages(tree) -> int:
    return sum(1 for node in tree.nodes() if node.page_id != tree.root_id)


def assert_conforms(trees, configs, predicate=OVERLAP, buffer=PathBuffer):
    """Run each of ``configs`` on ``trees`` and hold it to the reference
    (``NESTED_LOOP``) at the contract of its engine:

    * PBSM: the reference's pair set without duplicates, and NA = DA =
      the non-root pages of both trees;
    * an exact enumeration (``BATCH_PAIR_ENUMERATIONS``), on either
      traversal: the reference's pairs in order and NA/DA per tree and
      level, and the comparisons of the same enumeration on the stack
      machine;
    * any other enumeration (a plane sweep): the reference's pair set
      and NA.
    """
    def run(config):
        return spatial_join(*trees, buffer(), predicate, config=config)

    want = signature(run(NESTED_LOOP))
    for config in configs:
        got = run(config)
        sig = signature(got)
        if got.engine == "pbsm":
            assert len(set(sig["pairs"])) == len(sig["pairs"])
            assert sorted(sig["pairs"]) == sorted(want["pairs"])
            assert got.na_total == got.da_total \
                == sum(map(_nonroot_pages, trees))
        elif config.pair_enumeration in BATCH_PAIR_ENUMERATIONS:
            twin = got if config.traversal == NESTED_LOOP.traversal \
                else run(config.with_options(traversal=NESTED_LOOP.traversal))
            assert sig == dict(want, comparisons=twin.comparisons)
        else:
            assert sorted(sig["pairs"]) == sorted(want["pairs"])
            assert sig["stats"]["node_accesses"] \
                == want["stats"]["node_accesses"]


def assert_parallel_conforms(trees, configs, predicate=OVERLAP):
    """The bucket-parallel join under each of ``configs``: the
    reference's pair multiset (and a ``pair_count`` that counts it), NA
    and comparisons, and a makespan no larger than the total DA."""
    reference = spatial_join(*trees, predicate=predicate,
                             config=NESTED_LOOP)
    for config in configs:
        got = parallel_spatial_join(*trees, predicate=predicate,
                                    config=config)
        assert sorted(got.pairs) == sorted(reference.pairs)
        assert got.pair_count == len(got.pairs)
        assert got.total_na == reference.na_total
        assert got.comparisons == reference.comparisons
        assert 0 <= got.makespan_da <= got.total_da


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


def assert_governed_conforms(trees, enum, axis, frac, predicate=OVERLAP,
                             kind="path", sample_pairs=1, bucket=False):
    """A cut on budget ``axis`` (``max_na``, ``max_da`` or
    ``max_results``) at ``1 + frac * total`` — the last value lets the
    join finish — of the exact enumeration ``enum``, under the buffer
    ``BUFFERS[kind]``: every traversal gives the stack machine's
    signature and sampled ``node_pair`` events and writes its checkpoint
    bytes.  So does each traversal's resumption of its own cut under a
    second, later cut (sampling restarts at a resume, on every engine),
    and resuming that finishes with the uncut run's signature (not
    after an LRU buffer, whose contents a checkpoint does not hold).
    With ``bucket`` each traversal reuses one state for a join per root
    entry pair, as a parallel bucket worker does, so the cut can land
    in a later root pair, past the pairs earlier ones emitted; such a
    cut is not resumed."""
    stack_cfg = NESTED_LOOP.with_options(pair_enumeration=enum)
    whole = SpatialJoin(*trees, BUFFERS[kind](), predicate,
                        config=stack_cfg).run()
    total = {"max_na": whole.na_total, "max_da": whole.da_total,
             "max_results": whole.pair_count}[axis]
    cut = 1 + int(frac * total)

    def governed(config, limit, checkpoint=None):
        sink = MemorySink(1 << 16)
        join = SpatialJoin(
            *trees, BUFFERS[kind](), predicate,
            governor=ExecutionGovernor(Budget(**{axis: limit}), partial=True),
            tracer=Tracer(sink, sample_pairs=sample_pairs), config=config)
        if bucket:
            return (*_run_bucket(join), sink)
        result = join.run() if checkpoint is None else join.resume(checkpoint)
        return result, getattr(result, "checkpoint", None), sink

    def conforming(legs):
        """Hold each traversal's leg to the stack machine's; their
        checkpoints."""
        stack, stack_cp, stack_sink = legs[stack_cfg]
        for got, checkpoint, sink in legs.values():
            assert signature(got, sink) == signature(stack, stack_sink)
            assert (checkpoint is None) == (stack_cp is None)
            if checkpoint is not None:
                assert _canonical(checkpoint.to_dict()) \
                    == _canonical(stack_cp.to_dict())
        return {config: leg[1] for config, leg in legs.items()}

    configs = [stack_cfg.with_options(traversal=t) for t in TRAVERSALS]
    cuts = conforming({config: governed(config, cut) for config in configs})
    if bucket or cuts[stack_cfg] is None:
        return
    later = (cut + total) // 2 + 1
    legs = {config: governed(config, later, checkpoint)
            for config, checkpoint in cuts.items()}
    conforming(legs)
    if kind == "lru":
        return
    for config, (got, checkpoint, _sink) in legs.items():
        if checkpoint is not None:
            got = SpatialJoin(*trees, BUFFERS[kind](), predicate,
                              config=config).resume(checkpoint)
        assert got.complete and signature(got) == signature(whole)


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


def assert_cancellations_conform(trees, enum):
    """Every poll of a run is a place it can stop — the entry poll and
    the polls after descents that move no budget included, which no NA,
    DA or result budget ever cuts at.  A cancellation at any poll of
    any traversal of the exact enumeration ``enum`` leaves a checkpoint
    the stack machine writes at one of its own polls, and resuming it
    finishes the join exactly as the uncut run does."""
    stack_cfg = NESTED_LOOP.with_options(pair_enumeration=enum)

    def cut(config, k):
        governor = _CancelAt(k)
        return SpatialJoin(*trees, governor=governor,
                           config=config).run(), governor.checks

    baseline = signature(cut(stack_cfg, 0)[0])
    written, k = set(), 1
    while True:
        result, _ = cut(stack_cfg, k)
        if result.complete:
            break
        written.add(_canonical(result.checkpoint.to_dict()))
        k += 1
    for traversal in TRAVERSALS:
        if traversal == stack_cfg.traversal:
            continue                    # it wrote ``written``
        config = stack_cfg.with_options(traversal=traversal)
        uncut, polls = cut(config, 0)
        assert uncut.engine == traversal
        assert signature(uncut) == baseline
        for k in range(1, polls + 1):
            partial, _ = cut(config, k)
            assert not partial.complete and partial.engine == traversal
            assert _canonical(partial.checkpoint.to_dict()) in written
            final = SpatialJoin(*trees, config=config).resume(
                partial.checkpoint)
            assert final.complete and final.engine == traversal
            assert signature(final) == baseline


class KernelLessOverlap(JoinPredicate):
    """Overlap written as a custom predicate: the two scalar tests and
    no kernel of its own (the default, all-pass inexact ``pair_mask``)."""

    def node_test(self, r1, r2):
        return r1.intersects(r2)

    leaf_test = node_test


class StrictOverlap(Overlap):
    """Overlap with a stricter leaf test, which the inherited mask must
    not pass as exact: R1's lower x-bound lies strictly left of R2's."""

    def leaf_test(self, r1, r2):
        return r1.intersects(r2) and r1.lo[0] < r2.lo[0]

    def __repr__(self) -> str:
        return "StrictOverlap()"


def least_overlap_enlargement(node, rect) -> int:
    """Minimal increase of overlap with siblings (BKSS90 §4.1).

    The scalar definition of R*-tree ChooseSubtree above the leaves:
    what :func:`repro.geometry.columnar.least_overlap_enlargement` must
    answer bit for bit.
    """
    rects = [e.rect for e in node.entries]
    keys = []
    for i, old in enumerate(rects):
        new = old.union(rect)
        delta = 0.0
        for j, other in enumerate(rects):
            if j == i:
                continue
            delta += (new.intersection_area(other)
                      - old.intersection_area(other))
        area = old.area()
        keys.append((delta, new.area() - area, area))
    return first_least(keys)


def _axis_cuts(tree, entries, axis: int) -> list[tuple]:
    """Every legal cut along one axis, as ``(ordered, k, mbr1, mbr2)``.

    ``ordered`` is the entries sorted by lower bound, then by upper
    bound; ``k`` ascends within each.  ``mbr1`` bounds ``ordered[:k]``
    and ``mbr2`` bounds ``ordered[k:]``, both read off the running MBRs
    of the order taken from its head and from its tail.
    """
    cuts = []
    for key in (lambda e: (e.rect.lo[axis], e.rect.hi[axis]),
                lambda e: (e.rect.hi[axis], e.rect.lo[axis])):
        ordered = sorted(entries, key=key)
        rects = [e.rect for e in ordered]
        heads = list(accumulate(rects, Rect.union))
        tails = list(accumulate(reversed(rects),
                                lambda mbr, rect: rect.union(mbr)))
        tails.reverse()
        cuts.extend(
            (ordered, k, heads[k - 1], tails[k])
            for k in range(tree.min_entries,
                           len(ordered) - tree.min_entries + 1))
    return cuts


def _choose_split_axis(tree, entries) -> list[tuple]:
    """Cuts of the axis with the least margin sum over all of them."""
    per_axis = [_axis_cuts(tree, entries, axis)
                for axis in range(tree.ndim)]
    margins = []
    for cuts in per_axis:
        margin = 0.0
        for _ordered, _k, mbr1, mbr2 in cuts:
            margin += mbr1.margin() + mbr2.margin()
        margins.append(margin)
    return per_axis[first_least(margins)]


def _choose_split_index(cuts: list[tuple]) -> tuple[list, list]:
    """Cut with minimal overlap (ties: minimal area sum)."""
    ordered, k, _mbr1, _mbr2 = cuts[first_least([
        (mbr1.intersection_area(mbr2), mbr1.area() + mbr2.area())
        for _ordered, _k, mbr1, mbr2 in cuts])]
    return ordered[:k], ordered[k:]


def rstar_split(tree, entries, level) -> tuple[list, list]:
    """The R*-tree split (BKSS90 §4.2) over ``Rect`` objects: the
    scalar definition ``RStarTree._split_entries`` must answer."""
    return _choose_split_index(_choose_split_axis(tree, entries))


def rebound_path(tree, path, indices, rect) -> None:
    """Re-bound every path MBR from all of its node's entries
    (``Node.mbr()``): the definition the union growth of
    ``RTreeBase._grow_path`` must reproduce bit for bit."""
    tree._adjust_path(path, indices)


@contextmanager
def reference_insert(enabled: bool = True):
    """Build trees on the scalar reference insert path for a block (a
    no-op when not ``enabled``): :func:`least_overlap_enlargement` for
    R* ChooseSubtree above the leaves, :func:`rstar_split` for the R*
    split and :func:`rebound_path` for every variant's path MBRs."""
    kernel = RStarTree._choose_subtree

    def choose(tree, node, rect):
        if node.level != 2:
            return kernel(tree, node, rect)
        return least_overlap_enlargement(node, rect)

    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(RStarTree, "_choose_subtree", choose)
            patch.setattr(RStarTree, "_split_entries", rstar_split)
            patch.setattr(RTreeBase, "_grow_path", rebound_path)
        yield


#: ``reference_insert(...)`` arguments for a test that builds its trees
#: both ways.
INSERT_PATHS = [pytest.param(True, id="scalar"),
                pytest.param(False, id="numpy")]


def arena_segments() -> list[str]:
    """Shared-memory arena segments currently present in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):    # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir("/dev/shm")
            if f.startswith("repro_arena_")]


def make_items(n: int, ndim: int = 2, seed: int = 0,
               side: float = 0.02) -> list[tuple[Rect, int]]:
    """Random square rectangles fully inside the unit workspace."""
    rng = random.Random(seed)
    items = []
    for oid in range(n):
        lo = [rng.uniform(0.0, 1.0 - side) for _ in range(ndim)]
        items.append((Rect(lo, [a + side for a in lo]), oid))
    return items


def build_rstar(items, ndim: int = 2, max_entries: int = 8) -> RStarTree:
    tree = RStarTree(ndim, max_entries)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def build_guttman(items, ndim: int = 2, max_entries: int = 8,
                  split: str = "quadratic") -> GuttmanRTree:
    tree = GuttmanRTree(ndim, max_entries, split=split)
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


@pytest.fixture
def built(monkeypatch):
    """The page ids whose nodes are built from an arena while the test
    runs."""
    pages = []
    build = ArenaPages.build

    def spy(self, page_id):
        pages.append(page_id)
        return build(self, page_id)

    monkeypatch.setattr(ArenaPages, "build", spy)
    return pages


@pytest.fixture
def items_200():
    return make_items(200, ndim=2, seed=7)


@pytest.fixture
def rstar_200(items_200):
    return build_rstar(items_200)


# -- golden trees ------------------------------------------------------

def tree_digest(tree) -> str:
    """SHA-256 over every node by ascending page id, then root/height."""
    h = hashlib.sha256()
    for node in sorted(tree.nodes(), key=lambda n: n.page_id):
        h.update(f"{node.page_id}:{node.level}:".encode())
        for entry in node.entries:
            corners = ",".join(x.hex() for x in
                               entry.rect.lo + entry.rect.hi)
            h.update(f"{corners}>{entry.ref};".encode())
    h.update(f"root={tree.root_id},h={tree.height}".encode())
    return h.hexdigest()


def _lattice16(n: int, seed: int) -> list[tuple[Rect, int]]:
    """Rectangles on a 1/16 lattice: ties in every criterion."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x = rng.randrange(16) / 16
        y = rng.randrange(16) / 16
        w = rng.randrange(3) / 16
        h = rng.randrange(3) / 16
        items.append((Rect((x, y), (x + w, y + h)), i))
    return items


def _signed_lattice16(n: int, seed: int) -> list[tuple[Rect, int]]:
    """Rectangles on a 1/16 lattice around the origin, about half of
    whose zero corners are ``-0.0``: tied centres for the packers'
    sorts, and ``±0.0`` ties that only a bit-level MBR comparison
    tells apart."""
    rng = random.Random(seed)

    def signed(x: float) -> float:
        return -0.0 if x == 0 and rng.random() < 0.5 else x

    items = []
    for i in range(n):
        x = rng.randrange(-8, 8) / 16
        y = rng.randrange(-8, 8) / 16
        w = rng.randrange(3) / 16
        h = rng.randrange(3) / 16
        items.append((Rect((signed(x), signed(y)),
                           (signed(x + w), signed(y + h))), i))
    return items


def _churned() -> RStarTree:
    items = list(uniform_rectangles(1200, 0.5, 2, seed=11))
    tree = build_rstar(items, 2, 10)
    for rect, oid in random.Random(12).sample(items, 500):
        assert tree.delete(rect, oid)
    tree.extend((rect, 10_000 + i) for rect, i in _lattice16(300, 13))
    return tree


def _guttman_churned(split: str, seed: int):
    items = list(zipf_rectangles(1200, 0.5, 2, seed=seed))
    tree = build_guttman(items, 2, 10, split=split)
    for rect, oid in random.Random(seed + 1).sample(items, 400):
        assert tree.delete(rect, oid)
    tree.extend((rect, 10_000 + i) for rect, i in _lattice16(200, seed + 2))
    return tree


def _packed_then_inserted(pack, items, max_entries, more, **options):
    tree = pack(list(items), 2, max_entries, **options)
    tree.extend((rect, 10_000 + i) for rect, i in more)
    return tree


#: ``name: (build, digest)`` of the golden trees
#: (``test_rtree_golden.py``).
GOLDEN_TREES = {
    "uniform-2d-M24": (
        lambda: build_rstar(uniform_rectangles(1000, 0.5, 2, seed=7), 2, 24),
        "b7f385af7f104e3e1070f5fb82ef93122f0305cea15802ffbfadcf3e4ce5cad1"),
    "uniform-1d-M84": (
        lambda: build_rstar(uniform_rectangles(3000, 0.5, 1, seed=4), 1, 84),
        "46d8087a7ee6a24b360a124d0465772a1059de38501768c923a4ae9b9c8168fe"),
    "uniform-2d-M50": (
        lambda: build_rstar(uniform_rectangles(3000, 0.5, 2, seed=3), 2, 50),
        "1e70475781ded99aa46039e592fc77cb240c1140651fb754890cc00b41de6d41"),
    "uniform-3d-M6": (
        lambda: build_rstar(uniform_rectangles(1500, 1.0, 3, seed=5), 3, 6),
        "6c2ddf4ad020d96b791348058d9863ee6e359d0ea46d901fca0e349f13124133"),
    "uniform-3d-M24": (
        lambda: build_rstar(uniform_rectangles(1500, 0.5, 3, seed=44), 3, 24),
        "f51ce94ad8ed40c91f90e2a662d1fe6439565df929853f04b8b8f66bdbfc65bf"),
    "zipf-2d-M16": (
        lambda: build_rstar(zipf_rectangles(2000, 0.5, 2, seed=9), 2, 16),
        "d77824f79f6cb351770688ec8a692bf929d01422fe58779f6d25f5ac0ab84589"),
    "tiger-M12": (
        lambda: build_rstar(tiger_like_segments(1500, seed=2), 2, 12),
        "f0b6e5f1aa8d59ab9e0199f555aca113dcafcedaece30a2f769dd53755e19b0b"),
    "lattice-M8": (
        lambda: build_rstar(_lattice16(800, 1), 2, 8),
        "f7107bbf100d10a07e62d89458259e8af5325b67ce9469f7450591a764d9f0d5"),
    "delete-then-lattice-M10": (
        _churned,
        "9b7a27dd0cd72376277164fe69f3e63b42a6ff9f0393c9919d00cc7d98c83301"),
    "guttman-linear-2d-M12": (
        lambda: build_guttman(uniform_rectangles(1500, 0.5, 2, seed=21),
                              2, 12, split="linear"),
        "0fc765fef3dc732e97cf8b01c9fff93d74aeda65dbae7826d7247801e028c26e"),
    "guttman-linear-churn-M10": (
        lambda: _guttman_churned("linear", 22),
        "7358810544192378995bd5673afed2ab70e6ab68674d73203845807b9f786d4b"),
    "guttman-quadratic-churn-M10": (
        lambda: _guttman_churned("quadratic", 25),
        "4f7560344c7ea9ab053294a4021ed2ab39ced403bee0cfa37b0473de594e144b"),
    "str-2d-M24-then-insert": (
        lambda: _packed_then_inserted(
            str_pack, uniform_rectangles(2000, 0.5, 2, seed=28), 24,
            _lattice16(400, 29)),
        "1e684e29518e5785e096ca441815c5b71b0e584cedd62f53f66e01e064e5380c"),
    "hilbert-2d-M16-then-insert": (
        lambda: _packed_then_inserted(
            hilbert_pack, zipf_rectangles(1500, 0.5, 2, seed=30), 16,
            uniform_rectangles(400, 0.5, 2, seed=31),
            min_fill=0.5),
        "8dc84d8cad3a228882d00347997b9ee3413e5127eec3110dad3cd760d88c4f33"),
    "str-1d-M84": (
        lambda: str_pack(uniform_rectangles(6000, 0.5, 1, seed=41).items,
                         1, 84),
        "5dd3d8b83b5847a46a88b33bc23f86ab3e0968f8091ae496eddb059903fce7b4"),
    "str-3d-M12": (
        lambda: str_pack(uniform_rectangles(4000, 0.5, 3, seed=42).items,
                         3, 12),
        "c44d6e5117e1725cc8bbcbbdb12bdd2b308193831044217cc9097ef4f4a33f72"),
    "str-signed-lattice-M8-full": (
        lambda: str_pack(_signed_lattice16(650, 43), 2, 8, fill=1.0,
                         min_fill=0.5),
        "e03b9433bc4e3d226cb0d86aea203ec7ed011714709b5951d4bc7521e05883bd"),
    "hilbert-signed-lattice-M8-full": (
        lambda: hilbert_pack(_signed_lattice16(650, 43), 2, 8, fill=1.0,
                             min_fill=0.5),
        "e79bad7e7269d166ccfaf3813420c24d2381d89bf2742b4e3adafb8721bc97cf"),
    "str-uniform-60k-M50": (
        lambda: str_pack(uniform_rectangles(60_000, 0.5, 2, seed=1).items,
                         2, 50),
        "98ab81da950333474e36f97238253381b749eb87fa7d092429c5725584bbf99d"),
}

#: The golden cases whose build is a packing alone: their trees come
#: with the arena the packer installed (``test_rtree_bulk.py``).
PACKED_GOLDEN_TREES = ["str-1d-M84", "str-3d-M12",
                       "str-signed-lattice-M8-full",
                       "hilbert-signed-lattice-M8-full",
                       "str-uniform-60k-M50"]


# -- the serve daemon --------------------------------------------------

#: ``(field, value)`` pairs a request must refuse, not coerce:
#: ``bool("false")`` is true and ``True`` is an ``int`` (checked on
#: ``JoinService.execute`` and through ``POST /join``).
COERCED_FIELDS = [
    ("collect_pairs", "false"), ("collect_pairs", [0]),
    ("collect_pairs", 0), ("workers", True), ("workers", "2"),
]


class DaemonHarness:
    """A ServeDaemon on its own event-loop thread."""

    def __init__(self, config: ServeConfig | None = None,
                 service: JoinService | None = None):
        self.service = (service if service is not None
                        else JoinService(config))
        self.daemon = ServeDaemon(self.service)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.addresses = asyncio.run_coroutine_threadsafe(
            self.daemon.start(), self.loop).result(timeout=10)

    @property
    def http_url(self) -> str:
        return next(a for a in self.addresses if a.startswith("http://"))

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.daemon.stop(grace=5.0), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
