"""Golden trees: the insert path may get faster, never different.

Each case pins the SHA-256 of a whole tree — page id, level and every
entry's corner bits and ref, in storage order.  The eight R*-tree
digests are the scalar insert's from before ChooseSubtree became a
NumPy kernel and the split scans went O(M); together they cover the
kernel (level-2 nodes at M up to 84), the split, forced reinsertion,
``delete`` -> ``_condense`` -> orphan reinsertion, and exact ties
(lattice coordinates).  The Guttman, STR and Hilbert digests were
computed before path MBRs grew by ``union`` and the R* split went
columnar: both Guttman splits with deletes, and packed trees (one at
``min_fill=0.5``) that then take R* inserts.  The production path and
the scalar reference path of ``conftest`` must both reproduce every
digest: NA, DA, pairs and every saved tree file depend on nothing else.
"""

import hashlib
import random

import pytest

from repro.datasets import (tiger_like_segments, uniform_rectangles,
                            zipf_rectangles)
from repro.geometry import Rect
from repro.rtree import RStarTree, hilbert_pack, str_pack, validate

from .conftest import (INSERT_PATHS, build_guttman, build_rstar,
                       reference_insert)


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


def lattice(n: int, seed: int) -> list[tuple[Rect, int]]:
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


def _churned() -> RStarTree:
    items = list(uniform_rectangles(1200, 0.5, 2, seed=11))
    tree = build_rstar(items, 2, 10)
    for rect, oid in random.Random(12).sample(items, 500):
        assert tree.delete(rect, oid)
    tree.extend((rect, 10_000 + i) for rect, i in lattice(300, 13))
    return tree


def _guttman_churned(split: str, seed: int):
    items = list(zipf_rectangles(1200, 0.5, 2, seed=seed))
    tree = build_guttman(items, 2, 10, split=split)
    for rect, oid in random.Random(seed + 1).sample(items, 400):
        assert tree.delete(rect, oid)
    tree.extend((rect, 10_000 + i) for rect, i in lattice(200, seed + 2))
    return tree


def _packed_then_inserted(pack, items, max_entries, more, **options):
    tree = pack(list(items), 2, max_entries, **options)
    tree.extend((rect, 10_000 + i) for rect, i in more)
    return tree


CASES = {
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
    "zipf-2d-M16": (
        lambda: build_rstar(zipf_rectangles(2000, 0.5, 2, seed=9), 2, 16),
        "d77824f79f6cb351770688ec8a692bf929d01422fe58779f6d25f5ac0ab84589"),
    "tiger-M12": (
        lambda: build_rstar(tiger_like_segments(1500, seed=2), 2, 12),
        "f0b6e5f1aa8d59ab9e0199f555aca113dcafcedaece30a2f769dd53755e19b0b"),
    "lattice-M8": (
        lambda: build_rstar(lattice(800, 1), 2, 8),
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
            lattice(400, 29)),
        "1e684e29518e5785e096ca441815c5b71b0e584cedd62f53f66e01e064e5380c"),
    "hilbert-2d-M16-then-insert": (
        lambda: _packed_then_inserted(
            hilbert_pack, zipf_rectangles(1500, 0.5, 2, seed=30), 16,
            uniform_rectangles(400, 0.5, 2, seed=31),
            min_fill=0.5),
        "8dc84d8cad3a228882d00347997b9ee3413e5127eec3110dad3cd760d88c4f33"),
}


@pytest.mark.parametrize("scalar", INSERT_PATHS)
@pytest.mark.parametrize("case", CASES)
def test_golden_tree(case, scalar):
    build, digest = CASES[case]
    with reference_insert(scalar):
        tree = build()
    assert tree_digest(tree) == digest
    assert validate(tree) == []
