"""Golden R*-trees: the insert path may get faster, never different.

Each case pins the SHA-256 of a whole tree — page id, level and every
entry's corner bits and ref, in storage order — as the scalar insert
built it before ChooseSubtree became a NumPy kernel and the split scans
went O(M).  Together the cases cover the kernel (level-2 nodes at M up
to 84), the split, forced reinsertion, ``delete`` -> ``_condense`` ->
orphan reinsertion, and exact ties (lattice coordinates).  The NumPy
kernel and the scalar reference ChooseSubtree of ``conftest`` must
both reproduce every digest: NA, DA, pairs and every saved tree file
depend on nothing else.
"""

import hashlib
import random

import pytest

from repro.datasets import (tiger_like_segments, uniform_rectangles,
                            zipf_rectangles)
from repro.geometry import Rect
from repro.rtree import RStarTree, validate

from .conftest import CHOOSE_SUBTREE, build_rstar, reference_choose_subtree


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
}


@pytest.mark.parametrize("scalar", CHOOSE_SUBTREE)
@pytest.mark.parametrize("case", CASES)
def test_golden_tree(case, scalar):
    build, digest = CASES[case]
    with reference_choose_subtree(scalar):
        tree = build()
    assert tree_digest(tree) == digest
    assert validate(tree) == []
