"""Golden trees: the insert path may get faster, never different.

Each case pins the SHA-256 of a whole tree — page id, level and every
entry's corner bits and ref, in storage order.  The eight R*-tree
digests are the scalar insert's from before ChooseSubtree became a
NumPy kernel and the split scans went O(M); together they cover the
kernel (level-2 nodes at M up to 84), the split, forced reinsertion,
``delete`` -> ``_condense`` -> orphan reinsertion, and exact ties
(lattice coordinates).  ``uniform-3d-M24``, computed on the scalar
reference path before ChooseSubtree learned to skip the O(M^2) pass,
is a tree where about half of the level-2 calls still take it.  The
Guttman, STR and Hilbert digests were computed before path MBRs grew
by ``union`` and the R* split went columnar: both Guttman splits with deletes, and packed trees (one at
``min_fill=0.5``) that then take R* inserts.  Five more packed trees
were computed with the ``sorted``-based packer, before packing moved
to stable argsorts over corner arrays: STR in one dimension at M = 84
and in three (three levels of slabs), STR and Hilbert over a lattice
with tied centres and ``±0.0`` corners at ``fill=1.0`` and
``min_fill=0.5`` (undersized runs merged), and the ``join-uniform-60k``
first input.  The production path and the scalar reference path of
``conftest`` must both reproduce every digest: NA, DA, pairs and every
saved tree file depend on nothing else.
"""

import pytest

from repro.rtree import validate

from .conftest import (GOLDEN_TREES, INSERT_PATHS, reference_insert,
                       tree_digest)


@pytest.mark.parametrize("scalar", INSERT_PATHS)
@pytest.mark.parametrize("case", GOLDEN_TREES)
def test_golden_tree(case, scalar):
    build, digest = GOLDEN_TREES[case]
    with reference_insert(scalar):
        tree = build()
    assert tree_digest(tree) == digest
    assert validate(tree) == []
