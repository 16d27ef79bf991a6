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
