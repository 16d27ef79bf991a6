"""One conformance oracle: every join engine held to the paper's Fig. 2.

The reference is the stack machine with nested loops (``NESTED_LOOP``),
itself held to :func:`~repro.join.naive_join` here.  The cells are
generated from the configuration vocabularies — ``TRAVERSALS x
PAIR_ENUMERATIONS``, ``STRATEGIES`` and ``EXECUTION_MODES x
ASSIGNMENT_STRATEGIES`` — so removing a value removes its cells.  Each
cell is checked at the contract its engine documents, written once in
``conftest.py``: :func:`assert_conforms` (exact, sweep and PBSM cells),
:func:`assert_parallel_conforms`, and for the exact enumerations
:func:`assert_governed_conforms` (cuts on every budget axis, of the
whole join and of one parallel bucket, and their resumption) and
:func:`assert_cancellations_conform` (a cancellation at every poll).

Inputs are lattice rectangles (``conftest.items``) in trees of the
capacities ``conftest.CAPACITIES``, under ``Overlap``,
``WithinDistance``, ``StrictOverlap`` and ``KernelLessOverlap``, with a
path, no or an LRU(8) buffer.  ``governor.checks`` is telemetry, not an
observable of the join, and is not compared.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exec import (ASSIGNMENT_STRATEGIES, EXECUTION_MODES,
                        PAIR_ENUMERATIONS, STRATEGIES, TRAVERSALS,
                        ExecutionConfig)
from repro.join import (Overlap, WithinDistance, naive_join, partition,
                        spatial_join)
from repro.join.batch import BATCH_PAIR_ENUMERATIONS

from .conftest import (BUFFERS, CAPACITIES, NESTED_LOOP, KernelLessOverlap,
                       StrictOverlap, assert_cancellations_conform,
                       assert_conforms, assert_governed_conforms,
                       assert_parallel_conforms, build_rstar, items,
                       lattice_squares)

# The planner pads its tiles with NaN: NaN or overflow arithmetic in its
# kernels must fail here, not pass as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ORACLE = settings(max_examples=15,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)

#: Every serial cell: each traversal with each pair enumeration, and
#: each strategy under its defaults.
CELLS = [pytest.param(ExecutionConfig(traversal=t, pair_enumeration=e),
                      id=f"{t}-{e}")
         for t in TRAVERSALS for e in PAIR_ENUMERATIONS] \
    + [pytest.param(ExecutionConfig(strategy=s), id=s) for s in STRATEGIES]
#: ``(mode, assignment)`` of every bucket-parallel cell.
PARALLEL_CELLS = [(m, a) for m in EXECUTION_MODES
                  for a in ASSIGNMENT_STRATEGIES]
#: The exact enumerations: the ones a governor cuts on both traversals.
GOVERNED = [e for e in PAIR_ENUMERATIONS if e in BATCH_PAIR_ENUMERATIONS]


predicates = st.one_of(
    st.sampled_from([Overlap(), StrictOverlap(), KernelLessOverlap()]),
    st.one_of(st.integers(0, 6).map(lambda k: k / 20),
              st.floats(0.0, 0.3)).map(WithinDistance))
capacities = st.sampled_from(CAPACITIES)
buffers = st.sampled_from(sorted(BUFFERS))


@pytest.fixture(autouse=True, scope="module")
def _fine_pbsm_grid():
    """Two entries per tile, not 512: PBSM splits these small inputs
    into several tiles, so the reference-point owner rule decides."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition, "DEFAULT_TILE_TARGET", 2)
        yield


def _trees(items1, items2, capacities):
    return (build_rstar(items1, max_entries=capacities[0]),
            build_rstar(items2, max_entries=capacities[1]))


@ORACLE
@given(items(), items(), predicates, capacities)
def test_reference_is_the_naive_join(items1, items2, predicate,
                                     capacities):
    result = spatial_join(*_trees(items1, items2, capacities),
                          predicate=predicate, config=NESTED_LOOP)
    assert sorted(result.pairs) \
        == sorted(naive_join(items1, items2, predicate=predicate))
    assert result.da_total <= result.na_total


@pytest.mark.parametrize("config", CELLS)
@ORACLE
@given(items(), items(), predicates, capacities, buffers)
@example(lattice_squares(0), lattice_squares(1), WithinDistance(0.05),
         (8, 3), "lru")
def test_every_engine_conforms(config, items1, items2, predicate,
                               capacities, kind):
    assert_conforms(_trees(items1, items2, capacities), [config],
                    predicate, BUFFERS[kind])


@pytest.mark.parametrize("mode,assignment", [
    cell for cell in PARALLEL_CELLS if cell[0] != "processes"])
@ORACLE
@given(items(), items(), predicates, capacities, st.integers(1, 4))
def test_parallel_cells_conform(mode, assignment, items1, items2,
                                predicate, capacities, workers):
    assert_parallel_conforms(
        _trees(items1, items2, capacities),
        [ExecutionConfig(mode=mode, assignment=assignment,
                         workers=workers)], predicate)


@pytest.mark.parametrize("mode,assignment", [
    cell for cell in PARALLEL_CELLS if cell[0] == "processes"])
def test_process_cells_conform(mode, assignment):
    """Worker processes on one fixed tree pair, not under hypothesis."""
    assert_parallel_conforms(
        _trees(lattice_squares(0), lattice_squares(1), (3, 8)),
        [ExecutionConfig(mode=mode, assignment=assignment, workers=w)
         for w in range(1, 5)])


@pytest.mark.parametrize("enum", GOVERNED)
@ORACLE
@given(items(), items(),
       st.sampled_from(["max_na", "max_da", "max_results"]),
       st.floats(min_value=0.0, max_value=1.0), predicates, capacities,
       buffers, st.sampled_from([1, 3, 7]), st.booleans())
# A result budget spent inside a leaf visit of a later root entry pair.
@example(lattice_squares(0), lattice_squares(1), "max_results", 0.7,
         Overlap(), (6, 6), "path", 3, True)
@example(lattice_squares(0), lattice_squares(1), "max_results", 0.5,
         Overlap(), (8, 3), "lru", 7, True)
# A resumed, sampled drain (no bucket: the resume legs run).
@example(lattice_squares(0), lattice_squares(1), "max_na", 0.4,
         Overlap(), (6, 6), "path", 3, False)
def test_governed_cuts_conform(enum, items1, items2, axis, frac,
                               predicate, capacities, kind, sample_pairs,
                               bucket):
    assert_governed_conforms(_trees(items1, items2, capacities), enum,
                             axis, frac, predicate, kind, sample_pairs,
                             bucket)


@pytest.mark.parametrize("enum", GOVERNED)
@settings(ORACLE, max_examples=5)
@given(items(max_size=30, min_size=8), items(max_size=30, min_size=8),
       capacities)
@example(lattice_squares(0), lattice_squares(1), (8, 3))
def test_cancellation_at_any_poll_conforms(enum, items1, items2,
                                           capacities):
    assert_cancellations_conform(_trees(items1, items2, capacities), enum)
