"""Property-based tests: cost-model invariants over the parameter space."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.costmodel import (MIXED_HEIGHT_MODES, AnalyticalTreeParams,
                             check_model_params, intsect,
                             join_da_breakdown, join_da_by_tree,
                             join_na_breakdown, join_na_total,
                             join_selectivity_pairs, range_query_na,
                             rtree_height)
from repro.reliability import ModelDomainError

cardinalities = st.integers(min_value=1, max_value=200_000)
densities = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
capacities = st.sampled_from([8, 24, 41, 50, 84])
dims = st.integers(min_value=1, max_value=3)


def param_pairs():
    return st.tuples(cardinalities, densities, cardinalities, densities,
                     capacities, dims)


@given(cardinalities, capacities)
def test_height_at_least_one(n, m):
    assert rtree_height(n, m) >= 1


@given(param_pairs())
def test_na_symmetry(args):
    n1, d1, n2, d2, m, ndim = args
    p1 = AnalyticalTreeParams(n1, d1, m, ndim)
    p2 = AnalyticalTreeParams(n2, d2, m, ndim)
    a = join_na_total(p1, p2)
    b = join_na_total(p2, p1)
    assert abs(a - b) <= 1e-9 * max(a, b, 1.0)


def _admitted(args) -> bool:
    n1, d1, n2, d2, m, ndim = args
    try:
        check_model_params(AnalyticalTreeParams(n1, d1, m, ndim),
                           AnalyticalTreeParams(n2, d2, m, ndim))
    except ModelDomainError:
        return False
    return True


def admitted_pairs():
    """Parameter pairs over the whole domain the formulas accept: any
    ``N >= 1``, any finite ``D >= 0``, any ``M >= 2``, as far as
    :func:`check_model_params` admits the trees they give."""
    return st.tuples(st.integers(1, 10**7), st.floats(0.0, 1e6),
                     st.integers(1, 10**7), st.floats(0.0, 1e6),
                     st.integers(2, 100), dims).filter(_admitted)


def _stages(args, mode):
    """Per stage: ``(NA stage, DA stage, N_{1,j} * N_{2,j})``."""
    n1, d1, n2, d2, m, ndim = args
    p1 = AnalyticalTreeParams(n1, d1, m, ndim)
    p2 = AnalyticalTreeParams(n2, d2, m, ndim)
    return [(na, da, p1.nodes_at(na.stage.level1)
             * p2.nodes_at(na.stage.level2))
            for na, da in zip(join_na_breakdown(p1, p2),
                              join_da_breakdown(p1, p2, mode))]


@given(admitted_pairs(), st.sampled_from(MIXED_HEIGHT_MODES))
# Point data in 3-d: Eq. 5 lifts the leaves' parent extents faster than
# the parent count shrinks, so the raw Eq. 8 leaf stage (1285.28) tops
# the stage's NA (1171.74).
@example((4158, 0.0, 21927, 0.0, 24, 3), "traversal")
@example((4158, 0.0, 21927, 0.0, 24, 3), "paper")
def test_da_never_exceeds_na(args, mode):
    """A buffer only saves reads: DA(R, j) <= NA(R, j) at every stage,
    in both readings of Eq. 12."""
    for na, da, _cells in _stages(args, mode):
        assert da.stage == na.stage
        assert da.cost1 <= na.cost1
        assert da.cost2 <= na.cost2


@given(admitted_pairs())
def test_stage_na_bounded_by_node_pairs(args):
    """A stage reads at most every pair of its two levels' nodes."""
    for na, _da, cells in _stages(args, "traversal"):
        assert na.cost1 <= cells and na.cost2 <= cells


@given(param_pairs())
def test_costs_non_negative(args):
    n1, d1, n2, d2, m, ndim = args
    p1 = AnalyticalTreeParams(n1, d1, m, ndim)
    p2 = AnalyticalTreeParams(n2, d2, m, ndim)
    assert join_na_total(p1, p2) >= 0.0
    da1, da2 = join_da_by_tree(p1, p2)
    assert da1 >= 0.0 and da2 >= 0.0


@given(param_pairs())
def test_selectivity_bounded_by_cartesian_product(args):
    n1, d1, n2, d2, m, ndim = args
    p1 = AnalyticalTreeParams(n1, d1, m, ndim)
    p2 = AnalyticalTreeParams(n2, d2, m, ndim)
    pairs = join_selectivity_pairs(p1, p2)
    assert 0.0 <= pairs <= n1 * n2 + 1e-9


@given(cardinalities, densities, capacities, dims,
       st.floats(min_value=0.0, max_value=1.0))
def test_range_na_monotone_in_window(n, d, m, ndim, q):
    p = AnalyticalTreeParams(n, d, m, ndim)
    small = range_query_na(p, (q * 0.5,) * ndim)
    large = range_query_na(p, (q,) * ndim)
    assert small <= large + 1e-9


finite = st.floats(min_value=0.0, allow_infinity=False)


@given(finite, st.integers(1, 4).flatmap(
    lambda ndim: st.tuples(st.lists(finite, min_size=ndim, max_size=ndim),
                           st.lists(finite, min_size=ndim, max_size=ndim))))
def test_intsect_bounded_by_n(n, shapes):
    """No window intersects more rectangles than there are, over every
    count, extent and window ``intsect`` accepts."""
    extents, window = shapes
    assert intsect(n, extents, window) <= n


@given(cardinalities, densities, capacities, dims)
def test_density_propagation_stays_finite_and_positive(n, d, m, ndim):
    p = AnalyticalTreeParams(n, d, m, ndim)
    for level in range(p.height + 1):
        dj = p.density_at(level)
        assert dj >= 0.0
        assert dj < max(d, 1.0) + 1.0


@given(cardinalities, densities, capacities, dims)
def test_extents_within_workspace(n, d, m, ndim):
    p = AnalyticalTreeParams(n, d, m, ndim)
    for level in range(1, p.height + 1):
        for s in p.extents_at(level):
            assert 0.0 <= s <= 1.0
