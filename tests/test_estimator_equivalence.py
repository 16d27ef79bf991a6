"""Property tests: the batch engine equals the scalar reference
formulas bit for bit, over the full domain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import AnalyticalTreeParams
from repro.costmodel.join_da import join_da_breakdown
from repro.costmodel.join_na import join_na_breakdown
from repro.costmodel.range_query import range_query_na
from repro.costmodel.selectivity import join_selectivity_pairs
from repro.estimator import EstimateRequest, estimate_batch

cardinalities = st.integers(min_value=1, max_value=200_000)
densities = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
capacities = st.sampled_from([8, 24, 41, 50, 84])
dims = st.integers(min_value=1, max_value=3)
fills = st.sampled_from([0.3, 0.5, 0.67, 0.9, 1.0])
distances = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
modes = st.sampled_from(["traversal", "paper"])


def requests():
    return st.builds(
        EstimateRequest,
        n1=cardinalities, d1=densities, n2=cardinalities, d2=densities,
        max_entries=capacities, ndim=dims, fill=fills,
        max_entries_right=st.one_of(st.none(), capacities),
        fill_right=st.one_of(st.none(), fills),
        distance=distances,
        window=st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    )


@st.composite
def shared_groups(draw):
    """Rows that share ``(D, M, ndim, fill)`` on each side and differ in
    ``N``, with heights from 1 to at least 5 in every batch: the groups
    the batch derives Eq. 5 once for."""
    m = draw(st.sampled_from([3, 4, 6, 8, 12]))
    fill = draw(st.sampled_from([0.5, 0.67, 0.9, 1.0]))
    ndim = draw(dims)
    d1, d2 = draw(densities), draw(densities)
    n1s = [1, 10 ** 6] + draw(st.lists(
        st.integers(min_value=1, max_value=10 ** 6), max_size=10))
    n2s = draw(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                        min_size=len(n1s), max_size=len(n1s)))
    return [EstimateRequest(n1=n1, d1=d1, n2=n2, d2=d2, max_entries=m,
                            ndim=ndim, fill=fill,
                            distance=draw(distances),
                            window=draw(st.one_of(st.none(), distances)))
            for n1, n2 in zip(n1s, n2s)]


def _scalar_reference(r: EstimateRequest, mode: str) -> dict:
    p1 = AnalyticalTreeParams(r.n1, r.d1, r.m_left, r.ndim, r.fill_left)
    p2 = AnalyticalTreeParams(r.n2, r.d2, r.m_right, r.ndim,
                              r.fill_right_)
    na = sum(c.total for c in join_na_breakdown(p1, p2))
    da = join_da_breakdown(p1, p2, mode)
    w = r.window_tuple()
    return {
        "height1": p1.height, "height2": p2.height,
        "na": na,
        "da": sum(c.total for c in da),
        "da_left": sum(c.cost1 for c in da),
        "da_right": sum(c.cost2 for c in da),
        "da_swapped": sum(
            c.total for c in join_da_breakdown(p2, p1, mode)),
        "selectivity": join_selectivity_pairs(p1, p2,
                                              distance=r.distance),
        "range_na": None if w is None else range_query_na(p1, w),
    }


def _assert_rows_match(result, reqs, mode):
    for i, r in enumerate(reqs):
        ref = _scalar_reference(r, mode)
        assert result.height1[i] == ref["height1"]
        assert result.height2[i] == ref["height2"]
        for fld in ("na", "da", "da_left", "da_right", "da_swapped",
                    "selectivity", "range_na"):
            got = getattr(result, fld)[i]
            assert got == ref[fld], (fld, r, got, ref[fld])


@settings(max_examples=150, deadline=None)
@given(st.lists(requests(), min_size=1, max_size=8), modes)
def test_batch_matches_scalar_reference(reqs, mode):
    _assert_rows_match(estimate_batch(reqs, mode), reqs, mode)


@settings(max_examples=60, deadline=None)
@given(shared_groups(), modes)
def test_shared_groups_match_scalar_reference(reqs, mode):
    result = estimate_batch(reqs, mode)
    assert min(result.height1) == 1 and max(result.height1) >= 5
    _assert_rows_match(result, reqs, mode)


BOUNDARY_GRID = [
    # check_model_params boundaries: N=1 (degenerate single-object
    # tree), fill=1.0 (c*M == M), cM barely above 1, zero density,
    # mixed heights in both directions, every supported ndim.
    EstimateRequest(n1=1, d1=0.0, n2=1, d2=0.0, max_entries=2, ndim=1,
                    fill=1.0),
    EstimateRequest(n1=1, d1=2.0, n2=200_000, d2=0.0, max_entries=8,
                    ndim=3, fill=0.3, window=0.0),
    EstimateRequest(n1=2, d1=1e-308, n2=3, d2=1e308, max_entries=2,
                    ndim=2, fill=0.9, distance=0.5),
    EstimateRequest(n1=9, d1=0.5, n2=10, d2=0.5, max_entries=8, ndim=2,
                    fill=0.3),                     # c*M = 2.4, height 3
    EstimateRequest(n1=200_000, d1=2.0, n2=41, d2=1.3, max_entries=84,
                    ndim=2, fill=0.67, max_entries_right=8,
                    fill_right=1.0, window=1.0, distance=0.001),
    EstimateRequest(n1=100_000, d1=0.5, n2=100, d2=0.5, max_entries=50,
                    ndim=2),                       # height 3 vs 1
    EstimateRequest(n1=100, d1=0.5, n2=100_000, d2=0.5, max_entries=50,
                    ndim=2),                       # height 1 vs 3
    # Python ints divide exactly where float64 rounds: the int fill 1
    # makes c*M an int, and N (and D) reach past 2**53.  Computed in
    # float64, the first row's NA and selectivity and the second's DA
    # come out one rounding off.  The third shares D and c*M = 3.0 as
    # a float.
    EstimateRequest(n1=953386028325919393, d1=36028797018964931,
                    n2=953386028325919394, d2=0.5, max_entries=3, ndim=2,
                    fill=1),
    EstimateRequest(n1=4027652289474533561, d1=1, n2=4027652289474533562,
                    d2=0.5, max_entries=3, ndim=2, fill=1),
    EstimateRequest(n1=2 ** 60 + 5, d1=1, n2=7, d2=0.5, max_entries=3,
                    ndim=2, fill=1.0),
]


@pytest.mark.parametrize("mode", ["traversal", "paper"])
def test_boundary_grid(mode):
    _assert_rows_match(estimate_batch(BOUNDARY_GRID, mode),
                       BOUNDARY_GRID, mode)
