"""Property tests: the batch engine agrees with the scalar reference
formulas to 1e-12 absolute, over the full domain."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import AnalyticalTreeParams
from repro.costmodel.join_da import join_da_breakdown
from repro.costmodel.join_na import join_na_breakdown
from repro.costmodel.range_query import range_query_na
from repro.costmodel.selectivity import join_selectivity_pairs
from repro.estimator import EstimateRequest, estimate_batch

TOL = 1e-12

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
                    "selectivity"):
            got = getattr(result, fld)[i]
            assert abs(got - ref[fld]) <= TOL, (fld, r, got, ref[fld])
        if ref["range_na"] is None:
            assert result.range_na[i] is None
        else:
            assert abs(result.range_na[i] - ref["range_na"]) <= TOL


@settings(max_examples=150, deadline=None)
@given(st.lists(requests(), min_size=1, max_size=8), modes)
def test_batch_matches_scalar_reference(reqs, mode):
    _assert_rows_match(estimate_batch(reqs, mode), reqs, mode)


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
]


@pytest.mark.parametrize("mode", ["traversal", "paper"])
def test_boundary_grid(mode):
    _assert_rows_match(estimate_batch(BOUNDARY_GRID, mode),
                       BOUNDARY_GRID, mode)
