"""Batch estimation: grids through `estimate_batch`."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import AnalyticalTreeParams, rtree_height
from repro.costmodel.join_da import join_da_breakdown
from repro.costmodel.join_na import join_na_breakdown
from repro.costmodel.range_query import range_query_na
from repro.costmodel.selectivity import join_selectivity_pairs
from repro.estimator import EstimateRequest, estimate_batch, range_na_batch
from repro.estimator.batch import _check_rows, _Columns
from repro.reliability import ModelDomainError


def _grid() -> list[EstimateRequest]:
    reqs = []
    for i, (n1, n2) in enumerate([(1, 1), (40, 70_000), (20_000, 20_000),
                                  (80_000, 5_000), (123_456, 7)]):
        reqs.append(EstimateRequest(
            n1=n1, d1=0.1 * (i + 1), n2=n2, d2=1.3 - 0.2 * i,
            max_entries=21 + i, ndim=1 + i % 3,
            fill=(0.5, 0.67, 1.0)[i % 3],
            max_entries_right=None if i % 2 else 64,
            distance=0.02 * i,
            window=None if i % 2 else (0.1,) * (1 + i % 3)))
    return reqs


def test_batch_matches_scalar_reference():
    reqs = _grid()
    res = estimate_batch(reqs, mixed_height_mode="paper")
    assert res.mixed_height_mode == "paper"
    assert len(res) == len(reqs)
    for i, r in enumerate(reqs):
        p1 = AnalyticalTreeParams(r.n1, r.d1, r.m_left, r.ndim,
                                  r.fill_left)
        p2 = AnalyticalTreeParams(r.n2, r.d2, r.m_right, r.ndim,
                                  r.fill_right_)
        assert res.height1[i] == p1.height
        assert res.height2[i] == p2.height
        assert res.na[i] == sum(
            c.total for c in join_na_breakdown(p1, p2))
        da = join_da_breakdown(p1, p2, "paper")
        assert res.da[i] == sum(c.total for c in da)
        assert res.da_left[i] == sum(c.cost1 for c in da)
        assert res.da_right[i] == sum(c.cost2 for c in da)
        assert res.da_swapped[i] == sum(
            c.total for c in join_da_breakdown(p2, p1, "paper"))
        assert res.selectivity[i] == join_selectivity_pairs(
            p1, p2, distance=r.distance)
        w = r.window_tuple()
        if w is None:
            assert res.range_na[i] is None
        else:
            assert res.range_na[i] == range_query_na(p1, w)


def test_batch_builds_no_parameter_objects(monkeypatch):
    """The batch derives its tables by column, not through the scalar
    parameter objects."""
    def refuse(*args, **kwargs):
        raise AssertionError("the batch path built a parameter object")
    expected = estimate_batch(_grid())
    monkeypatch.setattr(AnalyticalTreeParams, "__init__", refuse)
    res = estimate_batch(_grid())
    assert (res.na, res.da, res.selectivity, res.range_na) == (
        expected.na, expected.da, expected.selectivity, expected.range_na)


def test_accepts_dict_requests():
    res = estimate_batch([
        {"n1": 1000, "d1": 0.5, "n2": 2000, "d2": 0.4},
        {"n1": 500, "d1": 0.2, "n2": 500, "d2": 0.2,
         "window": [0.1, 0.1], "label": "windowed"},
    ])
    assert len(res) == 2
    assert res.requests[1].label == "windowed"
    assert res.range_na[0] is None and res.range_na[1] is not None


def test_records_are_json_safe():
    res = estimate_batch(_grid())
    records = res.as_records()
    text = json.dumps(records)
    parsed = json.loads(text)
    assert len(parsed) == len(res)
    assert parsed[0]["na"] == res.na[0]
    assert "range_na" in parsed[0] and "range_na" not in parsed[1]


def test_empty_batch():
    res = estimate_batch([], mixed_height_mode="paper")
    assert len(res) == 0
    assert res.mixed_height_mode == "paper"
    assert res.as_records() == []
    assert (res.na, res.da, res.selectivity, res.range_na) == ([],) * 4
    assert range_na_batch([], []) == []


@pytest.mark.parametrize("record, match", [
    ({"n1": 0, "d1": 0.5, "n2": 10, "d2": 0.5}, "N >= 1"),
    ({"n1": 10, "d1": -1.0, "n2": 10, "d2": 0.5}, "d1"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "ndim": 0}, "ndim"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "max_entries": 1},
     "max_entries"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "fill": 0.0}, "fill"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "fill": 0.01},
     "c\\*M"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "distance": -1.0},
     "distance"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "window": [0.1]},
     "window"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5,
      "distance": float("nan")}, "distance must be finite"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5,
      "distance": float("inf")}, "distance must be finite"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "ndim": 2.5},
     "ndim must be an integer"),
    ({"n1": True, "d1": 0.5, "n2": 10, "d2": 0.5}, "n1 must be an integer"),
    # A non-integer fan-out would otherwise leak as a bare ValueError
    # (nan, from Eq. 2's ceil) or price a join silently (2.5, inf).
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5,
      "max_entries": float("nan")}, "max_entries must be an integer"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "max_entries": 2.5},
     "max_entries must be an integer"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5,
      "max_entries": float("inf")}, "max_entries must be an integer"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5, "max_entries": True},
     "max_entries must be an integer"),
    ({"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5,
      "max_entries_right": 12.0}, "max_entries_right must be an integer"),
])
def test_validation_names_the_row(record, match):
    good = {"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5}
    with pytest.raises(ModelDomainError, match=match) as exc:
        estimate_batch([good, record])
    assert "request 1" in str(exc.value)


def test_numpy_integer_fan_out_is_an_integer():
    rows = [EstimateRequest(10_000, 0.5, 8_000, 0.5, max_entries=m,
                            max_entries_right=m)
            for m in (np.int64(24), 24)]
    got = estimate_batch(rows)
    assert got.na[0] == got.na[1] and got.da[0] == got.da[1]


@pytest.mark.parametrize("m", [float("nan"), 2.5, float("inf"), True])
def test_scalar_model_refuses_a_non_integer_fan_out(m):
    with pytest.raises(ModelDomainError, match="max_entries must be an "
                                               "integer"):
        AnalyticalTreeParams(1000, 0.5, m, 2)
    with pytest.raises(ModelDomainError, match="max_entries"):
        rtree_height(1000, m)


def test_column_checks_fall_back_to_the_rows():
    # The least c and the least M come from different rows, so their
    # product is below 1 although every row's own c*M is above it.
    rows = [EstimateRequest(10, 0.5, 10, 0.5, max_entries=2, fill=0.9),
            EstimateRequest(10, 0.5, 10, 0.5, max_entries=50, fill=0.3)]
    assert len(estimate_batch(rows)) == 2
    bad = EstimateRequest(10, 0.5, 10, 0.5, max_entries=3, fill=0.3)
    with pytest.raises(ModelDomainError, match="request 2: average"):
        estimate_batch(rows + [bad])
    # 1 == True: a bool among equal ints is still named.
    with pytest.raises(ModelDomainError, match="request 1: n2 must be"):
        estimate_batch([EstimateRequest(1, 0.5, 1, 0.5),
                        EstimateRequest(1, 0.5, True, 0.5)])


NAN, INF = float("nan"), float("inf")
#: Values each field's row rules reject (or that are of a type they
#: only accept by way of ``isinstance``, like ``True`` for ``fill``).
BAD = {
    "n1": [0, -1, True, 1.5, NAN], "n2": [0, -7, False, 2.0],
    "d1": [-0.5, NAN, INF, -INF, True], "d2": [-1, NAN, INF],
    "ndim": [0, -1, 2.5, 2.0, True],
    "max_entries": [1, 0, -3, 1.5, 2.5, 50.0, NAN, INF, True],
    "max_entries_right": [1, 0, 1.5, 2.5, NAN, INF],
    "fill": [0.01, 0.02, 0.0, -0.1, 1.5, 2, 1.0000001, NAN, INF, True],
    "fill_right": [0.01, 0.02, 0.0, 1.01, 3.0, NAN, 1],
    "distance": [-0.1, NAN, INF, True],
    "window": [NAN, INF, -0.2, (0.1, NAN), (-0.1, 0.2), (), (0.1,) * 4,
               (0.2,) * 5],
}


@st.composite
def mixed_batches(draw):
    """In-domain requests, then up to two fields of any rows replaced by
    out-of-domain values; also returns how many were replaced."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        ndim = draw(st.integers(1, 3))
        rows.append(dict(
            n1=draw(st.integers(1, 10 ** 7)), d1=draw(st.floats(0, 5)),
            n2=draw(st.sampled_from([1, 60_000, 2 ** 60])),
            d2=draw(st.sampled_from([0, 0.5, 3])),
            ndim=ndim, max_entries=draw(st.integers(4, 60)),
            fill=draw(st.sampled_from([0.3, 0.67, 1.0, 1])),
            max_entries_right=draw(st.sampled_from([None, 4, 50])),
            fill_right=draw(st.sampled_from([None, 0.67, 1.0])),
            distance=draw(st.sampled_from([0.0, 0, 0.25])),
            window=draw(st.sampled_from([None, 0.1, (0.2,) * ndim]))))
    bad = draw(st.integers(0, 2))
    for _ in range(bad):
        name = draw(st.sampled_from(sorted(BAD)))
        draw(st.sampled_from(rows))[name] = draw(st.sampled_from(BAD[name]))
    return [EstimateRequest(**row) for row in rows], bad


@settings(max_examples=600, deadline=None)
@given(mixed_batches())
def test_column_checks_admit_only_what_the_rows_admit(batch):
    """The column checks that let a batch skip the row walk accept no
    batch the row walk rejects, whatever column holds the bad value, and
    accept every batch of plain in-domain values."""
    reqs, bad = batch
    if _Columns(reqs).valid(reqs):
        _check_rows(reqs)
    else:
        assert bad


def test_bad_mode_and_bad_fields():
    good = {"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5}
    with pytest.raises(ValueError, match="mixed_height_mode"):
        estimate_batch([good], mixed_height_mode="bogus")
    with pytest.raises(ValueError, match="unknown request field"):
        estimate_batch([{**good, "cardinality": 9}])
    with pytest.raises(ValueError, match="missing required field"):
        estimate_batch([{"n1": 10, "d1": 0.5}])


def test_range_na_batch():
    trees = [AnalyticalTreeParams(10_000, 0.5, 50, 2),
             AnalyticalTreeParams(60_000, 0.2, 24, 2),
             (3000, 0.7, 16, 2, 0.67)]
    windows = [(0.1, 0.1), (0.05, 0.2), (0.3, 0.3)]
    got = range_na_batch(trees, windows)
    assert got[0] == range_query_na(trees[0], windows[0])
    assert got[1] == range_query_na(trees[1], windows[1])
    assert got[2] == range_query_na(
        AnalyticalTreeParams(3000, 0.7, 16, 2, 0.67), windows[2])
    with pytest.raises(ValueError, match="equal length"):
        range_na_batch(trees, windows[:2])
