"""Batch estimation: grids through `estimate_batch`."""

import json

import pytest

from repro.costmodel import AnalyticalTreeParams
from repro.costmodel.join_da import join_da_breakdown
from repro.costmodel.join_na import join_na_breakdown
from repro.costmodel.range_query import range_query_na
from repro.costmodel.selectivity import join_selectivity_pairs
from repro.estimator import (EstimateRequest, ParamCache, estimate_batch,
                             range_na_batch)
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
])
def test_validation_names_the_row(record, match):
    good = {"n1": 10, "d1": 0.5, "n2": 10, "d2": 0.5}
    with pytest.raises(ModelDomainError, match=match) as exc:
        estimate_batch([good, record])
    assert "request 1" in str(exc.value)


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


def test_param_cache_dedup():
    cache = ParamCache(maxsize=2)
    a = cache.get(1000, 0.5, 50, 2)
    assert cache.get(1000, 0.5, 50, 2) is a
    assert (cache.hits, cache.misses) == (1, 1)
    cache.get(2000, 0.5, 50, 2)
    cache.get(3000, 0.5, 50, 2)          # evicts the LRU entry
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0
