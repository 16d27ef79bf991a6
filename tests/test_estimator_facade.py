"""The `Estimator` facade: one entry point, same numbers as the free
functions it consolidated."""

import pytest

from repro.costmodel import (AnalyticalTreeParams, MeasuredTreeParams,
                             join_da_by_tree, join_da_total,
                             join_na_total, join_selectivity_fraction,
                             join_selectivity_pairs, range_query_na)
from repro.datasets import uniform_rectangles
from repro.estimator import EstimateRequest, Estimator, estimate_batch
from repro.reliability import ModelDomainError
from .conftest import build_rstar, make_items


@pytest.fixture(scope="module")
def pair():
    p1 = AnalyticalTreeParams(40_000, 0.5, 50, 2)
    p2 = AnalyticalTreeParams(20_000, 0.3, 50, 2)
    return p1, p2


def test_facade_matches_free_functions(pair):
    p1, p2 = pair
    est = Estimator(p1, p2)
    assert est.na() == join_na_total(p1, p2)
    assert est.da() == join_da_total(p1, p2)
    assert est.da_by_tree() == join_da_by_tree(p1, p2)
    assert est.selectivity() == join_selectivity_pairs(p1, p2)
    assert est.selectivity(0.05) == join_selectivity_pairs(
        p1, p2, distance=0.05)
    assert est.selectivity_fraction() == join_selectivity_fraction(p1, p2)
    assert est.range_na((0.1, 0.1)) == range_query_na(p1, (0.1, 0.1))


def test_facade_paper_mode(pair):
    p1, p2 = pair
    est = Estimator(p1, p2, mixed_height_mode="paper")
    assert est.da() == join_da_total(p1, p2, mixed_height_mode="paper")


def test_breakdown_totals_match(pair):
    p1, p2 = pair
    est = Estimator(p1, p2)
    bd = est.breakdown()
    assert bd.na_total == est.na()
    assert bd.da_total == est.da()
    assert bd.da_by_tree == est.da_by_tree()
    assert len(bd.na_stages) == len(bd.da_stages) > 0


def test_estimate_bundles_everything(pair):
    p1, p2 = pair
    est = Estimator(p1, p2)
    e = est.estimate(distance=0.01)
    assert e.na == est.na()
    assert e.da == est.da()
    assert e.da_swapped == est.swapped().da()
    assert e.selectivity == est.selectivity(0.01)
    assert (e.height_left, e.height_right) == (p1.height, p2.height)
    assert set(e.as_dict()) == {"na", "da", "da_swapped", "selectivity",
                                "height_left", "height_right"}


def test_swapped_swaps_roles(pair):
    p1, p2 = pair
    est = Estimator(p1, p2)
    sw = est.swapped()
    assert sw.left is p2 and sw.right is p1
    assert sw.da() == join_da_total(p2, p1)
    # NA is role-symmetric (Eq. 7), DA is not.
    assert sw.na() == pytest.approx(est.na(), rel=1e-12)
    assert sw.da() != est.da()


@pytest.mark.parametrize("fills", [(1, 1.0), (1.0, 1)],
                         ids=["int-first", "float-first"])
def test_from_stats_answers_each_fill_type(fills):
    """Eq. 3 divides an int fill exactly where a float one rounds, so
    from N = 2**53 + 1 on an int and a float fill of equal value give
    different trees; neither may be answered with the other's, in
    whichever order they are asked for."""
    n = 2 ** 53 + 1
    for fill in fills:
        est = Estimator.from_stats(n, 0.5, n, 0.5, 24, 1, fill=fill)
        fresh = Estimator(AnalyticalTreeParams(n, 0.5, 24, 1, fill),
                          AnalyticalTreeParams(n, 0.5, 24, 1, fill))
        row = estimate_batch([EstimateRequest(
            n1=n, d1=0.5, n2=n, d2=0.5, max_entries=24, ndim=1,
            fill=fill)])
        assert (est.na(), est.da()) == (fresh.na(), fresh.da()) \
            == (row.na[0], row.da[0])
    assert Estimator.from_stats(n, 0.5, n, 0.5, 24, 1, fill=1).na() \
        != Estimator.from_stats(n, 0.5, n, 0.5, 24, 1, fill=1.0).na()


def test_from_datasets():
    ds1 = uniform_rectangles(500, 0.4, 2, seed=11)
    ds2 = uniform_rectangles(700, 0.6, 2, seed=12)
    est = Estimator.from_datasets(ds1, ds2, 24)
    ref = Estimator(AnalyticalTreeParams.from_dataset(ds1, 24),
                    AnalyticalTreeParams.from_dataset(ds2, 24))
    assert est.na() == ref.na()
    assert est.da() == ref.da()


def test_from_trees_no_page_reads():
    t1 = build_rstar(make_items(300, seed=1), max_entries=8)
    t2 = build_rstar(make_items(400, seed=2), max_entries=8)
    est = Estimator.from_trees(t1, t2)
    assert est.left.n_objects == 300
    assert est.right.n_objects == 400
    assert est.na() > 0.0


def test_measured_params_accepted(pair):
    tree = build_rstar(make_items(300, seed=3), max_entries=8)
    mp = MeasuredTreeParams(tree)
    est = Estimator(mp, pair[0])
    assert est.na() == join_na_total(mp, pair[0])


def test_range_only_estimator(pair):
    est = Estimator(pair[0])
    assert est.range_na((0.2, 0.2)) == range_query_na(pair[0], (0.2, 0.2))
    with pytest.raises(ValueError, match="without a right side"):
        est.na()


def test_constructor_validation(pair):
    p1, p2 = pair
    with pytest.raises(ValueError, match="mixed_height_mode"):
        Estimator(p1, p2, mixed_height_mode="bogus")
    p3 = AnalyticalTreeParams(1000, 0.5, 50, 3)
    with pytest.raises(ValueError, match="dimensionality"):
        Estimator(p1, p3)
    with pytest.raises(ValueError, match="window has"):
        Estimator(p1).range_na((0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="distance"):
        Estimator(p1, p2).selectivity(-0.1)


def test_domain_errors_still_raised():
    empty = AnalyticalTreeParams(0, 0.0, 50, 2)
    other = AnalyticalTreeParams(1000, 0.5, 50, 2)
    with pytest.raises(ModelDomainError):
        Estimator(empty, other).na()
