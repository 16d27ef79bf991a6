"""The estimators, on hand-made samples."""

import json

import pytest

from bench.compare import verdict
from bench.stats import (Sample, disagreement, normalised, normalised_median,
                         spread, tail)


def test_normalised_scales_by_the_mean_of_the_two_readings():
    # A host running at half speed: the kernel takes twice its nominal
    # time, so the operation is reported at half its measured time.
    assert normalised(Sample(4.0, 0.2, 0.2), nominal=0.1) == pytest.approx(2.0)
    assert normalised(Sample(3.0, 0.1, 0.2), nominal=0.1) == pytest.approx(2.0)


def test_normalised_median_removes_a_drift_the_raw_median_keeps():
    # The same operation on a host that slows down by 50 % half-way.
    samples = [Sample(1.0, 0.1, 0.1)] * 3 + [Sample(1.5, 0.15, 0.15)] * 4
    assert normalised_median(samples, nominal=0.1) == pytest.approx(1.0)
    assert sorted(s.seconds for s in samples)[3] == 1.5


def test_normalised_median_ignores_one_disturbed_sample():
    samples = [Sample(1.0, 0.1, 0.1)] * 4 + [Sample(9.0, 0.1, 0.1)]
    assert normalised_median(samples, nominal=0.1) == pytest.approx(1.0)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail(list(range(10))) is None
    assert tail([]) is None
    # 11 samples: only the smallest has ten beyond it.
    pct, value = tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    # 100 samples 1..100 in any order: p90 is 90, ten samples lie above.
    values = list(range(100, 0, -1))
    assert tail(values) == (90.0, 90)
    assert sum(v > 90 for v in values) == 10
    # 200 samples support p95.
    assert tail(list(range(1, 201))) == (95.0, 190)


def test_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert spread(values) == pytest.approx((6.0 - 2.0) / 4.0)
    assert spread([5.0] * 10) == 0.0


def test_disagreement_follows_the_better_direction():
    assert disagreement(100.0, 110.0) == pytest.approx(0.10)
    assert disagreement(100.0, 90.0) == pytest.approx(-0.10)
    assert disagreement(100.0, 90.0, better="higher") == pytest.approx(0.10)


def test_verdicts():
    steady = [100.0, 100.5, 101.0, 99.5, 100.2]
    assert verdict(steady, [v * 1.01 for v in steady], "lower", 0.1) == "within"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == "improved"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert verdict(noisy, [v * 1.3 for v in noisy], "lower", 0.1) == "unresolved"
    # Too noisy to bound, but every run of B beats every run of A.
    assert verdict(noisy, [v * 0.1 for v in noisy], "lower", 0.1) == "improved"
    # A single run a side says nothing about the spread.
    assert verdict([1.0], [1.0], "lower", 0.1) == "unresolved"


def test_compare_refuses_recordings_made_differently(tmp_path, capsys):
    from bench.compare import main
    document = {"seed": 1, "runs": 3, "seconds": 16, "results": []}
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(document))
    b.write_text(json.dumps(dict(document, seconds=8)))
    assert main([str(a), str(b)]) == 2
    assert "seconds is 16" in capsys.readouterr().err
