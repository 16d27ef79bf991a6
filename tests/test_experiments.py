"""The experiment harness and reporting."""

import pytest

from repro.datasets import uniform_rectangles
from repro.experiments import (BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE,
                               ExperimentTable, TreeCache, error_summary,
                               figure5_rows, format_table, observe_grid,
                               observe_join, relative_error)
from repro.rtree import RStarTree


class TestConfigs:
    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.max_entries(1) == 84
        assert PAPER_SCALE.max_entries(2) == 50
        assert PAPER_SCALE.cardinalities == (20000, 40000, 60000, 80000)
        assert PAPER_SCALE.fill == 0.67

    def test_bench_scale_capacities(self):
        assert BENCH_SCALE.max_entries(1) == 41
        assert BENCH_SCALE.max_entries(2) == 24

    def test_densities_grid(self):
        assert BENCH_SCALE.densities == (0.2, 0.4, 0.6, 0.8)


class TestRelativeError:
    def test_signed(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(-0.1)

    def test_zero_measured(self):
        # A non-zero model against a zero measurement has no defined
        # relative error: None, never float("inf"), which would leak
        # the non-JSON literal `Infinity` into serialized reports.
        assert relative_error(0, 0) == 0.0
        assert relative_error(5, 0) is None

    def test_observations_json_stays_strict_json(self):
        import json

        from repro.experiments import (JoinObservation,
                                       observation_records,
                                       observations_json)

        # A grid point with zero measured DA and a non-zero DA model:
        # exactly the shape that used to serialize as `Infinity`.
        ob = JoinObservation(
            label="edge", n1=10, n2=10, height1=1, height2=1,
            model_height1=1, model_height2=1,
            na_measured=4, na_model=5.0,
            da_measured=0, da_model=2.0,
            da1_measured=0, da1_model=1.0,
            da2_measured=0, da2_model=1.0, pairs=3,
            pairs_model=3.0)
        text = observations_json([ob])
        assert "Infinity" not in text
        [record] = json.loads(text)
        assert record["da_error"] is None
        assert record["na_error"] == pytest.approx(0.25)
        assert observation_records([ob])[0]["da1_error"] is None

    def test_none_errors_render_and_aggregate(self):
        from repro.experiments import format_error

        assert format_error(None) == "n/a"
        assert format_error(0.25) == "+25.0%"


class TestTreeCache:
    def test_builds_once_per_dataset(self):
        ds = uniform_rectangles(300, 0.5, 2, seed=1)
        cache = TreeCache()
        t1 = cache.get(ds, 16)
        t2 = cache.get(ds, 16)
        assert t1 is t2
        assert len(cache) == 1

    def test_distinguishes_parameters(self):
        ds = uniform_rectangles(300, 0.5, 2, seed=2)
        cache = TreeCache()
        assert cache.get(ds, 16) is not cache.get(ds, 8)
        assert cache.get(ds, 16) is not cache.get(ds, 16, "str")
        assert len(cache) == 3

    def test_variants(self):
        ds = uniform_rectangles(120, 0.5, 2, seed=3)
        cache = TreeCache()
        for variant in ("rstar", "guttman-linear", "guttman-quadratic",
                        "str", "hilbert"):
            tree = cache.get(ds, 8, variant)
            assert isinstance(tree, RStarTree) or len(tree) == 120

    def test_unknown_variant(self):
        ds = uniform_rectangles(10, 0.1, 2, seed=4)
        with pytest.raises(ValueError):
            TreeCache().get(ds, 8, "btree")


class TestObserveJoin:
    def test_fields_consistent(self):
        d1 = uniform_rectangles(600, 0.5, 2, seed=5)
        d2 = uniform_rectangles(900, 0.5, 2, seed=6)
        ob = observe_join(d1, d2, 16)
        assert ob.n1 == 600 and ob.n2 == 900
        assert ob.da_measured <= ob.na_measured
        assert ob.da1_measured + ob.da2_measured == ob.da_measured
        assert ob.na_model > 0 and ob.da_model > 0
        assert ob.pairs > 0

    def test_is_observe_grid_of_one_pair(self):
        # One constructor: a uniform-model observation is the grid of
        # one pair, field for field.
        d1 = uniform_rectangles(600, 0.5, 2, seed=5)
        d2 = uniform_rectangles(900, 0.5, 2, seed=6)
        cache = TreeCache()
        assert (observe_grid([(d1, d2)], 16, cache=cache)
                == [observe_join(d1, d2, 16, cache=cache)])

    def test_errors_derived(self):
        d1 = uniform_rectangles(500, 0.5, 2, seed=7)
        ob = observe_join(d1, d1, 16)
        assert ob.na_error == pytest.approx(
            (ob.na_model - ob.na_measured) / ob.na_measured)

    def test_nonuniform_variant(self):
        d1 = uniform_rectangles(500, 0.5, 2, seed=8)
        ob = observe_join(d1, d1, 16, nonuniform_resolution=3)
        assert ob.na_model > 0
        assert ob.da1_model + ob.da2_model == pytest.approx(ob.da_model)

    def test_label_default(self):
        d1 = uniform_rectangles(200, 0.4, 2, seed=9)
        ob = observe_join(d1, d1, 16)
        assert d1.name in ob.label


class TestReporting:
    def _obs(self):
        cache = TreeCache()
        out = []
        for seed in (10, 11):
            d1 = uniform_rectangles(400, 0.5, 2, seed=seed)
            d2 = uniform_rectangles(500, 0.5, 2, seed=seed + 5)
            out.append(observe_join(d1, d2, 16, cache=cache))
        return out

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # equal widths
        assert "a" in lines[0] and "---" in lines[1]

    def test_figure5_rows(self):
        rows = figure5_rows(self._obs())
        assert len(rows) == 2
        assert rows[0][0] == "0K/0K"
        assert all(len(r) == 7 for r in rows)

    def test_experiment_table_text(self):
        obs = self._obs()
        table = ExperimentTable("test", ["N1/N2", "exper(NA)"],
                                [row[:2] for row in figure5_rows(obs)],
                                obs, ["a note"])
        title, header, _rule, *rows, note = str(table).splitlines()
        assert (title, note) == ("test", "a note")
        assert "exper(NA)" in header and len(rows) == len(obs)

    def test_error_summary(self):
        summary = error_summary(self._obs())
        for key in ("na_mean", "na_max", "da_mean", "da_max",
                    "da1_mean", "da2_mean"):
            assert key in summary
            assert summary[key] >= 0

    def test_error_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            error_summary([])

    def test_error_summary_counts_defined_observations(self):
        summary = error_summary(self._obs())
        assert summary["count"] == 2
        for axis in ("na", "da", "da1", "da2"):
            assert 0 <= summary[f"{axis}_defined"] <= summary["count"]

    def test_error_summary_all_none_column(self):
        # An axis where every error is undefined (zero measured against
        # a non-zero model) must aggregate to zero WITHOUT looking like
        # a perfectly calibrated axis: defined=0 is the tell.
        from repro.experiments import JoinObservation
        obs = [JoinObservation(
            label=f"p{i}", n1=10, n2=10, height1=1, height2=1,
            model_height1=1, model_height2=1,
            na_measured=4, na_model=5.0,
            da_measured=0, da_model=2.0,     # da_error is None
            da1_measured=0, da1_model=1.0,   # da1_error is None
            da2_measured=0, da2_model=1.0,   # da2_error is None
            pairs=1, pairs_model=1.0) for i in range(3)]
        summary = error_summary(obs)
        assert summary["count"] == 3
        assert summary["na_defined"] == 3
        for axis in ("da", "da1", "da2"):
            assert summary[f"{axis}_defined"] == 0
            assert summary[f"{axis}_mean"] == 0.0
            assert summary[f"{axis}_max"] == 0.0

    def test_mixed_none_does_not_bias_mean(self):
        # One defined error of 0.5 plus two undefined ones: the mean is
        # 0.5 (denominator 1), not 0.5/3.
        from repro.experiments import JoinObservation

        def ob(label, da_measured, da_model):
            return JoinObservation(
                label=label, n1=10, n2=10, height1=1, height2=1,
                model_height1=1, model_height2=1,
                na_measured=4, na_model=4.0,
                da_measured=da_measured, da_model=da_model,
                da1_measured=1, da1_model=1.0,
                da2_measured=1, da2_model=1.0, pairs=1,
                pairs_model=1.0)

        obs = [ob("defined", 2, 3.0),        # error +0.5
               ob("undef-1", 0, 2.0),        # None
               ob("undef-2", 0, 1.0)]        # None
        summary = error_summary(obs)
        assert summary["da_defined"] == 1
        assert summary["da_mean"] == pytest.approx(0.5)
        assert summary["da_max"] == pytest.approx(0.5)
