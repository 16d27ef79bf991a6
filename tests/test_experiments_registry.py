"""The experiment registry."""

import re
from pathlib import Path

import pytest

from repro.exec import Budget, BudgetExceeded, ExecutionGovernor
from repro.experiments import (SMOKE_SCALE, TreeCache, experiment_ids,
                               experiment_table, registry, run_experiment)

ANALYTIC = {"fig6a", "fig6b", "fig7a", "fig7b"}
NO_JOIN = ANALYTIC | {"ts96"}       # ts96 measures range queries

_N = len(SMOKE_SCALE.cardinalities)
#: Rows of each table at smoke scale: the size of the grid it sweeps.
GRID_ROWS = {
    "fig5a": _N * _N, "fig5b": _N * _N,
    "fig6a": 7, "fig6b": 7, "fig7a": 7, "fig7b": 7,
    "sec41": 2 * len(SMOKE_SCALE.densities),
    "sec42": 4,
    "ts96": 2 * len(registry.WINDOW_SIDES),
    "levels": 4,                    # two height-3 trees, root not charged
    "a1": 2 + len(registry.LRU_POOLS),
    "a2": len(registry.TREE_VARIANTS),
    "a4": 3,
    "e1": _N * (_N + 1) // 2,
    "e2": len(registry.DISTANCES),
    "e3": 2 * len(registry.WORKERS),
    "e4": 3,
}


@pytest.fixture(scope="module")
def trees():
    """One tree cache for every smoke-scale run of this module."""
    return TreeCache()


class TestRegistry:
    def test_ids_cover_all_figures(self):
        ids = experiment_ids()
        for fig in ("fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
                    "fig7b"):
            assert fig in ids

    @pytest.mark.parametrize("exp_id", ["fig6a", "fig6b", "fig7a",
                                        "fig7b"])
    def test_analytic_experiments_run(self, exp_id):
        table = run_experiment(exp_id)
        assert "20K" in table and "80K" in table
        assert "paper scale" in table

    def test_measured_experiment_at_smoke_scale(self):
        table = run_experiment("fig5a", scale="smoke")
        assert "exper(NA)" in table
        assert "smoke scale" in table

    def test_scale_object_accepted(self):
        table = run_experiment("fig5a", scale=SMOKE_SCALE)
        assert "exper(NA)" in table

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_experiment("fig5a", scale="galactic")

    def test_fig6b_matches_golden_values(self):
        table = run_experiment("fig6b")
        # Values pinned against the golden-regression suite.
        assert "4445" in table and "17789" in table

    def test_cli_experiment_command(self, capsys):
        from repro.cli import main
        assert main(["experiment", "fig7a"]) == 0
        out = capsys.readouterr().out
        assert "NR2=20K" in out


class TestEveryExperiment:
    def test_every_id_has_a_grid(self):
        assert sorted(GRID_ROWS) == experiment_ids()

    @pytest.mark.parametrize("exp_id", sorted(GRID_ROWS))
    def test_runs_at_smoke_scale(self, exp_id, trees):
        table = experiment_table(exp_id, "smoke", cache=trees)
        scale = "paper" if exp_id in ANALYTIC else "smoke"
        assert f"{scale} scale" in table.title
        assert len(table.rows) == GRID_ROWS[exp_id]
        assert len(table.records) >= len(table.rows)
        for row in table.rows:
            assert len(row) == len(table.headers)
            for cell in row:
                assert not re.search(r"nan|inf", str(cell), re.I), row

    @pytest.mark.parametrize("exp_id", sorted(GRID_ROWS))
    def test_governor_bounds_every_join(self, exp_id, trees):
        governor = ExecutionGovernor(Budget(max_na=1))
        if exp_id in NO_JOIN:
            assert (experiment_table(exp_id, "smoke", governor, trees)
                    == experiment_table(exp_id, "smoke", cache=trees))
        else:
            with pytest.raises(BudgetExceeded):
                experiment_table(exp_id, "smoke", governor, trees)

    def test_design_index_names_only_registry_ids(self):
        # The registry's promise — every table of DESIGN.md §3 is one of
        # its ids — held against the document itself.
        design = Path(__file__).resolve().parent.parent / "DESIGN.md"
        section = design.read_text(encoding="utf-8").split("## 3.")[1]
        section = section.split("\n## ")[0]
        targets = [line.split("|")[-2].strip()
                   for line in section.splitlines()
                   if line.startswith("|") and "---" not in line][1:]
        assert len(targets) >= 17
        named = set()
        for target in targets:
            ids = re.findall(r"`python -m repro experiment (\w+)`", target)
            if not ids:
                assert (target == "`python3 -m bench` (`bench/README.md`)"
                        or target.startswith("covered by unit tests")
                        ), target
            named.update(ids)
        assert named == set(experiment_ids())
