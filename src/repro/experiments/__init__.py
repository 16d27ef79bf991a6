"""Experiment harness: parameter grids, measurement pipeline, reporting."""

from .configs import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentScale
from .levels import LevelComparison, level_comparison
from .harness import (JoinObservation, TreeCache, build_tree, observe_grid,
                      observe_join, relative_error)
from .registry import experiment_ids, experiment_table, run_experiment
from .reporting import (ExperimentTable, error_summary, figure5_rows,
                        format_error, format_table, observation_records,
                        observations_json)

__all__ = [
    "BENCH_SCALE",
    "ExperimentScale",
    "ExperimentTable",
    "JoinObservation",
    "LevelComparison",
    "PAPER_SCALE",
    "SMOKE_SCALE",
    "TreeCache",
    "build_tree",
    "error_summary",
    "experiment_ids",
    "experiment_table",
    "figure5_rows",
    "format_error",
    "format_table",
    "level_comparison",
    "observation_records",
    "observations_json",
    "observe_grid",
    "observe_join",
    "relative_error",
    "run_experiment",
]
