"""Experiment registry: run any paper experiment by its DESIGN.md id.

``run_experiment("fig6b")`` returns (and optionally prints) the same
table the corresponding benchmark emits, without going through pytest —
the programmatic face of the reproduction, also exposed as
``python -m repro experiment <id>``.

Analytic experiments (fig6a/6b, fig7a/7b) always run at exact paper
scale.  Measured experiments (fig5a/5b, the accuracy tables) build real
trees and accept a scale profile; ``smoke`` keeps them fast.
"""

from __future__ import annotations

from typing import Callable

from ..datasets import uniform_rectangles
from ..estimator import EstimateRequest, estimate_batch
from ..exec import ExecutionGovernor
from .configs import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentScale
from .harness import TreeCache, observe_grid
from .reporting import error_summary, figure5_rows, format_table

__all__ = ["run_experiment", "experiment_ids"]

_SCALES = {"bench": BENCH_SCALE, "paper": PAPER_SCALE,
           "smoke": SMOKE_SCALE}
_SWEEP = range(20000, 80001, 10000)


def experiment_ids() -> list[str]:
    """All registered experiment identifiers."""
    return sorted(_REGISTRY)


def run_experiment(exp_id: str, scale: str | ExperimentScale = "bench",
                   governor: ExecutionGovernor | None = None) -> str:
    """Run one experiment and return its formatted table.

    A ``governor`` bounds every measured join of the experiment: the
    NA/DA budgets apply per grid point (each join runs on fresh
    counters), the deadline to the experiment as a whole (the clock
    starts at the first join and keeps running).  An exhausted budget
    raises the typed error instead of emitting a truncated table.
    Analytic experiments never read a page and ignore the governor.
    """
    try:
        runner = _REGISTRY[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; "
            f"choose from {experiment_ids()}") from None
    if isinstance(scale, str):
        try:
            scale = _SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r}; choose from "
                f"{sorted(_SCALES)}") from None
    return runner(scale, governor)


# -- analytic experiments (always paper scale) --------------------------------

def _analytic_request(n1: int, n2: int, ndim: int,
                      m: int) -> EstimateRequest:
    return EstimateRequest(
        n1=n1, d1=PAPER_SCALE.density, n2=n2, d2=PAPER_SCALE.density,
        max_entries=m, ndim=ndim, fill=PAPER_SCALE.fill)


def _fig6(ndim: int) -> str:
    m = PAPER_SCALE.max_entries(ndim)
    batch = estimate_batch(
        [_analytic_request(n, n, ndim, m) for n in _SWEEP])
    rows = [[f"{n // 1000}K", batch.height1[i],
             round(batch.na[i]), round(batch.da[i])]
            for i, n in enumerate(_SWEEP)]
    label = "6a" if ndim == 1 else "6b"
    return (f"Figure {label} (n={ndim}, M={m}, paper scale)\n"
            + format_table(["N1=N2", "h", "anal(NA)", "anal(DA)"], rows))


def _fig7(ndim: int) -> str:
    m = PAPER_SCALE.max_entries(ndim)
    combos = [(n1, n2) for n in _SWEEP
              for n1, n2 in ((n, 20000), (n, 80000),
                             (20000, n), (80000, n))]
    batch = estimate_batch(
        [_analytic_request(n1, n2, ndim, m) for n1, n2 in combos])
    rows = []
    for i, n in enumerate(_SWEEP):
        base = 4 * i
        rows.append([f"{n // 1000}K"]
                    + [round(batch.da[base + k]) for k in range(4)])
    label = "7a" if ndim == 1 else "7b"
    return (f"Figure {label} (n={ndim}, M={m}, paper scale)\n"
            + format_table(
                ["N", "NR2=20K", "NR2=80K", "NR1=20K", "NR1=80K"], rows))


# -- measured experiments (scale-dependent) -------------------------------------

def _fig5(ndim: int, scale: ExperimentScale,
          governor: ExecutionGovernor | None = None) -> str:
    m = scale.max_entries(ndim)
    cache = TreeCache()
    r1 = {n: uniform_rectangles(n, scale.density, ndim, seed=100 + n)
          for n in scale.cardinalities}
    r2 = {n: uniform_rectangles(n, scale.density, ndim, seed=150 + n)
          for n in scale.cardinalities}
    obs = observe_grid(
        [(r1[n1], r2[n2]) for n1 in scale.cardinalities
         for n2 in scale.cardinalities],
        m, fill=scale.fill, cache=cache, governor=governor)
    summary = error_summary(obs)

    def errors(*axes: str) -> str:
        return "; ".join(
            f"{axis.upper()} mean={summary[f'{axis}_mean']:.1%} "
            f"max={summary[f'{axis}_max']:.1%}" for axis in axes)

    def heights(role: str, by_n: dict[int, int]) -> str:
        return f"{role} " + " ".join(
            f"{n // 1000}K:{h}" for n, h in sorted(by_n.items()))

    label = "5a" if ndim == 1 else "5b"
    headers = ["N1/N2", "exper(NA)", "anal(NA)", "exper(DA)",
               "anal(DA)", "errNA", "errDA"]
    return (f"Figure {label} (n={ndim}, M={m}, {scale.name} scale)\n"
            + format_table(headers, figure5_rows(obs))
            + f"\n|err| {errors('na', 'da')}"
            + f"\n|err| per tree: {errors('da1', 'da2')}"
            + "\nheights "
            + heights("R1", {ob.n1: ob.height1 for ob in obs}) + "; "
            + heights("R2", {ob.n2: ob.height2 for ob in obs}))


_REGISTRY: dict[str, Callable[..., str]] = {
    "fig5a": lambda scale, governor=None: _fig5(1, scale, governor),
    "fig5b": lambda scale, governor=None: _fig5(2, scale, governor),
    "fig6a": lambda _scale, _governor=None: _fig6(1),
    "fig6b": lambda _scale, _governor=None: _fig6(2),
    "fig7a": lambda _scale, _governor=None: _fig7(1),
    "fig7b": lambda _scale, _governor=None: _fig7(2),
}
