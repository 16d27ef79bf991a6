"""Experiment registry: every table of DESIGN.md §3, by id, at any scale.

``run_experiment("fig6b")`` returns the text of one reproduced table,
``experiment_table("fig6b")`` the same table together with the typed
records behind its rows; ``python -m repro experiment <id>`` prints the
former.  This module is the only place an experiment is defined:
``benchmarks/test_reproduction.py`` asserts the paper's claims over the
records returned here, EXPERIMENTS.md quotes the text.

Analytic experiments (fig6a/6b, fig7a/7b) need no tree and always run at
exact paper scale.  Measured experiments build real trees and take every
size from the scale profile: cardinalities, densities and the node
capacity ``M``.  What stays fixed across scales — LRU pool sizes, window
sides, distance bounds, worker counts, grid resolutions, the skewed
generators' shape parameters — are the module constants below: they are
part of the claim being checked, not of the problem size.

All data sets come from one seed table (:func:`_grid_set` and
``_SEEDS``), so "the 4K R1 set, n = 2" is one data set in every
experiment that names it, and with a shared :class:`TreeCache` one tree.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from ..costmodel import (AnalyticalTreeParams, FractalTreeParams,
                         correlation_dimension, intsect, join_na_total,
                         join_selectivity_pairs, range_query_na,
                         traversal_stages, within_distance)
from ..datasets import (SpatialDataset, clustered_rectangles,
                        diagonal_rectangles, tiger_like_segments,
                        uniform_rectangles, zipf_rectangles)
from ..estimator import EstimateRequest, estimate_batch
from ..exec import ExecutionConfig, ExecutionGovernor
from ..geometry import Rect
from ..join import WithinDistance, parallel_spatial_join, spatial_join
from ..rtree import RTreeBase, total_overlap
from ..storage import (AccessStats, LRUBuffer, MeteredReader, NoBuffer,
                       PathBuffer)
from .configs import BENCH_SCALE, PAPER_SCALE, SMOKE_SCALE, ExperimentScale
from .harness import (JoinObservation, TreeCache, observe_grid,
                      observe_join, relative_error)
from .levels import level_comparison
from .reporting import (ExperimentTable, error_summary, figure5_rows,
                        format_error)

__all__ = ["run_experiment", "experiment_table", "experiment_ids",
           "ModelPoint", "RangeReading", "BufferReading",
           "VariantReading", "PlatformReading", "DistanceReading",
           "ParallelReading"]

_SCALES = {"bench": BENCH_SCALE, "paper": PAPER_SCALE,
           "smoke": SMOKE_SCALE}
_SWEEP = range(20000, 80001, 10000)

# -- claims, not sizes: the same at every scale -------------------------------

LRU_POOLS = (8, 32, 128, 512)               #: A1: pages per LRU pool
WINDOW_SIDES = (0.02, 0.05, 0.1, 0.2, 0.4)  #: TS96: query window sides
PROBES = 36                                 #: TS96: windows per side
DISTANCES = (0.0, 0.01, 0.02, 0.05)         #: E2: distance bounds
WORKERS = (1, 2, 4, 8)                      #: E3: simulated processors
GRID_RESOLUTION = 6                         #: §4.2: local-density cells
SELECTIVITY_RESOLUTION = 8                  #: E1: cells, skewed estimate
TREE_VARIANTS = ("rstar", "guttman-quadratic", "guttman-linear", "str",
                 "hilbert")                 #: A2

# -- the one seed table -------------------------------------------------------

#: Seeds of every data set that is not a uniform grid set, as (R1, R2).
_SEEDS = {
    "density": (300, 400),          # §4.1, plus int(10 * D)
    "nonuniform": (31, 77),         # §4.2, every distribution
    "uniform": (71, 72),            # A4
    "clustered": (73, 74),          # A4
    "diagonal": (75, 76),           # A4
    "selectivity-skew": (41, 42),   # E1
}


def _grid_set(scale: ExperimentScale, ndim: int, role: int,
              n: int) -> SpatialDataset:
    """The uniform data set of ``n`` objects for one join role (0 = R1,
    1 = R2)."""
    return uniform_rectangles(n, scale.density, ndim,
                              seed=100 * ndim + 50 * role + n)


def _grid_pair(scale: ExperimentScale, ndim: int, n1: int,
               n2: int) -> tuple[SpatialDataset, SpatialDataset]:
    """The two sides of one grid combo: per cardinality there is one set
    per role, because a combo joins two *distinct* random data sets, as
    in the paper — never a set with itself."""
    return _grid_set(scale, ndim, 0, n1), _grid_set(scale, ndim, 1, n2)


def _k(n: int) -> str:
    return f"{n // 1000}K" if n % 1000 == 0 else str(n)


def _vs(measured: float, model: float) -> list[object]:
    """The three cells every table spends on one measured quantity."""
    return [measured, round(model),
            format_error(relative_error(model, measured))]


def experiment_ids() -> list[str]:
    """All registered experiment identifiers."""
    return sorted(_REGISTRY)


def experiment_table(exp_id: str, scale: str | ExperimentScale = "bench",
                     governor: ExecutionGovernor | None = None,
                     cache: TreeCache | None = None) -> ExperimentTable:
    """Run one experiment; return its table and the records behind it.

    A ``governor`` bounds every measured join of the experiment: the
    NA/DA budgets apply per grid point (each join runs on fresh
    counters), the deadline to the experiment as a whole (the clock
    starts at the first join and keeps running).  An exhausted budget
    raises the typed error instead of emitting a truncated table.
    Experiments that run no join (the analytic ones, and ``ts96``, which
    measures range queries) ignore the governor.

    ``cache`` lets a caller that runs several ids share their trees;
    by default every call builds its own.
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
    return runner(scale, governor,
                  cache if cache is not None else TreeCache())


def run_experiment(exp_id: str, scale: str | ExperimentScale = "bench",
                   governor: ExecutionGovernor | None = None) -> str:
    """Run one experiment and return its formatted table (the text of
    :func:`experiment_table`, which documents ``governor``)."""
    return str(experiment_table(exp_id, scale, governor))


# -- analytic experiments (always paper scale) --------------------------------

class ModelPoint(NamedTuple):
    """Eqs. 7/10-12 for one (R1, R2) cardinality pair at paper scale."""

    n1: int
    n2: int
    height1: int
    height2: int
    na: float
    da: float            # Eq. 12 in its traversal reading (the default)
    da_literal: float    # ... and as printed in the paper


def _model_points(ndim: int,
                  combos: list[tuple[int, int]]) -> list[ModelPoint]:
    reqs = [EstimateRequest(
        n1=n1, d1=PAPER_SCALE.density, n2=n2, d2=PAPER_SCALE.density,
        max_entries=PAPER_SCALE.max_entries(ndim), ndim=ndim,
        fill=PAPER_SCALE.fill) for n1, n2 in combos]
    batch = estimate_batch(reqs)
    literal = estimate_batch(reqs, mixed_height_mode="paper")
    return [ModelPoint(n1, n2, batch.height1[i], batch.height2[i],
                       batch.na[i], batch.da[i], literal.da[i])
            for i, (n1, n2) in enumerate(combos)]


def _fig6(ndim: int, _scale, _governor, _cache) -> ExperimentTable:
    """Figure 6: NA/DA for equally populated trees, N = 20K..80K.

    6a (n = 1): every N yields height-3 trees, so both curves grow
    smoothly; 6b (n = 2): the height jumps from 3 to 4 inside the sweep,
    which bends the curves.
    """
    points = _model_points(ndim, [(n, n) for n in _SWEEP])
    return ExperimentTable(
        f"Figure 6{'a' if ndim == 1 else 'b'} "
        f"(n={ndim}, M={PAPER_SCALE.max_entries(ndim)}, paper scale)",
        ["N1=N2", "h", "anal(NA)", "anal(DA)"],
        [[_k(p.n1), p.height1, round(p.na), round(p.da)] for p in points],
        points)


def _fig7(ndim: int, _scale, _governor, _cache) -> ExperimentTable:
    """Figure 7: analytical DA when one cardinality varies — role choice.

    Four curves: ``NR1=20K`` / ``NR1=80K`` fix R1 (the data tree) and
    sweep N_R2; ``NR2=20K`` / ``NR2=80K`` fix R2 (the query tree) and
    sweep N_R1.  The records are the whole 7 x 7 grid of the sweep in
    both readings of Eq. 12, because the paper's role rule ("the less
    populated index as query tree") and its AREA 2/3 exceptions are
    claims about every pair, not only the four plotted curves.
    """
    points = _model_points(ndim, [(n1, n2) for n1 in _SWEEP
                                  for n2 in _SWEEP])
    grid = {(p.n1, p.n2): p for p in points}
    rows = [[_k(n), *(round(grid[pair].da) for pair in (
        (n, 20000), (n, 80000), (20000, n), (80000, n)))]
        for n in _SWEEP]
    notes = []
    mixed = [(min(p.n1, p.n2), max(p.n1, p.n2)) for p in points
             if p.height1 != p.height2]
    if mixed:
        # Combos where the taller/larger tree as query tree (R2) wins.
        literal = [(small, big) for small, big in mixed if
                   grid[small, big].da_literal < grid[big, small].da_literal]
        traversal = [(small, big) for small, big in mixed
                     if grid[small, big].da < grid[big, small].da]
        notes.append(
            f"Figure 7b rule exceptions: paper-literal Eq. 12 -> "
            f"{len(literal)} combos (e.g. {literal[:3]}); "
            f"traversal reading -> {len(traversal)} combos")
    return ExperimentTable(
        f"Figure 7{'a' if ndim == 1 else 'b'} "
        f"(n={ndim}, M={PAPER_SCALE.max_entries(ndim)}, paper scale)",
        ["N", "NR2=20K", "NR2=80K", "NR1=20K", "NR1=80K"], rows,
        points, notes)


# -- measured experiments (scale-dependent) -----------------------------------

def _fig5(ndim: int, scale: ExperimentScale,
          governor: ExecutionGovernor | None,
          cache: TreeCache) -> ExperimentTable:
    """Figure 5: experimental vs analytical NA and DA over all 16
    N1/N2 combinations of uniform data.

    5a (n = 1): every tree in the grid has the same height, which is why
    the paper's plots are near-linear in the combo index.  5b (n = 2):
    the grid straddles a height transition, so the series shows a break
    and the different-height formulas (Eqs. 11/12) are exercised.
    """
    m = scale.max_entries(ndim)
    obs = observe_grid(
        [_grid_pair(scale, ndim, n1, n2)
         for n1 in scale.cardinalities for n2 in scale.cardinalities],
        m, fill=scale.fill, cache=cache, governor=governor)
    summary = error_summary(obs)

    def errors(*axes: str) -> str:
        return "; ".join(
            f"{axis.upper()} mean={summary[f'{axis}_mean']:.1%} "
            f"max={summary[f'{axis}_max']:.1%}" for axis in axes)

    def heights(role: str, by_n: dict[int, int]) -> str:
        return f"{role} " + " ".join(
            f"{_k(n)}:{h}" for n, h in sorted(by_n.items()))

    return ExperimentTable(
        f"Figure 5{'a' if ndim == 1 else 'b'} "
        f"(n={ndim}, M={m}, {scale.name} scale)",
        ["N1/N2", "exper(NA)", "anal(NA)", "exper(DA)", "anal(DA)",
         "errNA", "errDA"],
        figure5_rows(obs), obs,
        [f"|err| {errors('na', 'da')}",
         f"|err| per tree: {errors('da1', 'da2')}",
         "heights " + heights("R1", {ob.n1: ob.height1 for ob in obs})
         + "; " + heights("R2", {ob.n2: ob.height2 for ob in obs})])


def _sec41(scale: ExperimentScale, governor: ExecutionGovernor | None,
           cache: TreeCache) -> ExperimentTable:
    """§4.1: model accuracy when the density D varies, both
    dimensionalities (the records are the 1-d sweep, then the 2-d one),
    at fixed cardinality."""
    n = scale.cardinalities[1]
    seed1, seed2 = _SEEDS["density"]
    rows, obs = [], []
    for ndim in (1, 2):
        found = observe_grid(
            [(uniform_rectangles(n, d, ndim, seed=seed1 + int(d * 10)),
              uniform_rectangles(n, d, ndim, seed=seed2 + int(d * 10)))
             for d in scale.densities],
            scale.max_entries(ndim), fill=scale.fill, cache=cache,
            governor=governor)
        obs.extend(found)
        rows.extend(
            [f"n={ndim} D={d:g}", *_vs(ob.na_measured, ob.na_model),
             *_vs(ob.da_measured, ob.da_model),
             format_error(ob.da1_error), format_error(ob.da2_error)]
            for d, ob in zip(scale.densities, found))
    return ExperimentTable(
        "Table (§4.1): model accuracy across density D, uniform data "
        f"(N={_k(n)}, {scale.name} scale)",
        ["workload", "exp(NA)", "anal(NA)", "errNA", "exp(DA)",
         "anal(DA)", "errDA", "errDA1", "errDA2"], rows, obs)


def _sec42(scale: ExperimentScale, governor: ExecutionGovernor | None,
           cache: TreeCache) -> ExperimentTable:
    """§4.2: skewed and real-like data (the TIGER files replaced by the
    road-network substitute of DESIGN.md §4), the uniform model next to
    the local-density grid model.  Each record is the pair
    (uniform-model observation, grid-model observation) of one join of
    two independently drawn sets of one distribution."""
    n, d, m = scale.cardinalities[0], scale.density, scale.max_entries(2)
    workloads = {
        "clustered": lambda s: clustered_rectangles(
            n, d, 2, clusters=6, spread=0.05, seed=s),
        "zipf": lambda s: zipf_rectangles(n, d, 2, alpha=1.5, seed=s),
        "diagonal": lambda s: diagonal_rectangles(
            n, d, 2, width=0.08, seed=s),
        "tiger-like": lambda s: tiger_like_segments(n, seed=s),
    }
    rows, records = [], []
    for name, draw in workloads.items():
        ds1, ds2 = (draw(seed) for seed in _SEEDS["nonuniform"])
        plain, grid = (observe_join(
            ds1, ds2, m, fill=scale.fill, cache=cache, label=name,
            nonuniform_resolution=resolution, governor=governor)
            for resolution in (None, GRID_RESOLUTION))
        records.append((plain, grid))
        rows.append([
            name, plain.na_measured,
            round(plain.na_model), format_error(plain.na_error),
            round(grid.na_model), format_error(grid.na_error),
            format_error(plain.da_error), format_error(grid.da_error)])
    return ExperimentTable(
        "Table (§4.2): non-uniform data, uniform model vs local-density "
        f"grid (res={GRID_RESOLUTION}, N={_k(n)}, {scale.name} scale)",
        ["workload", "exp(NA)", "uniform(NA)", "err", "grid(NA)", "err",
         "errDA(unif)", "errDA(grid)"], rows, records)


class RangeReading(NamedTuple):
    """Mean measured NA of a window query against Eq. 1."""

    ndim: int
    side: float
    measured: float
    model: float


def _mean_range_na(tree: RTreeBase, side: float) -> float:
    """Mean NA over a regular grid of windows of the given side."""
    steps = int(PROBES ** (1 / tree.ndim))
    span = 1.0 - side
    total = 0
    for i in range(steps ** tree.ndim):
        coords = []
        idx = i
        for _ in range(tree.ndim):
            coords.append((idx % steps) / max(1, steps - 1) * span)
            idx //= steps
        stats = AccessStats()
        tree.range_query(
            Rect(coords, [c + side for c in coords]),
            reader=MeteredReader(tree.pager, "T", stats, NoBuffer()))
        total += stats.na("T")
    return total / steps ** tree.ndim


def _ts96(scale: ExperimentScale, _governor,
          cache: TreeCache) -> ExperimentTable:
    """TS96 platform validation: Eq. 1 against measured range queries.

    The join model stands on the range-query model, so its accuracy
    floor is Eq. 1's.  Sweeps window sizes on both dimensionalities and
    compares the analytical node accesses with the average over a grid
    of measured window queries — the experiment TS96 itself reports,
    rerun as the foundation check for everything else.
    """
    n = scale.cardinalities[1]
    readings = []
    for ndim in (1, 2):
        m = scale.max_entries(ndim)
        dataset = _grid_set(scale, ndim, 0, n)
        tree = cache.get(dataset, m)
        params = AnalyticalTreeParams.from_dataset(dataset, m, scale.fill)
        readings.extend(
            RangeReading(ndim, side, _mean_range_na(tree, side),
                         range_query_na(params, (side,) * ndim))
            for side in WINDOW_SIDES)
    return ExperimentTable(
        "TS96 platform: Eq. 1 vs measured range queries (mean over a "
        f"probe grid, N={_k(n)}, {scale.name} scale)",
        ["window", "exp(NA)", "anal(NA)", "err"],
        [[f"n={r.ndim} q={r.side:g}", r.measured, r.model,
          format_error(relative_error(r.model, r.measured))]
         for r in readings], readings)


def _levels(scale: ExperimentScale, governor: ExecutionGovernor | None,
            cache: TreeCache) -> ExperimentTable:
    """Per-level error attribution for one Figure 5b point (N1 = N2).

    Every formula in the paper is a per-level sum and the counters
    record accesses per level, so end-to-end error can be localised: the
    leaf level (where Eq. 6's pair estimate dominates) vs the sparse
    upper levels (where real-valued ``N_j`` misrepresents 2-4 actual
    nodes).
    """
    n, m = scale.cardinalities[1], scale.max_entries(2)
    d1, d2 = _grid_pair(scale, 2, n, n)
    result = spatial_join(cache.get(d1, m), cache.get(d2, m),
                          collect_pairs=False, governor=governor)
    levels = level_comparison(result, d1, d2, m, fill=scale.fill)
    return ExperimentTable(
        f"Diagnostics: per-level error attribution (N1 = N2 = {_k(n)}, "
        f"n = 2, {scale.name} scale)",
        ["tree/level", "exp(NA)", "anal(NA)", "errNA", "exp(DA)",
         "anal(DA)"],
        [[f"{r.tree} L{r.level}", r.na_measured, r.na_model,
          format_error(r.na_error), r.da_measured, r.da_model]
         for r in levels], levels)


class BufferReading(NamedTuple):
    """Measured disk accesses of one join under one buffer policy."""

    policy: str
    pool: int | None     # LRU pool size; None for the paper's two regimes
    da: int


def _a1(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Ablation A1: buffer policy effect on measured disk accesses —
    the paper's two regimes (no buffer = NA; path buffer = DA) and the
    LRU pools it defers to future work."""
    m = scale.max_entries(2)
    n1, n2 = scale.cardinalities[1], scale.cardinalities[-2]
    t1, t2 = (cache.get(ds, m) for ds in _grid_pair(scale, 2, n1, n2))
    policies = [("none (NA)", None, NoBuffer()),
                ("path buffer", None, PathBuffer())]
    policies += [(f"LRU({k})", k, LRUBuffer(k)) for k in LRU_POOLS]
    readings = [BufferReading(policy, pool, spatial_join(
        t1, t2, buffer=buffer, collect_pairs=False,
        governor=governor).da_total) for policy, pool, buffer in policies]
    na = readings[0].da
    return ExperimentTable(
        "Ablation A1: buffer policies (measured disk accesses, "
        f"{_k(n1)}/{_k(n2)}, n = 2, {scale.name} scale)",
        ["policy", "disk accesses", "vs no buffer"],
        [[r.policy, r.da, f"{r.da / na:.2f}"] for r in readings],
        readings)


class VariantReading(NamedTuple):
    """One join over trees of one construction method, against the
    model (which is the same for every variant)."""

    variant: str
    fill: float          # measured average node fill of the two trees
    overlap: float       # summed pairwise leaf-MBR intersection area
    observation: JoinObservation


def _a2(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Ablation A2: index construction method vs the cost model.

    The paper indexes with insertion-built R*-trees and models them
    through the average-capacity parameter ``c = 0.67``.  The same join
    over Guttman quadratic/linear splits and STR/Hilbert packing shows
    how far the single ``c``-parameterised model stays useful.
    """
    n, m = scale.cardinalities[1], scale.max_entries(2)
    d1, d2 = _grid_pair(scale, 2, n, n)
    readings = []
    for variant in TREE_VARIANTS:
        ob = observe_join(d1, d2, m, fill=scale.fill, cache=cache,
                          variant=variant, governor=governor)
        t1, t2 = cache.get(d1, m, variant), cache.get(d2, m, variant)
        readings.append(VariantReading(
            variant, (t1.average_fill() + t2.average_fill()) / 2,
            total_overlap(t1) + total_overlap(t2), ob))
    model = readings[0].observation
    return ExperimentTable(
        f"Ablation A2: tree construction vs the c={scale.fill} model "
        f"(N1 = N2 = {_k(n)}, n = 2, {scale.name} scale)",
        ["variant", "fill", "leaf ovlp", "exp(NA)", "model err",
         "exp(DA)", "model err"],
        [[r.variant, f"{r.fill:.2f}", f"{r.overlap:.3f}",
          r.observation.na_measured, format_error(r.observation.na_error),
          r.observation.da_measured, format_error(r.observation.da_error)]
         for r in readings], readings,
        [f"model: NA={model.na_model:.0f}, DA={model.da_model:.0f}"])


class PlatformReading(NamedTuple):
    """Measured join NA against Eq. 7 on the two parameter platforms."""

    workload: str
    d2: float            # correlation (fractal) dimension of the R1 set
    measured: int
    ts96: float
    fk94: float


def _a4(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Ablation A4: TS96 (density) vs FK94 (fractal dimension).

    The paper builds its join model on TS96 but names FK94 as the other
    available platform ("fractal dimension and density surface,
    respectively").  Both sit behind the same ``TreeParams`` protocol,
    so the identical join formulas run on either.
    """
    n, d, m = scale.cardinalities[0], scale.density, scale.max_entries(2)
    workloads = {
        "uniform": lambda s: uniform_rectangles(n, d, 2, seed=s),
        "clustered": lambda s: clustered_rectangles(
            n, d, 2, clusters=6, spread=0.05, seed=s),
        "diagonal": lambda s: diagonal_rectangles(
            n, d, 2, width=0.05, seed=s),
    }
    readings = []
    for name, draw in workloads.items():
        ds1, ds2 = (draw(seed) for seed in _SEEDS[name])
        measured = spatial_join(cache.get(ds1, m), cache.get(ds2, m),
                                collect_pairs=False,
                                governor=governor).na_total
        ts96, fk94 = (join_na_total(
            platform.from_dataset(ds1, m, scale.fill),
            platform.from_dataset(ds2, m, scale.fill))
            for platform in (AnalyticalTreeParams, FractalTreeParams))
        readings.append(PlatformReading(
            name, correlation_dimension(ds1), measured, ts96, fk94))
    return ExperimentTable(
        "Ablation A4: cost platforms — TS96 (density) vs FK94 "
        f"(fractal), measured NA (N={_k(n)}, {scale.name} scale)",
        ["workload", "D2", "exp(NA)", "TS96", "err", "FK94", "err"],
        [[r.workload, f"{r.d2:.2f}", *_vs(r.measured, r.ts96),
          *_vs(r.measured, r.fk94)[1:]] for r in readings], readings)


def _e1(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Extension E1 (§5): join selectivity estimation.

    The paper's future-work goal — "a formula that would estimate the
    number of overlapping pairs of objects at the leaf level of the two
    indexes" — as the data-level analogue of Eq. 6, against the measured
    output cardinality over the upper triangle of the Figure 5b grid.
    The last record (a note, not a table row) is one join of strongly
    clustered data as the pair (uniform formula, local-density grid).
    """
    m = scale.max_entries(2)
    obs = observe_grid(
        [_grid_pair(scale, 2, n1, n2) for n1 in scale.cardinalities
         for n2 in scale.cardinalities if n1 <= n2],
        m, fill=scale.fill, cache=cache, governor=governor)
    ds1, ds2 = (clustered_rectangles(
        scale.cardinalities[0], scale.density, 2, clusters=4, spread=0.04,
        seed=seed) for seed in _SEEDS["selectivity-skew"])
    plain, grid = (observe_join(
        ds1, ds2, m, fill=scale.fill, cache=cache, label="clustered",
        nonuniform_resolution=resolution, governor=governor)
        for resolution in (None, SELECTIVITY_RESOLUTION))
    return ExperimentTable(
        "Extension E1 (§5): join selectivity, uniform grid "
        f"({scale.name} scale)",
        ["N1/N2", "measured pairs", "predicted", "err"],
        [[f"{_k(ob.n1)}/{_k(ob.n2)}", *_vs(ob.pairs, ob.pairs_model)]
         for ob in obs], [*obs, (plain, grid)],
        [f"Skewed selectivity: measured={plain.pairs}, "
         f"uniform formula={plain.pairs_model:.0f} "
         f"({format_error(plain.pairs_error)}), "
         f"local-density grid={grid.pairs_model:.0f} "
         f"({format_error(grid.pairs_error)})"])


class DistanceReading(NamedTuple):
    """One within-distance join: output pairs and NA, each against the
    window-transformed formula."""

    distance: float
    pairs: int
    pairs_model: float
    na: int
    na_model: float


def _distance_join_na(p1: AnalyticalTreeParams, p2: AnalyticalTreeParams,
                      distance: float) -> float:
    """Eq. 7 with every pairwise window inflated by 2 * distance."""
    operator = within_distance(distance)
    total = 0.0
    for stage in traversal_stages(p1, p2):
        pairs = p2.nodes_at(stage.level2) * intsect(
            p1.nodes_at(stage.level1), p1.extents_at(stage.level1),
            operator.cost_extents(p2.extents_at(stage.level2)))
        if stage.level1 < p1.height:
            total += pairs
        if stage.level2 < p2.height:
            total += pairs
    return total


def _e2(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Extension E2 (§5): non-overlap operators via window
    transformation [PT97].  *Within-distance* joins at several bounds:
    output pairs against ``join_selectivity_pairs(distance=e)``, NA
    against the overlap formula with node extents inflated by ``2e``
    (priced through inflated-extent parameters)."""
    n, m = scale.cardinalities[0], scale.max_entries(2)
    d1, d2 = _grid_pair(scale, 2, n, n)
    p1 = AnalyticalTreeParams.from_dataset(d1, m, scale.fill)
    p2 = AnalyticalTreeParams.from_dataset(d2, m, scale.fill)
    readings = []
    for e in DISTANCES:
        result = spatial_join(cache.get(d1, m), cache.get(d2, m),
                              predicate=WithinDistance(e),
                              collect_pairs=False, governor=governor)
        readings.append(DistanceReading(
            e, result.pair_count, join_selectivity_pairs(p1, p2, distance=e),
            result.na_total, _distance_join_na(p1, p2, e)))
    return ExperimentTable(
        "Extension E2 (§5): within-distance joins via window "
        f"transformation (N1 = N2 = {_k(n)}, {scale.name} scale)",
        ["bound", "pairs", "model", "err", "exp(NA)", "anal(NA)", "err"],
        [[f"e={r.distance:g}", *_vs(r.pairs, r.pairs_model),
          *_vs(r.na, r.na_model)] for r in readings], readings)


class ParallelReading(NamedTuple):
    """One simulated shared-nothing run of the join."""

    strategy: str
    workers: int
    makespan_da: int     # the busiest worker's disk accesses
    total_da: int
    sequential_da: int   # the same join on one processor
    speedup: float | None
    same_pairs: bool     # the output equals the sequential join's


def _e3(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Extension E3 (§5): parallel processing of the spatial join.

    The paper's future work cites [BKS96]: decompose SJ into independent
    subtree-pair tasks over processors with private disks.  The
    simulation measures the quantity a shared-nothing system waits for —
    the busiest worker's disk accesses (makespan) — under round-robin
    and greedy (LPT) task assignment.
    """
    n, m = scale.cardinalities[1], scale.max_entries(2)
    t1, t2 = (cache.get(ds, m) for ds in _grid_pair(scale, 2, n, n))
    sequential = spatial_join(t1, t2, governor=governor)
    reference = sorted(sequential.pairs)
    readings = []
    for strategy in ("round-robin", "greedy"):
        for w in WORKERS:
            r = parallel_spatial_join(
                t1, t2, governor=governor, config=ExecutionConfig(
                    workers=w, assignment=strategy))
            readings.append(ParallelReading(
                strategy, w, r.makespan_da, r.total_da,
                sequential.da_total, r.speedup_da(sequential.da_total),
                sorted(r.pairs) == reference))
    return ExperimentTable(
        "Extension E3 (§5): simulated parallel SJ (sequential DA = "
        f"{sequential.da_total}, N1 = N2 = {_k(n)}, {scale.name} scale)",
        ["strategy/workers", "makespan DA", "total DA", "speedup"],
        [[f"{r.strategy}/{r.workers}", r.makespan_da, r.total_da,
          "n/a" if r.speedup is None else f"{r.speedup:.2f}x"]
         for r in readings], readings)


def _e4(scale: ExperimentScale, governor: ExecutionGovernor | None,
        cache: TreeCache) -> ExperimentTable:
    """Extension E4 (§5): model behaviour in higher-dimensional space —
    one join of the smallest cardinality per dimensionality, n = 2 (the
    Figure 5b point), 3, 4."""
    n = scale.cardinalities[0]
    obs = [observe_join(
        *_grid_pair(scale, ndim, n, n), scale.max_entries(ndim),
        fill=scale.fill, cache=cache, label=f"n={ndim}",
        governor=governor) for ndim in (2, 3, 4)]
    return ExperimentTable(
        f"Extension E4 (§5): dimensionality sweep (N = {n}, "
        f"D = {scale.density}, {scale.name} scale)",
        ["dim", "M", "h meas/model", "exp(NA)", "anal(NA)", "errNA",
         "exp(DA)", "anal(DA)", "errDA"],
        [[ob.label, scale.max_entries(ndim),
          f"{ob.height1}/{ob.model_height1}",
          *_vs(ob.na_measured, ob.na_model),
          *_vs(ob.da_measured, ob.da_model)]
         for ndim, ob in zip((2, 3, 4), obs)], obs)


_REGISTRY: dict[str, Callable[..., ExperimentTable]] = {
    "fig5a": partial(_fig5, 1),
    "fig5b": partial(_fig5, 2),
    "fig6a": partial(_fig6, 1),
    "fig6b": partial(_fig6, 2),
    "fig7a": partial(_fig7, 1),
    "fig7b": partial(_fig7, 2),
    "sec41": _sec41,
    "sec42": _sec42,
    "ts96": _ts96,
    "levels": _levels,
    "a1": _a1,
    "a2": _a2,
    "a4": _a4,
    "e1": _e1,
    "e2": _e2,
    "e3": _e3,
    "e4": _e4,
}
