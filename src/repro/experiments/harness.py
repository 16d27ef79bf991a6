"""Build-run-measure-compare pipeline behind every measured experiment.

The harness owns the expensive part — building R*-trees — behind a cache
keyed by the data set, so the 16-combination grids of Figure 5 build each
tree once.  ``observe_grid`` produces one :class:`JoinObservation` per
join — the four numbers every paper plot reports (experimental/analytical
NA/DA) plus per-tree splits and relative errors — pricing every point's
analytical side in one vectorized :func:`~repro.estimator.estimate_batch`
call; ``observe_join`` is the grid of one pair, optionally re-priced by
the §4.2 local-density model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..costmodel import NonUniformJoinModel, join_selectivity_pairs_grid
from ..datasets import SpatialDataset
from ..estimator import EstimateRequest, estimate_batch
from ..exec import ExecutionGovernor
from ..join import R1, R2, spatial_join
from ..rtree import GuttmanRTree, RStarTree, RTreeBase, hilbert_pack, str_pack

__all__ = ["TreeCache", "JoinObservation", "observe_join", "observe_grid",
           "relative_error", "build_tree"]


def relative_error(model: float, measured: float) -> float | None:
    """Signed relative error of a model value against a measurement.

    A zero measurement with a non-zero model value has no defined
    relative error; the result is ``None`` (rendered ``n/a`` in tables,
    ``null`` in JSON).  An earlier version returned ``float("inf")``,
    which ``json.dumps`` turns into the non-standard literal
    ``Infinity`` — breaking every strict JSON consumer of the
    reporting output.
    """
    if measured == 0:
        return 0.0 if model == 0 else None
    return (model - measured) / measured


def build_tree(dataset: SpatialDataset, max_entries: int,
               variant: str = "rstar") -> RTreeBase:
    """Index a data set with the chosen tree variant."""
    if variant == "str":
        return str_pack(dataset.items, dataset.ndim, max_entries)
    if variant == "hilbert":
        return hilbert_pack(dataset.items, dataset.ndim, max_entries)
    if variant == "rstar":
        tree = RStarTree(dataset.ndim, max_entries)
    elif variant in ("guttman-linear", "guttman-quadratic"):
        tree = GuttmanRTree(dataset.ndim, max_entries,
                            split=variant.removeprefix("guttman-"))
    else:
        raise ValueError(f"unknown tree variant {variant!r}")
    tree.extend(dataset)
    return tree


class TreeCache:
    """Memoised tree builds keyed by (dataset name, M, variant).

    Dataset names produced by the generators encode every generation
    parameter including the seed, so the name is a faithful cache key
    within one experiment run.
    """

    def __init__(self) -> None:
        self._trees: dict[tuple[str, int, str], RTreeBase] = {}

    def get(self, dataset: SpatialDataset, max_entries: int,
            variant: str = "rstar") -> RTreeBase:
        """The (possibly cached) index of ``dataset`` for this config."""
        key = (dataset.name, max_entries, variant)
        if key not in self._trees:
            self._trees[key] = build_tree(dataset, max_entries, variant)
        return self._trees[key]

    def __len__(self) -> int:
        return len(self._trees)


@dataclass
class JoinObservation:
    """Everything one Figure-5-style grid point reports."""

    label: str
    n1: int
    n2: int
    height1: int                 # actual tree heights
    height2: int
    model_height1: int           # Eq. 2 heights
    model_height2: int
    na_measured: int
    na_model: float
    da_measured: int
    da_model: float
    da1_measured: int            # per-tree DA split (the Eq. 8/9 claims)
    da1_model: float
    da2_measured: int
    da2_model: float
    pairs: int                   # output cardinality ...
    pairs_model: float           # ... and its §5 selectivity estimate

    @property
    def na_error(self) -> float | None:
        return relative_error(self.na_model, self.na_measured)

    @property
    def da_error(self) -> float | None:
        return relative_error(self.da_model, self.da_measured)

    @property
    def da1_error(self) -> float | None:
        return relative_error(self.da1_model, self.da1_measured)

    @property
    def da2_error(self) -> float | None:
        return relative_error(self.da2_model, self.da2_measured)

    @property
    def pairs_error(self) -> float | None:
        return relative_error(self.pairs_model, self.pairs)


def observe_grid(dataset_pairs: Iterable[tuple[SpatialDataset,
                                               SpatialDataset]],
                 max_entries: int, fill: float = 0.67,
                 cache: TreeCache | None = None,
                 variant: str = "rstar",
                 governor: ExecutionGovernor | None = None,
                 ) -> list[JoinObservation]:
    """Measure a whole grid of joins, batching the analytical side.

    The measured joins run one at a time (trees must be built and
    traversed), but every grid point's Eq. 7/10 predictions are
    evaluated by a single :func:`~repro.estimator.estimate_batch` call.
    This is the one place a :class:`JoinObservation` is filled in.

    ``governor`` bounds the measured runs (deadline / NA / DA budgets,
    cancellation); an exhausted budget raises the typed error — a
    truncated measurement must never masquerade as a grid point, so a
    partial-mode governor is refused.
    """
    if governor is not None and governor.partial:
        raise ValueError(
            "observe_grid needs complete measurements; partial-mode "
            "governors are not supported here")
    pairs = list(dataset_pairs)
    cache = cache if cache is not None else TreeCache()
    reqs = [EstimateRequest(
        n1=ds1.cardinality, d1=ds1.density(),
        n2=ds2.cardinality, d2=ds2.density(),
        max_entries=max_entries, ndim=ds1.ndim, fill=fill)
        for ds1, ds2 in pairs]
    batch = estimate_batch(reqs)

    out = []
    for i, (ds1, ds2) in enumerate(pairs):
        tree1 = cache.get(ds1, max_entries, variant)
        tree2 = cache.get(ds2, max_entries, variant)
        result = spatial_join(tree1, tree2, collect_pairs=False,
                              governor=governor)
        out.append(JoinObservation(
            label=f"{ds1.name} JOIN {ds2.name}",
            n1=ds1.cardinality,
            n2=ds2.cardinality,
            height1=tree1.height,
            height2=tree2.height,
            model_height1=batch.height1[i],
            model_height2=batch.height2[i],
            na_measured=result.na_total,
            na_model=batch.na[i],
            da_measured=result.da_total,
            da_model=batch.da[i],
            da1_measured=result.da(R1),
            da1_model=batch.da_left[i],
            da2_measured=result.da(R2),
            da2_model=batch.da_right[i],
            pairs=result.pair_count,
            pairs_model=batch.selectivity[i],
        ))
    return out


def observe_join(dataset1: SpatialDataset, dataset2: SpatialDataset,
                 max_entries: int, fill: float = 0.67,
                 cache: TreeCache | None = None,
                 variant: str = "rstar",
                 nonuniform_resolution: int | None = None,
                 label: str | None = None,
                 governor: ExecutionGovernor | None = None,
                 ) -> JoinObservation:
    """Run one measured join and its analytical estimate side by side:
    :func:`observe_grid` of one pair.

    ``nonuniform_resolution`` switches the analytical side to the
    local-density grid models of §4.2 and §5 (for skewed/real-like
    data).
    """
    [ob] = observe_grid([(dataset1, dataset2)], max_entries, fill=fill,
                        cache=cache, variant=variant, governor=governor)
    if label:
        ob.label = label
    if nonuniform_resolution is not None:
        model = NonUniformJoinModel(dataset1, dataset2, max_entries,
                                    resolution=nonuniform_resolution,
                                    fill=fill)
        ob.na_model = model.na_total()
        ob.da_model = model.da_total()
        # The grid model prices cells jointly; split per tree by the
        # uniform model's proportions for reporting purposes.
        u1, u2 = ob.da1_model, ob.da2_model
        total = u1 + u2
        ob.da1_model = ob.da_model * (u1 / total) if total else 0.0
        ob.da2_model = ob.da_model * (u2 / total) if total else 0.0
        ob.pairs_model = join_selectivity_pairs_grid(
            dataset1, dataset2, resolution=nonuniform_resolution)
    return ob
