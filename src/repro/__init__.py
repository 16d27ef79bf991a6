"""repro — Cost Models for Join Queries in Spatial Databases (ICDE 1998).

A from-scratch reproduction of Theodoridis, Stefanakis & Sellis's
analytical cost models for R-tree spatial joins, together with every
substrate they are validated against: an R*-tree/R-tree family over
simulated paged storage, the SJ synchronized-traversal join, dataset
generators, the TS96 range-query model, a non-uniform local-density
correction, and a cost-based optimizer built on top.

Typical use::

    from repro import (uniform_rectangles, RStarTree, spatial_join,
                       Estimator)

    data1 = uniform_rectangles(2000, density=0.5, ndim=2, seed=1)
    data2 = uniform_rectangles(4000, density=0.5, ndim=2, seed=2)
    t1, t2 = RStarTree(2, 24), RStarTree(2, 24)
    for r, o in data1: t1.insert(r, o)
    for r, o in data2: t2.insert(r, o)

    measured = spatial_join(t1, t2)          # runs SJ, counts NA and DA
    est = Estimator.from_datasets(data1, data2, 24)
    predicted_na = est.na()                  # no trees needed
    predicted_da = est.da()

For whole parameter grids, :func:`estimate_batch` evaluates the same
formulas vectorized with NumPy::

    from repro import EstimateRequest, estimate_batch

    grid = [EstimateRequest(n1=n, d1=0.5, n2=20000, d2=0.5)
            for n in range(10000, 100001, 10000)]
    result = estimate_batch(grid)            # .na / .da / .selectivity
"""

from .costmodel import (AnalyticalTreeParams, MeasuredTreeParams,
                        NonUniformJoinModel, intsect, join_da_by_tree,
                        join_da_total, join_na_total,
                        join_selectivity_fraction, join_selectivity_pairs,
                        range_query_na, range_query_selectivity,
                        rtree_height)
from .datasets import (LocalDensityGrid, SpatialDataset,
                       clustered_rectangles, diagonal_rectangles,
                       tiger_like_segments, uniform_rectangles,
                       zipf_rectangles)
from .estimator import (BatchResult, EstimateRequest, Estimator,
                        ParamCache, estimate_batch, range_na_batch)
from .exec import (AdmissionRejected, Budget, BudgetExceeded, Cancelled,
                   CancellationToken, CheckpointMismatch,
                   ExecutionConfig, ExecutionGovernor, JoinCheckpoint)
from .geometry import (ArenaHandle, ColumnarMBRs, Rect, TreeArena,
                       Workspace, arena_from_shared_memory,
                       arena_to_shared_memory)
from .io import load_dataset, load_tree, save_dataset, save_tree
from .join import (OVERLAP, JoinResult, Overlap, PairList,
                   ParallelJoinResult, PartialJoinResult, SpatialJoin,
                   WithinDistance, index_nested_loop_join, naive_join,
                   parallel_spatial_join, partition_spatial_join,
                   spatial_join, vectorized_pairs)
from .obs import (AccuracyLedger, AccuracyRecord, JsonlSink, MemorySink,
                  MetricsRegistry, NullSink, TraceSink, Tracer)
from .optimizer import Catalog, best_plan, role_advice
from .reliability import (CorruptionReport, CorruptPageError, FaultInjector,
                          FaultyPager, MalformedFileError, ModelDomainError,
                          ReproError, ResilientReader, RetryExhaustedError,
                          RetryPolicy, TransientPageError)
from .rtree import (ArenaTreeView, GuttmanRTree, RStarTree, RTreeBase,
                    hilbert_pack, nearest_neighbors, share_tree,
                    str_pack)
from .storage import (AccessStats, LRUBuffer, NoBuffer, PathBuffer,
                      node_capacity)

__version__ = "1.0.0"

__all__ = [
    "AccessStats",
    "AccuracyLedger",
    "AccuracyRecord",
    "AdmissionRejected",
    "AnalyticalTreeParams",
    "ArenaHandle",
    "ArenaTreeView",
    "BatchResult",
    "Budget",
    "BudgetExceeded",
    "CancellationToken",
    "Cancelled",
    "Catalog",
    "CheckpointMismatch",
    "ColumnarMBRs",
    "CorruptPageError",
    "CorruptionReport",
    "EstimateRequest",
    "Estimator",
    "ExecutionConfig",
    "ExecutionGovernor",
    "FaultInjector",
    "FaultyPager",
    "GuttmanRTree",
    "JoinCheckpoint",
    "JoinResult",
    "JsonlSink",
    "LRUBuffer",
    "LocalDensityGrid",
    "MalformedFileError",
    "MeasuredTreeParams",
    "MemorySink",
    "MetricsRegistry",
    "ModelDomainError",
    "NoBuffer",
    "NonUniformJoinModel",
    "NullSink",
    "OVERLAP",
    "Overlap",
    "PairList",
    "ParallelJoinResult",
    "ParamCache",
    "PartialJoinResult",
    "PathBuffer",
    "RStarTree",
    "RTreeBase",
    "Rect",
    "ReproError",
    "ResilientReader",
    "RetryExhaustedError",
    "RetryPolicy",
    "SpatialDataset",
    "SpatialJoin",
    "TraceSink",
    "Tracer",
    "TransientPageError",
    "TreeArena",
    "WithinDistance",
    "Workspace",
    "arena_from_shared_memory",
    "arena_to_shared_memory",
    "best_plan",
    "clustered_rectangles",
    "diagonal_rectangles",
    "estimate_batch",
    "hilbert_pack",
    "index_nested_loop_join",
    "intsect",
    "join_da_by_tree",
    "join_da_total",
    "join_na_total",
    "join_selectivity_fraction",
    "join_selectivity_pairs",
    "load_dataset",
    "load_tree",
    "naive_join",
    "nearest_neighbors",
    "node_capacity",
    "parallel_spatial_join",
    "partition_spatial_join",
    "range_na_batch",
    "range_query_na",
    "range_query_selectivity",
    "role_advice",
    "rtree_height",
    "save_dataset",
    "save_tree",
    "share_tree",
    "spatial_join",
    "str_pack",
    "tiger_like_segments",
    "uniform_rectangles",
    "vectorized_pairs",
    "zipf_rectangles",
    "__version__",
]
