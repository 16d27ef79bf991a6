"""Spatial join algorithms: SJ synchronized traversal and baselines."""

from ..exec.config import STRATEGIES, TRAVERSALS
from .batch import LevelBatchState, supports_level_batch, tree_arena
from .naive import naive_join
from .parallel import (ASSIGNMENT_STRATEGIES, EXECUTION_MODES,
                       ON_WORKER_CRASH, ParallelJoinResult, WorkerCrashed,
                       parallel_spatial_join)
from .partition import partition_spatial_join
from .plane_sweep import nested_loop_pairs, sweep_pairs, sweep_pairs_batch
from .nested_loop import index_nested_loop_join
from .predicates import OVERLAP, JoinPredicate, Overlap, WithinDistance
from .result import R1, R2, JoinResult, PartialJoinResult
from .sync import (PAIR_ENUMERATIONS, SpatialJoin, select_traversal,
                   spatial_join, traversal_state)
from .vectorized import vectorized_pairs

__all__ = [
    "ASSIGNMENT_STRATEGIES",
    "EXECUTION_MODES",
    "JoinPredicate",
    "JoinResult",
    "LevelBatchState",
    "ON_WORKER_CRASH",
    "OVERLAP",
    "Overlap",
    "PAIR_ENUMERATIONS",
    "ParallelJoinResult",
    "PartialJoinResult",
    "R1",
    "R2",
    "STRATEGIES",
    "SpatialJoin",
    "TRAVERSALS",
    "WithinDistance",
    "WorkerCrashed",
    "index_nested_loop_join",
    "naive_join",
    "nested_loop_pairs",
    "parallel_spatial_join",
    "partition_spatial_join",
    "select_traversal",
    "spatial_join",
    "supports_level_batch",
    "sweep_pairs",
    "sweep_pairs_batch",
    "traversal_state",
    "tree_arena",
    "vectorized_pairs",
]
