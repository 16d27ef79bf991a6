"""The documented public surface is the actual public surface.

Every ``repro.*`` package declares an explicit ``__all__``; every name
in it resolves; the top-level list is sorted and matches the export
table in ``docs/api.md`` exactly.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}"
    for m in pkgutil.iter_modules(repro.__path__)
    if m.ispkg or m.name in ("cli",))


@pytest.mark.parametrize("modname", PACKAGES)
def test_package_declares_all(modname):
    mod = importlib.import_module(modname)
    assert hasattr(mod, "__all__"), f"{modname} has no __all__"
    assert len(mod.__all__) == len(set(mod.__all__)), (
        f"{modname}.__all__ has duplicates")


@pytest.mark.parametrize("modname", PACKAGES)
def test_all_entries_resolve(modname):
    mod = importlib.import_module(modname)
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, (
            f"{modname}.__all__ lists {name!r} but it does not resolve")


@pytest.mark.parametrize("modname", PACKAGES)
def test_all_entries_sorted(modname):
    mod = importlib.import_module(modname)
    public = [n for n in mod.__all__ if not n.startswith("_")]
    assert public == sorted(public), (
        f"{modname}.__all__ is not sorted: {public}")


def test_dunder_version_listed_last():
    assert repro.__all__[-1] == "__version__"


def test_star_import_honours_all():
    ns = {}
    exec("from repro import *", ns)
    imported = {n for n in ns if not n.startswith("__")}
    assert imported == {n for n in repro.__all__
                        if not n.startswith("__")}


#: The arena / execution-config API introduced by the shared-memory
#: parallel-join work: pinned here explicitly so the exports cannot be
#: dropped without this file noticing, independent of docs/api.md.
ARENA_API = {
    "repro": ["ArenaHandle", "ArenaTreeView", "ExecutionConfig",
              "TreeArena", "arena_from_shared_memory",
              "arena_to_shared_memory", "share_tree"],
    "repro.exec": ["ASSIGNMENT_STRATEGIES", "DEFAULT_WORKER_TIMEOUT",
                   "EXECUTION_MODES", "ExecutionConfig",
                   "ON_WORKER_CRASH", "PAIR_ENUMERATIONS",
                   "TRAVERSALS"],
    "repro.join": ["LevelBatchState", "TRAVERSALS",
                   "supports_level_batch", "tree_arena"],
    "repro.geometry": ["ArenaHandle", "SharedArena", "TreeArena",
                       "arena_from_shared_memory",
                       "arena_to_shared_memory"],
    "repro.rtree": ["ArenaTreeHandle", "ArenaTreeView", "share_tree"],
}


@pytest.mark.parametrize("modname, names",
                         sorted(ARENA_API.items()))
def test_arena_api_is_exported(modname, names):
    mod = importlib.import_module(modname)
    for name in names:
        assert name in mod.__all__, (
            f"{modname}.__all__ lost {name!r}")
        assert getattr(mod, name, None) is not None


#: The partition-based (PBSM) join strategy: engine entrypoint, the
#: strategy knob's value set, and the optimizer's plan/costing pair.
PBSM_API = {
    "repro.exec": ["STRATEGIES"],
    "repro.join": ["STRATEGIES", "partition_spatial_join"],
    "repro.optimizer": ["PBSMJoinPlan", "make_pbsm_join"],
}


@pytest.mark.parametrize("modname, names",
                         sorted(PBSM_API.items()))
def test_pbsm_api_is_exported(modname, names):
    mod = importlib.import_module(modname)
    for name in names:
        assert name in mod.__all__, (
            f"{modname}.__all__ lost {name!r}")
        assert getattr(mod, name, None) is not None


def test_keyword_rename_shim_is_gone():
    # The params1/params2 -> left/right keyword shim of the cost-model
    # functions was removed with its last in-repo caller.
    with pytest.raises(ImportError):
        importlib.import_module("repro.costmodel._compat")
    from repro.costmodel import join_na_total
    assert not hasattr(join_na_total, "__wrapped__")


def test_one_columnar_copy_and_one_chooser():
    # The per-node column cache, the array('d') backend, the
    # plan-carried traversal and the shared_memory switch are gone; the
    # arena has one accessor on both of its owners.
    import inspect

    from repro import ColumnarMBRs, ExecutionConfig, JoinResult, TreeArena
    from repro.optimizer import SpatialJoinPlan, make_spatial_join
    from repro.rtree import ArenaTreeView, Node, RTreeBase
    for owner, name in ((Node, "columns"), (Node, "install_columns"),
                        (RTreeBase, "drop_arena"),
                        (ColumnarMBRs, "from_rects"),
                        (ColumnarMBRs, "backend"), (TreeArena, "backend")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    fields = list(ExecutionConfig.__dataclass_fields__)
    assert len(fields) == 8 and "shared_memory" not in fields
    assert ExecutionConfig().traversal == "level-batch"
    for fn in (make_spatial_join, SpatialJoinPlan.__init__):
        assert "traversal" not in inspect.signature(fn).parameters
    assert list(inspect.signature(RTreeBase.arena).parameters) \
        == list(inspect.signature(ArenaTreeView.arena).parameters) \
        == ["self"]
    assert {"engine", "fallback"} <= set(
        inspect.signature(JoinResult.__init__).parameters)


def test_one_predicate_kernel_pair():
    # pair_mask + confirm are the one batched form of a predicate; the
    # columnar pair kernels, the node-by-node block interface and the
    # engines' private confirms are gone.
    import repro.geometry
    import repro.join.partition
    import repro.storage
    from repro.join import JoinPredicate, LevelBatchState
    assert not {"overlap_pairs", "distance_candidate_pairs"} & set(
        repro.geometry.__all__)
    assert not hasattr(JoinPredicate, "block_pairs")
    assert callable(JoinPredicate.pair_mask) \
        and callable(JoinPredicate.confirm)
    for name in ("_mixed_level", "_confirm_distance", "_confirm_mixed"):
        assert not hasattr(LevelBatchState, name), name
    assert not hasattr(repro.join.partition, "_confirm")
    assert "buffer_from_spec" in repro.storage.__all__


def test_one_charging_replay():
    # A governed, a traced and a bare level-batch join walk one loop.
    from repro.join import LevelBatchState
    assert callable(LevelBatchState._replay)
    for name in ("_replay_fast", "_replay_exact", "_init_frame",
                 "_consume"):
        assert not hasattr(LevelBatchState, name), name


def test_shared_driver_and_engine_selection_are_exported():
    # What replaced the duplicate worker drivers and the two copies of
    # the engine choice.
    import repro.join
    import repro.join.fanout
    assert {"select_traversal", "traversal_state"} <= set(
        repro.join.__all__)
    assert {"WorkerCrashed", "fan_out"} <= set(repro.join.fanout.__all__)
    assert repro.join.WorkerCrashed is repro.join.fanout.WorkerCrashed


def test_docs_list_every_top_level_export():
    text = Path(__file__).resolve().parent.parent.joinpath(
        "docs", "api.md").read_text()
    match = re.search(r"## Top-level exports\n(.*?)(?:\n## |\Z)", text,
                      re.DOTALL)
    assert match, "docs/api.md lost its '## Top-level exports' section"
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`",
                                match.group(1)))
    documented -= {"repro"}          # prose mentions of the package
    actual = set(repro.__all__) - {"__version__"}
    missing = actual - documented
    stale = documented - actual - {"import", "__all__"}
    assert not missing, f"docs/api.md export table is missing {missing}"
    assert not stale, f"docs/api.md export table lists stale {stale}"


def test_numpy_is_a_dependency():
    # No backend switch, no scalar batch loop, no numpy-module argument:
    # NumPy is imported where it is used.
    import inspect

    import repro.estimator
    from repro.estimator import BatchResult
    from repro.geometry import TreeArena
    from repro.join import JoinPredicate
    with pytest.raises(ImportError):
        importlib.import_module("repro.estimator.backend")
    assert repro.estimator.__all__ == [
        "BatchResult", "DEFAULT_PARAM_CACHE", "Estimate",
        "EstimateBreakdown", "EstimateRequest", "Estimator", "ParamCache",
        "cached_params", "estimate_batch", "range_na_batch"]
    assert "backend" not in BatchResult.__dataclass_fields__
    assert "np" not in TreeArena.__slots__
    for kernel in (JoinPredicate.pair_mask, JoinPredicate.confirm):
        assert list(inspect.signature(kernel).parameters) \
            == ["self", "lo1", "hi1", "lo2", "hi2"]
