"""Tour of the §5 future-work implementations.

The paper's conclusion lists its open directions; this repository
implements them, and this script demonstrates each in a few lines:

1. plane-sweep pair matching (the BKS93 CPU optimisation);
2. simulated parallel spatial join with cost-guided task assignment;
3. k-nearest-neighbour search over the same R*-trees;
4. non-uniform join selectivity via the local-density grid;
5. the FK94 fractal-dimension platform next to TS96.

Run:  python examples/extensions_tour.py
"""

from repro import (ExecutionConfig, RStarTree, clustered_rectangles,
                   nearest_neighbors, parallel_spatial_join, spatial_join,
                   uniform_rectangles)
from repro.costmodel import (AnalyticalTreeParams, FractalTreeParams,
                             correlation_dimension, join_na_total,
                             join_selectivity_pairs,
                             join_selectivity_pairs_grid)

M = 16


def build(dataset):
    tree = RStarTree(2, M)
    for rect, oid in dataset:
        tree.insert(rect, oid)
    return tree


def main():
    d1 = uniform_rectangles(1500, 0.5, 2, seed=1)
    d2 = uniform_rectangles(1500, 0.5, 2, seed=2)
    t1, t2 = build(d1), build(d2)

    # 1. Plane sweep: same output, fraction of the comparisons.
    nested = spatial_join(t1, t2)
    swept = spatial_join(t1, t2, config=ExecutionConfig(
        pair_enumeration="plane-sweep"))
    assert sorted(nested.pairs) == sorted(swept.pairs)
    print("1. plane sweep: "
          f"{nested.comparisons} -> {swept.comparisons} comparisons "
          f"({swept.comparisons / nested.comparisons:.0%}), "
          f"identical {len(swept.pairs)} pairs")

    # 2. Parallel SJ: makespan shrinks with workers.
    sequential_da = nested.da_total
    print("2. parallel SJ (greedy LPT assignment):")
    for workers in (2, 4, 8):
        par = parallel_spatial_join(t1, t2, collect_pairs=False,
                                    config=ExecutionConfig(workers=workers))
        print(f"   {workers} workers: makespan DA {par.makespan_da} "
              f"(speedup {par.speedup_da(sequential_da):.2f}x)")

    # 3. kNN over the same index.
    hits = nearest_neighbors(t1, (0.5, 0.5), 5)
    print("3. kNN(0.5, 0.5):",
          ", ".join(f"oid {o} @ {d:.4f}" for o, d in hits))

    # 4. Non-uniform selectivity.
    c1 = clustered_rectangles(1500, 0.5, 2, clusters=4, spread=0.04,
                              seed=3)
    c2 = clustered_rectangles(1500, 0.5, 2, clusters=4, spread=0.04,
                              seed=4)
    measured = spatial_join(build(c1), build(c2),
                            collect_pairs=False).pair_count
    p1 = AnalyticalTreeParams.from_dataset(c1, M)
    p2 = AnalyticalTreeParams.from_dataset(c2, M)
    uniform_est = join_selectivity_pairs(p1, p2)
    grid_est = join_selectivity_pairs_grid(c1, c2, resolution=8)
    print(f"4. clustered selectivity: measured {measured}, "
          f"uniform formula {uniform_est:.0f}, "
          f"local-density grid {grid_est:.0f}")

    # 5. The FK94 platform on the same join formulas.
    d2_dim = correlation_dimension(d1)
    fk = FractalTreeParams.from_dataset(d1, M)
    ts = AnalyticalTreeParams.from_dataset(d1, M)
    print(f"5. platforms (self-join of R1, D2 = {d2_dim:.2f}): "
          f"TS96 NA = {join_na_total(ts, ts):.0f}, "
          f"FK94 NA = {join_na_total(fk, fk):.0f}, "
          f"measured = {spatial_join(t1, t1, collect_pairs=False).na_total}")


if __name__ == "__main__":
    main()
