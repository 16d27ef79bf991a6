"""The reproduction's claims, asserted at bench scale.

``repro.experiments.registry`` defines every experiment of DESIGN.md §3;
this module defines none.  It runs each id once at bench scale on one
shared tree cache, prints the table (so a run's stdout records the
reproduced figures) and asserts, over the typed records behind the rows,
the *shape* claims of the paper's Section 4 and of our ablations and
extensions — what must hold, not absolute numbers.  EXPERIMENTS.md
compares the numbers with the paper's, at bench and at paper scale.

At bench scale (2K-10K objects) the structural estimates of Eqs. 2-5
carry small-sample noise, so several asserted bands are wider than the
bands the paper states for 20K-80K; each is commented where it applies.
"""

import pytest

from repro.experiments import (BENCH_SCALE, TreeCache, error_summary,
                               experiment_table, relative_error)


@pytest.fixture(scope="module")
def tables(request):
    """``tables(id)``: the experiment at bench scale, run once per
    session on one shared :class:`TreeCache` and printed to the real
    stdout (past pytest's capture)."""
    capture = request.config.pluginmanager.getplugin("capturemanager")
    trees, done = TreeCache(), {}

    def table(exp_id):
        if exp_id not in done:
            done[exp_id] = experiment_table(exp_id, "bench", cache=trees)
            with capture.global_and_fixture_disabled():
                print(f"\n{done[exp_id]}")
        return done[exp_id]
    return table


# -- Figure 5: experimental vs analytical NA and DA ---------------------------

@pytest.mark.parametrize("exp_id", ["fig5a", "fig5b"])
def test_fig5_series(tables, exp_id):
    # Analytical NA/DA track the measured values (the paper reports
    # <= 10% NA at 20K-80K) and DA < NA everywhere: the path buffer
    # always helps.
    for ob in tables(exp_id).records:
        assert ob.da_measured < ob.na_measured
        assert ob.da_model < ob.na_model
        assert abs(ob.na_error) < 0.35


def test_fig5a_da_band_and_single_height(tables):
    obs = tables("fig5a").records
    for ob in obs:
        # Eq. 9 (DA(R1) ~ NA(R1)) overshoots hardest when R1 is much
        # smaller than R2 — consecutive outer entries then hit the same
        # few R1 nodes, making the paper's "rare exception" common.  At
        # the 1:5 extreme of this grid that pushes DA error past the
        # paper's 10-15% band; EXPERIMENTS.md quantifies it.
        assert abs(ob.da_error) < 0.60
    # All 1-d trees share one height -> near-linear growth of the series.
    assert len({ob.height1 for ob in obs}) == 1


def test_fig5a_diagonal_monotone(tables):
    # Cost grows along the N1 = N2 diagonal of the grid.
    diagonal = [ob for ob in tables("fig5a").records if ob.n1 == ob.n2]
    nas = [ob.na_measured for ob in sorted(diagonal, key=lambda o: o.n1)]
    assert nas == sorted(nas)


def test_fig5b_da_band_for_equal_heights(tables):
    obs = tables("fig5b").records
    for ob in obs:
        if ob.height1 == ob.height2:
            # DA accuracy claims are stated for equal heights; for
            # h1 < h2 combos the published Eq. 12 overshoots our
            # leaf-retaining path buffer (see EXPERIMENTS.md).
            assert abs(ob.da_error) < 0.35
    # Aggregate accuracy: mean |error| in the paper's reported band.
    assert error_summary(obs)["na_mean"] < 0.20


def test_fig5b_height_transition(tables):
    # The defining feature of Figure 5b/6b: trees transition from height
    # 3 to height 4 inside the grid, and the analytical Eq. 2 must agree
    # with the real R*-trees at every grid point.
    by_n = {ob.n1: (ob.height1, ob.model_height1)
            for ob in tables("fig5b").records}
    for n in BENCH_SCALE.cardinalities[:2]:
        assert by_n[n] == (3, 3), f"N={n}: {by_n[n]}"
    for n in BENCH_SCALE.cardinalities[2:]:
        assert by_n[n] == (4, 4), f"N={n}: {by_n[n]}"


def test_fig5b_mixed_height_combos_covered(tables):
    mixed = [ob for ob in tables("fig5b").records
             if ob.height1 != ob.height2]
    assert mixed, "grid must include different-height joins (Eqs. 11/12)"
    for ob in mixed:
        assert abs(ob.na_error) < 0.35


# -- Figure 6: equally populated trees (analytical, paper scale) --------------

@pytest.mark.parametrize("exp_id", ["fig6a", "fig6b"])
def test_fig6_series(tables, exp_id):
    points = tables(exp_id).records
    nas = [p.na for p in points]
    das = [p.da for p in points]
    assert nas == sorted(nas)
    assert das == sorted(das)
    for na, da in zip(nas, das):
        assert da < na


def test_fig6a_single_height_linearity(tables):
    points = tables("fig6a").records
    assert {p.height1 for p in points} == {3}
    # Near-linear: relative curvature of the NA series stays small.
    nas = [p.na for p in points]
    diffs = [b - a for a, b in zip(nas, nas[1:])]
    assert max(diffs) < 2.5 * min(diffs)


def test_fig6b_height_transition_bends_curve(tables):
    # "the height of the two-dimensional indexes of cardinality
    # 20K <= N <= 40K (60K <= N <= 80K) is equal to h = 3 (h=4)".
    by_n = {p.n1: p.height1 for p in tables("fig6b").records}
    heights = list(by_n.values())
    assert heights[0] == 3
    assert heights[-1] == 4
    assert sorted(heights) == heights  # single upward jump

    # The paper's observed transition: 20K trees are height 3 and
    # 60K-80K trees are height 4 (40K is borderline under Eq. 2).
    assert by_n[20000] == 3
    assert by_n[60000] == 4 and by_n[80000] == 4


# -- Figure 7: analytical DA sweeps and the role rule (paper scale) -----------
#
# The paper's conclusion: *for trees of equal height* the less populated
# index should play the query-tree role — "the choice of the less (more)
# populated index to play the role of the 'query' ('data') tree is the
# best choice" — but this "is not a general rule for trees of different
# height (all areas in Figure 7 follow the rule, except AREA 2 and AREA 3
# in Figure 7b)".  The 2-d sweep crosses the 3->4 height transition, so
# both the rule and its exceptions are checked.

def _da_grid(table):
    """``{(N_R1, N_R2): ModelPoint}`` over the whole sweep."""
    return {(p.n1, p.n2): p for p in table.records}


@pytest.mark.parametrize("exp_id", ["fig7a", "fig7b"])
def test_fig7_series(tables, exp_id):
    grid = _da_grid(tables(exp_id))
    sweep = sorted({n1 for n1, _n2 in grid})
    curves = [[grid[n, 20000].da for n in sweep],       # NR2=20K
              [grid[n, 80000].da for n in sweep],       # NR2=80K
              [grid[20000, n].da for n in sweep],       # NR1=20K
              [grid[80000, n].da for n in sweep]]       # NR1=80K
    # Curves grow with the swept cardinality within each height regime;
    # in 2-d the height transition legitimately breaks global
    # monotonicity (that break IS the paper's AREA structure).
    for series in curves:
        if exp_id == "fig7a":
            assert series == sorted(series)
        else:
            assert series[-1] > series[0]


@pytest.mark.parametrize("exp_id", ["fig7a", "fig7b"])
def test_fig7_role_rule_holds_for_equal_heights(tables, exp_id):
    grid = _da_grid(tables(exp_id))
    if exp_id == "fig7a":
        # n = 1: every tree in the sweep has height 3, so the
        # small-query rule holds across the whole grid (no exception
        # areas).
        assert {(p.height1, p.height2) for p in grid.values()} == {(3, 3)}
    for (n1, n2), p in grid.items():
        if n1 >= n2 and p.height1 == p.height2:
            # The larger set as data tree R1 is the good assignment.
            assert p.da <= grid[n2, n1].da + 1e-9


def test_fig7b_exceptions_exist_for_different_heights(tables):
    # "AREA 2 and AREA 3 in Figure 7b": some different-height combos
    # invert the rule — making the *taller/larger* tree the query tree
    # can win.  The paper-literal reading of Eq. 12 reproduces these
    # exceptions; the traversal-derived reading does not (EXPERIMENTS.md
    # discusses the two readings).
    grid = _da_grid(tables("fig7b"))
    mixed = [(small, big) for (small, big), p in grid.items()
             if small < big and p.height1 != p.height2]
    literal = [(small, big) for small, big in mixed
               if grid[small, big].da_literal < grid[big, small].da_literal]
    traversal = [(small, big) for small, big in mixed
                 if grid[small, big].da < grid[big, small].da]
    assert literal, "paper-literal Eq. 12 must show AREA 2/3 exceptions"
    assert not traversal


# -- §4.1: accuracy across density, uniform data ------------------------------
#
# The paper's stated bands (at 20K-80K scale): NA "never exceeding 10%";
# DA of R2 (query tree) "usually below 5%"; DA of R1 (data tree) "usually
# 10%-15% far from the experimental result" (Eq. 9 is knowingly
# approximate); the conclusions hold when varying density D as well as
# cardinality.

def _sec41_by_ndim(table):
    """The records are the 1-d density sweep, then the 2-d one."""
    half = len(table.records) // 2
    return {1: table.records[:half], 2: table.records[half:]}


def test_sec41_accuracy_over_density_grid(tables):
    for obs in _sec41_by_ndim(tables("sec41")).values():
        summary = error_summary(obs)
        # Paper bands, widened for the scaled-down structural noise.
        assert summary["na_mean"] < 0.20
        assert summary["da2_mean"] < 0.20
        assert summary["da_mean"] < 0.35


def test_sec41_da2_accuracy_beats_da1_in_1d(tables):
    # §4.1(ii)'s asymmetric accuracy claim, over the 1-d density grid.
    summary = error_summary(_sec41_by_ndim(tables("sec41"))[1])
    assert summary["da2_mean"] < summary["da1_mean"]


def test_sec41_na_underestimates_never_pathological(tables):
    for ob in tables("sec41").records:
        assert abs(ob.na_error) < 0.35, ob.label


# -- §4.2: non-uniform data, the local-density grid correction ----------------
#
# The paper: after transforming the global density into local densities
# "the relative error was always shown to be around 10%-20%"; for the real
# TIGER data sets "a relative error below 15% appeared for all
# combinations".  The uncorrected uniform model is reported next to the
# local-density grid model — the correction must close most of the gap.

def test_sec42_grid_correction_improves_na(tables):
    improved = sum(abs(grid.na_error) < abs(plain.na_error)
                   for plain, grid in tables("sec42").records)
    assert improved >= 3, "grid correction must help most skewed loads"


def test_sec42_grid_correction_error_band(tables):
    # Paper: ~10-20% after the transformation (we allow 30% at the
    # scaled-down size; EXPERIMENTS.md records the measured figures).
    errors = [abs(grid.na_error) for _plain, grid in tables("sec42").records]
    assert sum(errors) / len(errors) < 0.30


# -- TS96 platform: Eq. 1 against measured range queries ----------------------

def test_ts96_eq1_accuracy(tables):
    for r in tables("ts96").records:
        assert r.model == pytest.approx(r.measured, rel=0.30), \
            (r.ndim, r.side)


def test_ts96_cost_grows_with_window(tables):
    for ndim in (1, 2):
        series = [r.measured for r in tables("ts96").records
                  if r.ndim == ndim]
        assert series == sorted(series)


# -- Diagnostics: per-level error attribution ---------------------------------

def test_levels_totals_reconcile(tables):
    # The per-level counters add up to the totals Figure 5b reports for
    # the same join (the same two trees: one seed table, one cache).
    levels = tables("levels").records
    n = BENCH_SCALE.cardinalities[1]
    [ob] = [ob for ob in tables("fig5b").records if ob.n1 == ob.n2 == n]
    assert sum(r.na_measured for r in levels) == ob.na_measured
    assert sum(r.da_measured for r in levels) == ob.da_measured


def test_levels_leaf_level_dominates_cost(tables):
    levels = tables("levels").records
    leaf = sum(r.na_measured for r in levels if r.level == 1)
    upper = sum(r.na_measured for r in levels if r.level > 1)
    assert leaf > upper


def test_levels_leaf_estimate_tighter_than_upper_levels(tables):
    # The small-sample noise lives in the sparse upper levels; the leaf
    # estimate (many nodes, law of large numbers) is the tight one.
    levels = tables("levels").records
    leaf_errors = [abs(r.na_error) for r in levels
                   if r.level == 1 and r.na_measured]
    upper_errors = [abs(r.na_error) for r in levels
                    if r.level > 1 and r.na_measured]
    assert leaf_errors and upper_errors
    assert max(leaf_errors) <= max(upper_errors)


# -- Ablation A1: buffer policies ---------------------------------------------

def test_a1_buffer_policy_ordering(tables):
    # NA >= DA(path) >= DA(LRU k), DA dropping as the LRU pool grows:
    # "a more complex buffering scheme ... would surely achieve a lower
    # value for DA_total".
    none, path, *lru = tables("a1").records
    assert (none.policy, path.policy) == ("none (NA)", "path buffer")
    assert path.da < none.da
    lru.sort(key=lambda r: r.pool)
    for small, large in zip(lru, lru[1:]):
        assert large.da <= small.da
    assert lru[-1].da <= path.da


def test_a1_path_buffer_captures_most_locality(tables):
    # The paper's simple path buffer is a good approximation of small
    # realistic pools: a modest LRU must not beat it by an order of
    # magnitude.
    _none, path, *lru = tables("a1").records
    small_lru = min(lru, key=lambda r: r.pool)
    assert small_lru.pool == 8
    assert small_lru.da > 0.3 * path.da


# -- Ablation A2: index construction vs the c = 0.67 model --------------------

def _by_variant(table):
    return {r.variant: r for r in table.records}


def test_a2_all_variants_same_join_output(tables):
    counts = {r.observation.pairs for r in tables("a2").records}
    assert len(counts) == 1, "join output must not depend on the index"


def test_a2_rstar_beats_guttman(tables):
    # Guttman splits produce worse (more overlapping) nodes, so their
    # measured costs exceed the R* costs — the reason BKSS90/this paper
    # standardised on the R*-tree.
    na = {v: r.observation.na_measured
          for v, r in _by_variant(tables("a2")).items()}
    assert na["rstar"] < na["guttman-linear"]
    assert na["rstar"] <= na["guttman-quadratic"] * 1.1


def test_a2_overlap_explains_cost_ranking(tables):
    # More leaf overlap -> more qualifying node pairs -> more accesses:
    # the join NA ordering should broadly follow the leaf overlap
    # ordering across variants (the BKSS90 design argument).
    rows = _by_variant(tables("a2"))
    by_overlap = sorted(rows, key=lambda v: rows[v].overlap)
    by_na = sorted(rows, key=lambda v: rows[v].observation.na_measured)
    # The best variant agrees exactly; the worst trail clusters together
    # (leaf overlap is the dominant but not the only factor — Hilbert
    # packing also degrades upper-level structure).
    assert by_overlap[0] == by_na[0] == "rstar"
    assert set(by_overlap[-3:]) == set(by_na[-3:])


def test_a2_model_tracks_rstar_and_packed(tables):
    rows = _by_variant(tables("a2"))
    # The c = 0.67 model is calibrated for R*-quality nodes; STR's
    # tiling stays close, while Hilbert packing produces noticeably
    # more node overlap in 2-d (a classic finding) and drifts furthest.
    bands = {"rstar": 0.20, "str": 0.40, "hilbert": 0.60}
    for variant, band in bands.items():
        err = abs(rows[variant].observation.na_error)
        assert err < band, f"{variant}: {err:.1%}"
    assert (rows["str"].observation.na_measured
            < rows["hilbert"].observation.na_measured)


# -- Ablation A4: TS96 (density) vs FK94 (fractal dimension) ------------------
#
# Expected shape: comparable on uniform data (where D2 ≈ n and density is
# globally valid); on skewed data the single global density misleads TS96
# while D2 captures the clustering — unless the skew is *density*-driven
# rather than dimension-driven, in which case neither global summary
# suffices and the §4.2 grid correction is needed.

def test_a4_both_platforms_reasonable_on_uniform(tables):
    uniform = tables("a4").records[0]
    assert uniform.workload == "uniform"
    assert abs(relative_error(uniform.ts96, uniform.measured)) < 0.25
    assert abs(relative_error(uniform.fk94, uniform.measured)) < 0.60


def test_a4_fractal_dimension_detects_skew(tables):
    d2 = {r.workload: r.d2 for r in tables("a4").records}
    assert d2["uniform"] > d2["clustered"]
    assert d2["uniform"] > d2["diagonal"]


def test_a4_order_of_magnitude_everywhere(tables):
    # Global single-number summaries (one density, one D2) can each be
    # off by several x on skewed data — the box-counting scale window
    # strongly affects D2 for cluster data (its effective dimension is
    # genuinely scale-dependent), and a global density ignores hot
    # spots.  That shared weakness is exactly why §4.2 resorts to the
    # local-density grid.  Bound: within one order of magnitude.
    for r in tables("a4").records:
        assert 0.1 < r.ts96 / r.measured < 10.0, r.workload
        assert 0.1 < r.fk94 / r.measured < 10.0, r.workload


# -- Extension E1 (§5): join selectivity --------------------------------------
#
# The records are the observations of the upper triangle of the Figure 5b
# grid, then the (uniform formula, local-density grid) pair of one join of
# strongly clustered data.

def test_e1_selectivity_accuracy(tables):
    *uniform, _skew = tables("e1").records
    for ob in uniform:
        assert ob.pairs_model == pytest.approx(ob.pairs, rel=0.15), \
            (ob.n1, ob.n2)


def test_e1_selectivity_grows_with_cartesian_product(tables):
    # Output cardinality scales with N1 * N2 (equal products — e.g.
    # 2K x 8K vs 4K x 4K — are statistically tied, so compare only
    # strictly larger products).
    *uniform, _skew = tables("e1").records
    for a in uniform:
        for b in uniform:
            if a.n1 * a.n2 < b.n1 * b.n2:
                assert a.pairs < b.pairs


def test_e1_selectivity_skewed_data_needs_correction(tables):
    # The plain formula under-counts for clustered data (local densities
    # multiply) — quantifying that gap motivates the §5 future work on
    # non-uniform selectivity.
    plain, grid = tables("e1").records[-1]
    assert plain.label == "clustered"
    # The uniform formula must at least give the right order of
    # magnitude even under skew; the grid version (the non-uniform half
    # of the paper's §5 selectivity goal) must improve on it.
    assert 0.2 < plain.pairs_model / plain.pairs < 5.0
    assert abs(grid.pairs_error) < abs(plain.pairs_error)


# -- Extension E2 (§5): within-distance joins ---------------------------------
#
# The paper's §5: "a transformed query window Q has to be defined in order
# to retrieve a multidimensional (topological, directional or distance)
# operator OP, instead of the 'classic' overlap operator" [PT97].  The
# transformation must price within-distance joins correctly at every
# bound, and both pairs and NA grow monotonically with it.

def test_e2_distance_selectivity_accuracy(tables):
    for r in tables("e2").records:
        # The MBR-distance selectivity uses the rectangular (L-inf
        # flavoured) inflation of [PT97]; the measured predicate is
        # Euclidean, so corners make the model a mild overestimate.
        assert r.pairs_model == pytest.approx(r.pairs, rel=0.25)
        assert r.pairs_model >= r.pairs * 0.8


def test_e2_distance_na_accuracy(tables):
    for r in tables("e2").records:
        assert r.na_model == pytest.approx(r.na, rel=0.30)


def test_e2_monotone_in_distance(tables):
    readings = tables("e2").records
    pairs = [r.pairs for r in readings]
    nas = [r.na for r in readings]
    assert pairs == sorted(pairs)
    assert nas == sorted(nas)
    assert pairs[-1] > pairs[0]


# -- Extension E3 (§5): simulated parallel join -------------------------------

def test_e3_output_matches_sequential(tables):
    # The parallel output equals the sequential output for every worker
    # count and assignment strategy.
    for r in tables("e3").records:
        assert r.same_pairs, (r.strategy, r.workers)


def test_e3_speedup_monotone(tables):
    # Makespan shrinks monotonically with workers and yields real
    # speedup (under the default, greedy assignment).
    greedy = sorted((r for r in tables("e3").records
                     if r.strategy == "greedy"), key=lambda r: r.workers)
    for earlier, later in zip(greedy, greedy[1:]):
        assert later.makespan_da <= earlier.makespan_da
    assert greedy[-1].makespan_da < greedy[-1].sequential_da / 2


def test_e3_greedy_beats_or_ties_round_robin(tables):
    # Cost-model-guided greedy (LPT) assignment balances at least as
    # well as round-robin — the optimizer-relevant point: the paper's
    # formulas give the per-task cost estimates that make good
    # assignment possible.
    makespan = {(r.strategy, r.workers): r.makespan_da
                for r in tables("e3").records}
    for w in (2, 4, 8):
        assert makespan["greedy", w] <= makespan["round-robin", w] * 1.2


# -- Extension E4 (§5): higher-dimensional space ------------------------------
#
# The paper's future work: "R-tree implementations originally designed for
# n = 2, such as the R*-tree, are not efficient in high-dimensional space
# ... the behavior of the proposed cost model should also be studied for
# n >> 2".  The model stays *structurally* sound (DA <= NA, heights
# agree) while its accuracy degrades with dimensionality.

def test_e4_model_structurally_sound_in_high_dim(tables):
    obs = tables("e4").records
    for ob in obs:
        assert ob.da_measured <= ob.na_measured
        assert ob.da_model <= ob.na_model + 1e-9
        assert ob.na_model > 0
    # Order-of-magnitude agreement even at n = 4.
    for ob in obs:
        assert 0.4 < ob.na_model / ob.na_measured < 2.5


def test_e4_2d_remains_the_accurate_regime(tables):
    # Accuracy degrades with dimensionality — the quantified motivation
    # for the X-tree line of work [BKK96] the paper cites.
    errors = {ob.label: abs(ob.na_error) for ob in tables("e4").records}
    assert errors["n=2"] < 0.2
    # Degradation with dimensionality: n=2 at least as accurate as the
    # worst high-dimensional case.
    assert errors["n=2"] <= max(errors["n=3"], errors["n=4"]) + 1e-9
