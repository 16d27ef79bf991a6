"""Admission control: refusing a join before a single page is read."""

import pytest

import repro.exec.governor as governor_module
from repro.exec import (AdmissionRejected, Budget, BudgetExceeded,
                        ExecutionGovernor, evaluate_admission,
                        predict_join_cost, tree_params)
from repro.geometry import Rect
from repro.join import PartialJoinResult, SpatialJoin, spatial_join
from repro.obs import AccuracyLedger
from repro.reliability import FaultInjector, FaultyPager
from repro.rtree import Entry
from repro.storage import PathBuffer

from .conftest import GOLDEN_TREES, build_rstar, make_items


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(400, seed=41))
    t2 = build_rstar(make_items(400, seed=42))
    return t1, t2


class SpyBuffer(PathBuffer):
    """A buffer that counts how often the join touches it."""

    def __init__(self):
        super().__init__()
        self.touches = 0

    def access(self, tree, level, node_id):
        self.touches += 1
        return super().access(tree, level, node_id)


class TestEvaluateAdmission:
    def test_fits(self):
        decision = evaluate_admission(Budget(max_na=1000), 100.0, 50.0)
        assert decision.allowed
        assert decision.resource is None
        assert decision.predicted_na == 100.0

    def test_na_violation(self):
        decision = evaluate_admission(Budget(max_na=10), 100.0, 5.0)
        assert not decision.allowed
        assert decision.resource == "na"
        assert decision.limit == 10

    def test_da_violation(self):
        decision = evaluate_admission(Budget(max_da=10), 5.0, 100.0)
        assert not decision.allowed
        assert decision.resource == "da"

    def test_na_checked_before_da(self):
        decision = evaluate_admission(Budget(max_na=1, max_da=1),
                                      100.0, 100.0)
        assert decision.resource == "na"

    def test_exact_prediction_is_admitted(self):
        # Admission is strictly `predicted > limit`: a query predicted
        # to use exactly its budget may run.
        assert evaluate_admission(Budget(max_na=100), 100.0, None).allowed

    def test_unknown_prediction_is_admitted(self):
        assert evaluate_admission(Budget(max_na=1), None, None).allowed

    def test_as_dict_is_json_shaped(self):
        import json
        doc = evaluate_admission(Budget(max_na=10), 100.0, 5.0).as_dict()
        assert json.loads(json.dumps(doc)) == doc


class TestPredictJoinCost:
    def test_predictions_positive_and_ordered(self, trees):
        t1, t2 = trees
        predicted = predict_join_cost(t1, t2)
        assert predicted is not None
        na, da = predicted
        assert na > 0 and da > 0

    def test_prediction_tracks_measurement(self, trees):
        # The model should land within a factor of 2 of the measured NA
        # on this well-behaved uniform workload — enough for admission
        # decisions to be meaningful.
        t1, t2 = trees
        na_pred, _ = predict_join_cost(t1, t2)
        measured = SpatialJoin(t1, t2, PathBuffer()).run(
            collect_pairs=False)
        assert 0.5 < na_pred / measured.na_total < 2.0


#: ``predict_join_cost(tree, tree)`` on the golden trees of
#: ``test_rtree_golden.py`` as the per-call leaf walk priced them before
#: the (N, D) of a tree was remembered: ``(NA, DA)`` as ``float.hex()``.
GOLDEN_PRICES = {
    "uniform-2d-M24": ("0x1.c94fe4b9e7634p+8", "0x1.4404c950d9683p+8"),
    "uniform-1d-M84": ("0x1.a6a69318b5d72p+7", "0x1.3def65ee9b546p+7"),
    "uniform-2d-M50": ("0x1.4a04baa2fdae9p+9", "0x1.c437515f1e8d1p+8"),
    "uniform-3d-M6": ("0x1.ed6c0d76150a6p+12", "0x1.7b6b44199ebfcp+12"),
    "zipf-2d-M16": ("0x1.579c604d31f80p+10", "0x1.f87cb84bbcfcfp+9"),
    "tiger-M12": ("0x1.bf23d52a5c6a5p+9", "0x1.6d44e993fa96ep+9"),
    "lattice-M8": ("0x1.41d85499a3e38p+11", "0x1.c650b36f344bep+10"),
    "delete-then-lattice-M10": ("0x1.9cb3006ef7588p+10",
                                "0x1.2a030ee92e95cp+10"),
}


class TestOnePrice:
    """A tree's (N, D) is derived in one place and remembered with it."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """Two fresh trees and the sums over their leaf rectangles each
        has served (``governor._leaf_area``, over the tree's arena)."""
        pair = (build_rstar(make_items(300, seed=43)),
                build_rstar(make_items(300, seed=44)))
        walks = [0, 0]
        leaf_area = governor_module._leaf_area

        def spy(arena):
            for i, tree in enumerate(pair):
                walks[i] += tree.arena() is arena
            return leaf_area(arena)
        monkeypatch.setattr(governor_module, "_leaf_area", spy)
        return pair, walks

    def test_unchanged_trees_are_walked_once(self, walked):
        (t1, t2), walks = walked
        first = predict_join_cost(t1, t2)
        assert walks == [1, 1]
        assert predict_join_cost(t1, t2) == first
        # A partial result's remaining-cost estimate ...
        gov = ExecutionGovernor(Budget(max_na=20), partial=True,
                                admission="warn")
        partial = spatial_join(t1, t2, governor=gov)
        assert isinstance(partial, PartialJoinResult)
        assert partial.remaining_na_estimate == first[0] - partial.na_total
        # ... and a ledger record read the remembered numbers too.
        ledger = AccuracyLedger()
        spatial_join(t1, t2, ledger=ledger)
        assert ledger.records[-1].na_estimated == first[0]
        assert walks == [1, 1]

    def test_a_changed_tree_is_walked_again(self, walked):
        (t1, t2), walks = walked
        first = predict_join_cost(t1, t2)
        big = Rect((0.1, 0.1), (0.6, 0.6))
        t1.insert(big, 9_000)
        grown = predict_join_cost(t1, t2)
        assert walks == [2, 1] and grown[0] > first[0]
        assert t1.delete(big, 9_000)
        assert predict_join_cost(t1, t2) == first
        assert walks == [3, 1]
        # In-place node surgery, which no tree-level counter sees.
        leaf = next(node for node in t2.nodes() if node.is_leaf)
        leaf.entries.append(Entry(big, 9_001))
        assert tree_params(t2).density > tree_params(t1).density
        assert walks == [3, 2]

    def test_faulting_storage_is_remembered_through(self, walked):
        # A catalog read is not a ReadPage: pricing a tree whose pager
        # injects faults draws nothing, and its (N, D) is remembered.
        (t1, t2), walks = walked
        first = predict_join_cost(t1, t2)
        injector = FaultInjector(seed=1, transient_rate=1.0)
        t1.pager = FaultyPager(t1.pager, injector)
        assert predict_join_cost(t1, t2) == first
        assert predict_join_cost(t1, t2) == first
        assert walks == [1, 1]
        assert injector.counts.reads == 0

    @pytest.mark.parametrize("case", GOLDEN_PRICES)
    def test_golden_prices(self, case):
        tree = GOLDEN_TREES[case][0]()
        for _ in range(2):               # derived, then remembered
            na, da = predict_join_cost(tree, tree)
            assert (na.hex(), da.hex()) == GOLDEN_PRICES[case]


class TestAdmissionBeforeExecution:
    def test_reject_without_touching_a_page(self, trees):
        t1, t2 = trees
        buffer = SpyBuffer()
        gov = ExecutionGovernor(Budget(max_na=1), admission="reject")
        sj = SpatialJoin(t1, t2, buffer, governor=gov)
        with pytest.raises(AdmissionRejected) as err:
            sj.run()
        # The acceptance bar: rejection happens with ZERO metered
        # accesses — no buffer touch, no stats entry anywhere.
        assert buffer.touches == 0
        doc = err.value.as_dict()
        assert doc["error"] == "admission-rejected"
        assert doc["predicted"] is True
        assert doc["resource"] == "na"

    def test_admission_rejected_is_budget_exceeded(self):
        assert issubclass(AdmissionRejected, BudgetExceeded)

    def test_warn_mode_runs_and_records_decision(self, trees):
        t1, t2 = trees
        gov = ExecutionGovernor(Budget(max_na=10**9), admission="warn")
        result = SpatialJoin(t1, t2, PathBuffer(), governor=gov).run(
            collect_pairs=False)
        assert result.complete
        assert gov.last_admission is not None
        assert gov.last_admission.allowed

    def test_warn_mode_never_raises_at_admission(self, trees):
        # An impossible budget in "warn" mode records the refusal but
        # lets the run start; the runtime check stops it instead.
        t1, t2 = trees
        gov = ExecutionGovernor(Budget(max_na=1), admission="warn")
        with pytest.raises(BudgetExceeded) as err:
            SpatialJoin(t1, t2, PathBuffer(), governor=gov).run()
        assert not isinstance(err.value, AdmissionRejected)
        assert gov.last_admission is not None
        assert not gov.last_admission.allowed

    def test_off_mode_skips_prediction(self, trees):
        t1, t2 = trees
        gov = ExecutionGovernor(Budget(max_na=10**9), admission="off")
        decision = gov.admit(t1, t2)
        assert decision.allowed
        assert decision.predicted_na is None
