"""Inputs depend on the seed, and on nothing else."""

from bench.inputs import mix
from bench.spans import Recorder
from bench.workloads.joins import JoinSkewXHeight
from bench.workloads.paper_point import PaperPoint
from bench.workloads.serve_mixed import MIX


def test_mix_is_a_fixed_function():
    # Frozen values: a change here changes every input of every workload.
    assert mix(1) == 5225608189600411232
    assert mix(1, "paper-point", 0, 1) == 7677172611835571906
    assert mix(1, "paper-point", 0, 1) != mix(1, "paper-point", 0, 2)
    assert mix(1, "a") != mix(2, "a")
    assert 0 <= mix(2 ** 70 + 3, "x") < 2 ** 63


def test_one_seed_gives_the_same_inputs_and_another_seed_others(tmp_path):
    def items(seed):
        workload = JoinSkewXHeight(seed, Recorder(False), tmp_path)
        return [[(rect.lo, rect.hi, oid) for rect, oid in side]
                for side in workload.items]
    first = items(11)
    assert [len(side) for side in first] == [60_000, 6_000]
    assert items(11) == first
    assert items(12) != first


def test_paper_point_cycles_four_seed_pairs(tmp_path):
    a = PaperPoint(5, Recorder(False), tmp_path)
    assert len(set(a.seeds)) == 4
    assert a.seeds == PaperPoint(5, Recorder(False), tmp_path).seeds
    assert a.seeds != PaperPoint(6, Recorder(False), tmp_path).seeds


def test_mix_names_ten_requests():
    assert len(MIX) == 10
    assert sorted(set(MIX)) == ["join", "keyed", "oversized", "replay"]
