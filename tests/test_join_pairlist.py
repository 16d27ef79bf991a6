"""``JoinResult.pairs`` is a ``PairList``: a sequence of ``(oid1, oid2)``
tuples over two read-only ``int64`` columns.

The contract it keeps with the list of tuples it replaced, and the byte
identity of everything serialised from it: the digests below were
computed from the list-of-tuples implementation on the same trees, so a
checkpoint file, a served response body and a resume token must come
out byte for byte as they did before the pairs became columns.
"""

import hashlib
import json
import pickle
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import PairList as TopLevelPairList
from repro.exec import Budget, ExecutionConfig, ExecutionGovernor
from repro.join import (PairList, PartialJoinResult, SpatialJoin,
                        parallel_spatial_join, partition_spatial_join,
                        spatial_join)
from repro.serve import JoinService, encode_resume_token
from repro.serve.service import _pairs_text, wire_body
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(200, seed=71), max_entries=8)
    t2 = build_rstar(make_items(180, seed=72), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def result(trees):
    return spatial_join(*trees)


def test_exported_once():
    assert TopLevelPairList is PairList
    assert issubclass(PairList, Sequence)


def test_every_engine_returns_one(trees, result):
    stack = spatial_join(*trees, config=ExecutionConfig(traversal="stack"))
    pbsm = partition_spatial_join(*trees)
    parallel = parallel_spatial_join(
        *trees, config=ExecutionConfig(workers=2))
    assert result.engine == "level-batch" and stack.engine == "stack"
    for other in (result, stack, pbsm, parallel):
        assert type(other.pairs) is PairList
        assert len(other.pairs) == other.pair_count == 59
    assert result.pairs == stack.pairs
    assert set(pbsm.pairs) == set(parallel.pairs) == set(stack.pairs)


class TestContract:
    def test_equal_to_a_list_a_tuple_and_a_pairlist(self, result):
        as_list = list(result.pairs)
        assert as_list and all(type(p) is tuple for p in as_list)
        assert result.pairs == as_list
        assert as_list == result.pairs
        assert result.pairs == tuple(as_list)
        assert result.pairs == PairList.of(as_list)
        assert not result.pairs != as_list

    def test_unequal_to_a_reordered_list(self, result):
        as_list = list(result.pairs)
        assert result.pairs != as_list[::-1]
        assert result.pairs != as_list[1:] + as_list[:1]
        assert result.pairs != as_list[:-1]
        assert result.pairs != PairList.of(as_list[::-1])
        assert result.pairs != [list(p) for p in as_list]

    def test_elements_are_python_ints(self, result):
        pairs = result.pairs
        for pair in (pairs[0], next(iter(pairs)), sorted(pairs)[-1]):
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(oid) is int for oid in pair)
        assert json.loads(json.dumps(sorted(pairs))) == \
            [list(p) for p in sorted(pairs)]
        assert pairs.tolist() == [list(p) for p in pairs]
        assert all(type(oid) is int for p in pairs.tolist() for oid in p)
        assert json.dumps(pairs.tolist()) == \
            json.dumps([list(p) for p in pairs])

    def test_negative_index_slice_len_and_bool(self, result):
        pairs, as_list = result.pairs, list(result.pairs)
        assert pairs[-1] == as_list[-1] and pairs[-len(pairs)] == as_list[0]
        assert pairs[np.int64(2)] == as_list[2]
        with pytest.raises(IndexError):
            pairs[len(pairs)]
        for window in (slice(2, 9), slice(None, None, -3), slice(5, 5)):
            part = pairs[window]
            assert type(part) is PairList and part == as_list[window]
        assert len(pairs) == len(as_list) and bool(pairs)
        assert not PairList() and len(PairList()) == 0
        assert PairList() == [] and PairList() == ()
        assert pairs[1:] + pairs[:1] == as_list[1:] + as_list[:1]
        assert pairs + [(7, 8)] == as_list + [(7, 8)]

    def test_read_only_and_unhashable(self, result):
        pairs = result.pairs
        for column in (pairs.refs1, pairs.refs2, pairs[1:].refs1):
            assert column.dtype == np.int64 and not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = -1
        assert PairList.__hash__ is None
        with pytest.raises(TypeError):
            hash(pairs)
        with pytest.raises(TypeError):
            pairs[0] = (1, 2)

    def test_pickle_round_trip(self, result):
        back = pickle.loads(pickle.dumps(result.pairs))
        assert type(back) is PairList and back == result.pairs
        assert not back.refs1.flags.writeable

    def test_malformed_input_is_refused(self):
        with pytest.raises(ValueError):
            PairList.of([(1, 2, 3)])
        with pytest.raises(ValueError):
            PairList([1, 2], [3])

    @pytest.mark.parametrize("run", [
        lambda t1, t2: spatial_join(t1, t2, collect_pairs=False),
        lambda t1, t2: spatial_join(
            t1, t2, collect_pairs=False,
            config=ExecutionConfig(traversal="stack")),
        lambda t1, t2: partition_spatial_join(t1, t2, collect_pairs=False),
    ], ids=["level-batch", "stack", "pbsm"])
    def test_collect_pairs_false(self, trees, run):
        counted = run(*trees)
        assert type(counted.pairs) is PairList and counted.pairs == []
        assert counted.pair_count == 59
        assert repr(counted).startswith(f"{type(counted).__name__}"
                                        f"(pairs=59,")


class TestByteIdentity:
    """Digests computed from the list-of-tuples implementation."""

    CHECKPOINT = ("5ce8ae3fac614166bf7903260a4a5d48"
                  "db104640b2d73bfd21f944b41c67cf80")
    TOKEN = ("a1feec7653ff59ed02deeff511692bb9"
             "b458dfbadaf03ee9c410e49c4118e34e")
    SERVED = {
        None: ("82ff84f8f47aaec9b20472f1a8641f28"
               "8c938181aee186508d57cf9dfb2dc621"),
        "pbsm": ("32a3b5369adfcce216e7ff61694f2d4b"
                 "b8275f99f26d829f15d08a68936af8e2"),
    }

    @pytest.fixture(scope="class")
    def partial(self, trees):
        gov = ExecutionGovernor(Budget(max_na=60), partial=True)
        cut = SpatialJoin(*trees, PathBuffer(), governor=gov).run()
        assert isinstance(cut, PartialJoinResult)
        assert cut.engine == "level-batch" and cut.pair_count == 22
        return cut.checkpoint

    def test_partial_checkpoint_file(self, partial, tmp_path):
        path = tmp_path / "join.ckpt"
        partial.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.CHECKPOINT

    def test_resume_token(self, partial):
        token = encode_resume_token(partial)
        assert hashlib.sha256(token.encode()).hexdigest() == self.TOKEN

    @pytest.mark.parametrize("strategy", [None, "pbsm"])
    def test_served_response_body(self, trees, strategy):
        # A constant clock pins "elapsed"; the daemon writes the
        # document as json.dumps(payload) + "\n".  Each body comes from
        # a fresh service, so both answers are join "j1".
        def service():
            served = JoinService(clock=lambda: 0.0)
            served.register_tree("a", trees[0])
            served.register_tree("b", trees[1])
            return served

        request = {"tree1": "a", "tree2": "b", "collect_pairs": True}
        if strategy is not None:
            request["strategy"] = strategy
        body = (json.dumps(service().execute(request)) + "\n").encode()
        assert hashlib.sha256(body).hexdigest() == self.SERVED[strategy]
        # The transport's body, written from the pair columns.
        served = service()
        body = served.run(served.admit(request)).body
        assert hashlib.sha256(body).hexdigest() == self.SERVED[strategy]


_INT64 = np.iinfo(np.int64)
_OIDS = st.sampled_from([int(_INT64.min), int(_INT64.max), -1, 0]) \
    | st.integers(int(_INT64.min), int(_INT64.max)) \
    | st.integers(-20, 20_000)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_OIDS, _OIDS), max_size=40))
@example([])
@example([(0, 0)])
@example([(int(_INT64.min), int(_INT64.max)), (-1, 0)])
def test_pairs_text_is_the_json_of_the_pairs(items):
    pairs = PairList.of(items)
    lists = pairs.tolist()
    text = _pairs_text(pairs)
    assert text == json.dumps(lists, separators=(",", ":"))
    # The wire form: json.dumps' default separators.
    assert wire_body({"n": len(lists), "pairs": text, "x": None}) \
        == (json.dumps({"n": len(lists), "pairs": lists, "x": None})
            + "\n").encode()
