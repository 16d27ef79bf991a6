"""Persistence of datasets and trees."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Estimator, PathBuffer
from repro.datasets import SpatialDataset, uniform_rectangles
from repro.exec import Budget, ExecutionConfig, ExecutionGovernor
from repro.geometry import Rect, TreeArena
from repro.cli import main
from repro.io import (_canonical, _doc_crc, _doc_crc_of, _node_crc,
                      _node_crc_of, load_dataset, load_tree, save_dataset,
                      save_tree)
from repro.join import spatial_join
from repro.reliability import MalformedFileError
from repro.rtree import (GuttmanRTree, RStarTree, check, hilbert_pack,
                         str_pack)
from repro.rtree.node import Node
from repro.serve import JoinService

from .conftest import (LATTICE, build_rstar, items, make_items, rects,
                       tree_digest)


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = uniform_rectangles(200, 0.4, 2, seed=1)
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.items == ds.items
        assert loaded.name == ds.name

    def test_one_dimensional(self, tmp_path):
        ds = uniform_rectangles(50, 0.2, 1, seed=2)
        path = tmp_path / "ds1.txt"
        save_dataset(ds, path)
        assert load_dataset(path).items == ds.items

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_dataset(SpatialDataset([], name="nothing"), path)
        loaded = load_dataset(path)
        assert len(loaded) == 0
        assert loaded.name == "nothing"

    def test_explicit_name_overrides(self, tmp_path):
        ds = uniform_rectangles(5, 0.1, 2, seed=3)
        path = tmp_path / "named.txt"
        save_dataset(ds, path)
        assert load_dataset(path, name="other").name == "other"

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text("# comment\n"
                        "7 0.1 0.2 0.3 0.4\n"
                        "\n"
                        "9 0.0 0.0 1.0 1.0\n")
        loaded = load_dataset(path)
        assert loaded.items == [
            (Rect((0.1, 0.2), (0.3, 0.4)), 7),
            (Rect((0.0, 0.0), (1.0, 1.0)), 9),
        ]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0.1 0.2 0.3\n")   # odd coordinate count
        with pytest.raises(ValueError, match="bad.txt:1"):
            load_dataset(path)


class TestTreeRoundTrip:
    def test_structure_preserved(self, tmp_path):
        tree = build_rstar(make_items(300, seed=4), max_entries=8)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        loaded = load_tree(path)
        check(loaded)
        assert loaded.height == tree.height
        assert loaded.size == tree.size
        assert loaded.root_id == tree.root_id
        assert len(loaded.pager) == len(tree.pager)

    def test_queries_identical(self, tmp_path):
        items = make_items(250, seed=5)
        tree = build_rstar(items)
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        loaded = load_tree(path)
        window = Rect((0.2, 0.1), (0.6, 0.5))
        assert sorted(loaded.range_query(window)) == \
            sorted(tree.range_query(window))

    def test_join_counts_identical(self, tmp_path):
        t1 = build_rstar(make_items(200, seed=6))
        t2 = build_rstar(make_items(200, seed=7))
        save_tree(t1, tmp_path / "t1.json")
        loaded = load_tree(tmp_path / "t1.json")
        original = spatial_join(t1, t2, collect_pairs=False)
        reloaded = spatial_join(loaded, t2, collect_pairs=False)
        assert (original.na_total, original.da_total) == \
            (reloaded.na_total, reloaded.da_total)

    def test_loaded_tree_supports_updates(self, tmp_path):
        tree = build_rstar(make_items(100, seed=8))
        save_tree(tree, tmp_path / "t.json")
        loaded = load_tree(tmp_path / "t.json")
        extra = make_items(50, seed=9)
        for rect, oid in extra:
            loaded.insert(rect, oid + 10_000)
        check(loaded)
        assert len(loaded) == 150

    def test_other_variants_round_trip(self, tmp_path):
        items = make_items(150, seed=10)
        guttman = GuttmanRTree(2, 8)
        for rect, oid in items:
            guttman.insert(rect, oid)
        packed = str_pack(items, 2, 8)
        for i, tree in enumerate((guttman, packed)):
            path = tmp_path / f"v{i}.json"
            save_tree(tree, path)
            loaded = load_tree(path)
            check(loaded)
            assert sorted(loaded.range_query(Rect((0, 0), (1, 1)))) == \
                sorted(o for _r, o in items)

    @pytest.mark.parametrize("build", [
        lambda items: _inserted(RStarTree(2, 10, min_fill=0.5), items),
        lambda items: str_pack(items, 2, 10, min_fill=0.5),
    ], ids=["inserted", "str-packed"])
    def test_min_entries_survives_and_later_inserts_match(self, tmp_path,
                                                          build):
        # min_fill=0.5 makes min_entries 5 where the default makes 4;
        # the splits and condenses of later updates depend on it.
        tree = build(make_items(300, seed=11))
        save_tree(tree, tmp_path / "t.json")
        loaded = load_tree(tmp_path / "t.json")
        assert loaded.min_entries == tree.min_entries == 5
        more = [(rect, oid + 1_000) for rect, oid in make_items(100, seed=12)]
        for copy in (tree, loaded):
            _inserted(copy, more)
            for rect, oid in more[::3]:
                assert copy.delete(rect, oid)
        assert tree_digest(loaded) == tree_digest(tree)

    @pytest.mark.parametrize("value", [0, 5, "2", 2.0, True, None])
    def test_min_entries_out_of_range_is_named(self, tmp_path, value):
        save_tree(build_rstar(make_items(50, seed=13)), tmp_path / "t.json")
        path = _as_v1(tmp_path / "t.json", min_entries=value)   # M = 8
        with pytest.raises(MalformedFileError) as excinfo:
            load_tree(path)
        assert excinfo.value.field == "min_entries"

    @pytest.mark.parametrize("field, value", [
        ("ndim", "x"), ("ndim", 2.5), ("ndim", 2.0), ("ndim", True),
        ("ndim", 0), ("ndim", None), ("max_entries", 1),
        ("max_entries", 8.0), ("max_entries", False), ("max_entries", "8")])
    def test_bad_shape_field_is_named(self, tmp_path, capsys, field, value):
        """A checksummed document whose ``ndim`` or ``max_entries`` is
        not an integer in range is malformed, and ``repro query`` on it
        exits 2."""
        save_tree(build_rstar(make_items(50, seed=13)), tmp_path / "t.json")
        path = tmp_path / "t.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        doc["checksum"] = _doc_crc(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as excinfo:
            load_tree(path)
        assert excinfo.value.field == field
        assert main(["query", str(path), "--window", "0", "0", "1",
                     "1"]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_v1_file_without_min_entries_keeps_the_default(self, tmp_path):
        tree = _inserted(RStarTree(2, 10, min_fill=0.5), make_items(60))
        save_tree(tree, tmp_path / "t.json")
        path = _as_v1(tmp_path / "t.json", min_entries=...)
        assert load_tree(path).min_entries == RStarTree(2, 10).min_entries

    def test_empty_tree(self, tmp_path):
        tree = RStarTree(2, 8)
        save_tree(tree, tmp_path / "empty.json")
        loaded = load_tree(tmp_path / "empty.json")
        assert len(loaded) == 0
        assert loaded.range_query(Rect((0, 0), (1, 1))) == []

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 999}')
        with pytest.raises(ValueError, match="unsupported tree format"):
            load_tree(path)


def _inserted(tree, items):
    for rect, oid in items:
        tree.insert(rect, oid)
    return tree


def _as_v1(path, min_entries):
    """Rewrite a saved tree as an un-checksummed format-v1 file with
    ``min_entries`` set to a value (``...``: the field removed)."""
    doc = json.loads(path.read_text())
    doc["format"] = 1
    del doc["checksum"]
    for payload in doc["nodes"].values():
        del payload["crc"]
    if min_entries is ...:
        del doc["min_entries"]
    else:
        doc["min_entries"] = min_entries
    path.write_text(json.dumps(doc))
    return path


# -- one canonical encoding; a loaded tree is its arena ------------------------

#: Lattice coordinates, signed zeros, the float range's ends and
#: integral values (which the int rewrite below writes as JSON ints).
COORDS = st.one_of(LATTICE, st.sampled_from(
    [-0.0, 0.0, -1e308, 1e308, -3.0, 2.0, 7.0]))

BUILDS = {
    "rstar": lambda items: build_rstar(items, max_entries=4),
    "str": lambda items: str_pack(items, 2, 4),
    "hilbert": lambda items: hilbert_pack(items, 2, 4),
}


def _arena_bytes(arena) -> tuple:
    return (list(arena.index.items()), arena._coords.tobytes(),
            arena._refs.tobytes())


def _assert_shared_encoding(doc: dict) -> None:
    """The CRCs read from one encoding of each node's entries are the
    reference definitions'."""
    encoded = {key: _canonical(payload["entries"])
               for key, payload in doc["nodes"].items()}
    assert _doc_crc_of(doc, encoded) == _doc_crc(doc)
    for key, payload in doc["nodes"].items():
        assert _node_crc_of(payload["level"], encoded[key]) \
            == _node_crc(payload["level"], payload["entries"])


def _with_int_coordinates_and_extra_keys(doc: dict) -> dict:
    """The document with every integral coordinate (but ``-0.0``)
    written as a JSON int, a payload key and a document key no tree
    reads, and its checksums recomputed by definition."""
    def as_int(x):
        return int(x) if x.is_integer() and abs(x) < 2 ** 53 \
            and math.copysign(1.0, x) > 0 else x

    for i, payload in enumerate(doc["nodes"].values()):
        payload["entries"] = [[[as_int(x) for x in lo],
                               [as_int(x) for x in hi], ref]
                              for lo, hi, ref in payload["entries"]]
        if i % 2:
            payload["note"] = ["kept", i]
        payload["crc"] = _node_crc(payload["level"], payload["entries"])
    doc["comment"] = {"written": "by hand"}
    doc["checksum"] = _doc_crc(doc)
    return doc


class TestLoadedTreeIsItsArena:
    # The packers' centres of corners near +-1e308 overflow to +-inf,
    # as ``Rect.center`` does.
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("build", list(BUILDS))
    @given(data=items(max_size=60, rect=rects(coord=COORDS)))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip(self, tmp_path, build, data):
        tree = BUILDS[build](data)
        path, again = tmp_path / "t.json", tmp_path / "again.json"
        save_tree(tree, path)
        loaded = load_tree(path)
        installed = loaded.arena()
        assert _arena_bytes(installed) == _arena_bytes(tree.arena())
        assert _arena_bytes(installed) == _arena_bytes(
            TreeArena.build(loaded.nodes(), loaded.ndim))
        assert loaded.arena() is installed
        assert tree_digest(loaded) == tree_digest(tree)
        save_tree(load_tree(path), again)
        assert again.read_bytes() == path.read_bytes()
        # The file is json.dumps of its own document, byte for byte.
        doc = json.loads(path.read_text())
        assert json.dumps(doc) == path.read_text()
        _assert_shared_encoding(doc)

        edited = _with_int_coordinates_and_extra_keys(doc)
        _assert_shared_encoding(edited)
        path.write_text(json.dumps(edited))
        assert _arena_bytes(load_tree(path).arena()) \
            == _arena_bytes(installed)
        assert load_tree(path, strict=False).corruption_report.clean

    def test_a_strict_load_builds_no_node(self, tmp_path, monkeypatch,
                                          built):
        save_tree(build_rstar(make_items(300, seed=3)), tmp_path / "t.json")
        made = []
        init = Node.__init__

        def spy(self, *args, **kwargs):
            made.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", spy)
        tree = load_tree(tmp_path / "t.json")
        tree.arena()
        assert made == [] and built == []
        tree.root()
        assert made == built == [tree.root_id]

    def test_pricing_builds_no_node(self, tmp_path, built):
        packed = [str_pack(make_items(n, seed=n), 2, 16) for n in (900, 700)]
        Estimator.from_trees(*packed)
        assert built == []
        save_tree(packed[0], tmp_path / "t.json")
        assert JoinService().register_tree_file(
            "t", str(tmp_path / "t.json"))["priceable"]
        assert built == []

    @pytest.mark.parametrize("governed", [False, True])
    def test_a_level_batch_join_on_loaded_trees_builds_only_the_roots(
            self, tmp_path, governed, built):
        trees = []
        for n, seed in ((4_000, 1), (3_800, 2)):
            path = tmp_path / f"{seed}.json"
            save_tree(str_pack(uniform_rectangles(n, 0.5, 2, seed=seed)
                               .items, 2, 24), path)
            trees.append(load_tree(path))
        governor = ExecutionGovernor(Budget(deadline=3600.0, max_na=10 ** 9,
                                            max_da=10 ** 9)) \
            if governed else None
        result = spatial_join(*trees, buffer=PathBuffer(), governor=governor,
                              config=ExecutionConfig(traversal="level-batch"))
        assert result.engine == "level-batch" and result.na_total > 0
        assert sorted(built) == sorted(tree.root_id for tree in trees)


class TestDatasetErrorContext:
    def test_inverted_rect_reports_line(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("0 0.1 0.1 0.05 0.2\n")   # hi < lo in dim 0
        with pytest.raises(ValueError, match="inv.txt:1"):
            load_dataset(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0.1 0.1 0.2 0.2\n"
                        "1 0.1 oops 0.2 0.2\n")
        with pytest.raises(ValueError, match="nan.txt:2"):
            load_dataset(path)

    def test_nan_coordinate_rejected_with_line(self, tmp_path):
        path = tmp_path / "nanval.txt"
        path.write_text("0 nan 0.1 0.2 0.2\n")
        with pytest.raises(ValueError, match="nanval.txt:1"):
            load_dataset(path)
