"""Persistence of datasets and trees."""

import json

import pytest

from repro.datasets import SpatialDataset, uniform_rectangles
from repro.geometry import Rect
from repro.io import load_dataset, load_tree, save_dataset, save_tree
from repro.join import spatial_join
from repro.reliability import MalformedFileError
from repro.rtree import GuttmanRTree, RStarTree, check, str_pack

from .conftest import build_rstar, make_items, tree_digest


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
