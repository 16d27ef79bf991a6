"""Checksummed tree persistence: v2 format, corruption, degraded loads."""

import json
import random

import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.io import (TREE_FORMAT_VERSION, load_dataset, load_tree,
                      save_dataset, save_tree, verify_tree_file)
from repro.join import spatial_join
from repro.reliability import (CorruptPageError, MalformedFileError,
                               ReproError)
from repro.rtree import validate

from .conftest import build_rstar, make_items, reference_insert
from .test_rtree_golden import tree_digest


def saved(tmp_path, n=250, seed=5, name="t.json"):
    tree = build_rstar(make_items(n, seed=seed), max_entries=8)
    path = tmp_path / name
    save_tree(tree, path)
    return tree, path


def non_root_leaf_id(doc):
    """Pick a deterministic non-root leaf page from a saved document."""
    leaves = sorted(int(p) for p, payload in doc["nodes"].items()
                    if payload["level"] == 1 and int(p) != doc["root_id"])
    assert leaves, "test tree must have height >= 2"
    return leaves[0]


def flip_byte_in_node(path, page_id):
    """Flip one coordinate digit inside one node's entry payload."""
    text = path.read_text()
    anchor = text.index(f'"{page_id}":')
    entries_at = text.index('"entries"', anchor)
    for i in range(entries_at, len(text)):
        ch = text[i]
        if ch.isdigit() and text[i - 1] == ".":   # fraction digit: safe
            flipped = "1" if ch != "1" else "2"
            path.write_text(text[:i] + flipped + text[i + 1:])
            return
    raise AssertionError("no digit found to flip")


class TestFormatV2:
    def test_documents_are_checksummed(self, tmp_path):
        _tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["format"] == TREE_FORMAT_VERSION == 2
        assert isinstance(doc["checksum"], int)
        assert all(isinstance(p["crc"], int)
                   for p in doc["nodes"].values())

    def test_round_trip_unchanged(self, tmp_path):
        tree, path = saved(tmp_path)
        loaded = load_tree(path)
        assert loaded.height == tree.height
        assert loaded.size == tree.size
        window = Rect((0.1, 0.1), (0.7, 0.6))
        assert sorted(loaded.range_query(window)) == \
            sorted(tree.range_query(window))

    def test_lenient_load_of_clean_file_reports_clean(self, tmp_path):
        _tree, path = saved(tmp_path)
        loaded = load_tree(path, strict=False)
        assert loaded.corruption_report.clean
        assert loaded.corruption_report.checksummed
        assert "clean" in loaded.corruption_report.summary()


class TestBitFlipDetection:
    def test_strict_load_raises_corrupt_page_error(self, tmp_path):
        _tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        victim = non_root_leaf_id(doc)
        flip_byte_in_node(path, victim)
        with pytest.raises(CorruptPageError):
            load_tree(path)

    def test_lenient_load_quarantines_and_stays_queryable(self, tmp_path):
        tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        victim = non_root_leaf_id(doc)
        victim_objects = len(doc["nodes"][str(victim)]["entries"])
        flip_byte_in_node(path, victim)

        degraded = load_tree(path, strict=False)
        report = degraded.corruption_report
        assert not report.clean
        assert victim in report.corrupt_pages
        assert report.dropped_entries == 1          # one parent entry
        assert report.lost_objects == victim_objects
        assert degraded.size == tree.size - victim_objects

        # Still queryable: answers are a subset of the intact tree's.
        window = Rect((0.0, 0.0), (1.0, 1.0))
        got = set(degraded.range_query(window))
        expected = set(tree.range_query(window))
        assert got <= expected
        assert len(got) == len(expected) - victim_objects

    def test_degraded_tree_still_joins(self, tmp_path):
        tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        flip_byte_in_node(path, non_root_leaf_id(doc))
        degraded = load_tree(path, strict=False)
        other = build_rstar(make_items(100, seed=77), max_entries=8)
        baseline = spatial_join(tree, other)
        result = spatial_join(degraded, other)
        assert set(result.pairs) <= set(baseline.pairs)

    def test_inserts_into_a_degraded_tree_follow_the_reference(
            self, tmp_path):
        # The lenient load re-bounds the ancestors of the node that lost
        # an entry, so an insert's union growth meets tight MBRs and
        # builds what full re-bounding of the path builds.
        _tree, path = saved(tmp_path)
        flip_byte_in_node(path, non_root_leaf_id(json.loads(
            path.read_text())))
        more = [(rect, oid + 1_000) for rect, oid in make_items(100, seed=6)]
        digests = []
        for scalar in (True, False):
            degraded = load_tree(path, strict=False)
            assert [p for p in validate(degraded) if "stale" in p] == []
            with reference_insert(scalar):
                for rect, oid in more:
                    degraded.insert(rect, oid)
                    digests.append(tree_digest(degraded))
        assert digests[:len(more)] == digests[len(more):]

    def test_header_tamper_fails_document_checksum(self, tmp_path):
        _tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        doc["size"] += 1                 # checksum left stale on purpose
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptPageError, match="document checksum"):
            load_tree(path)
        report = load_tree(path, strict=False).corruption_report
        assert not report.document_checksum_ok
        assert not report.clean

    def test_corrupt_root_unrecoverable_even_leniently(self, tmp_path):
        _tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        flip_byte_in_node(path, doc["root_id"])
        with pytest.raises(CorruptPageError, match="root"):
            load_tree(path, strict=False)

    def test_verify_tree_file(self, tmp_path):
        _tree, path = saved(tmp_path)
        assert verify_tree_file(path).clean
        doc = json.loads(path.read_text())
        flip_byte_in_node(path, non_root_leaf_id(doc))
        assert not verify_tree_file(path).clean


class TestV1Compatibility:
    def downgrade(self, path):
        """Rewrite a v2 file as the un-checksummed v1 format."""
        doc = json.loads(path.read_text())
        doc["format"] = 1
        del doc["checksum"]
        for payload in doc["nodes"].values():
            del payload["crc"]
        path.write_text(json.dumps(doc))

    def test_v1_still_loads(self, tmp_path):
        tree, path = saved(tmp_path)
        self.downgrade(path)
        loaded = load_tree(path)
        assert loaded.size == tree.size
        window = Rect((0.2, 0.2), (0.8, 0.8))
        assert sorted(loaded.range_query(window)) == \
            sorted(tree.range_query(window))

    def test_v1_lenient_reports_unchecksummed(self, tmp_path):
        _tree, path = saved(tmp_path)
        self.downgrade(path)
        report = load_tree(path, strict=False).corruption_report
        assert report.clean
        assert not report.checksummed
        assert "no checksums" in report.summary()


class TestMalformedDocuments:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": 2, "ndim": 2, "nod')
        with pytest.raises(MalformedFileError, match="invalid JSON"):
            load_tree(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(MalformedFileError, match="JSON object"):
            load_tree(path)

    @pytest.mark.parametrize("missing", ["root_id", "ndim", "height",
                                         "size", "nodes", "max_entries"])
    def test_missing_field_named(self, tmp_path, missing):
        _tree, path = saved(tmp_path)
        doc = json.loads(path.read_text())
        del doc[missing]
        doc["checksum"] = 0  # irrelevant: shape is checked first
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as excinfo:
            load_tree(path)
        assert missing in str(excinfo.value)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.field == missing

    def test_malformed_errors_are_repro_and_value_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 999}')
        with pytest.raises(ReproError):
            load_tree(path)
        with pytest.raises(ValueError, match="unsupported tree format"):
            load_tree(path)


class TestDatasetGeometryValidation:
    def test_inverted_rectangle_is_malformed(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("0 0.5 0.5 0.1 0.9\n")
        with pytest.raises(MalformedFileError, match="inv.txt:1"):
            load_dataset(path)

    def test_dimensionality_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("0 0.1 0.1 0.2 0.2\n"       # 2-d
                        "1 0.1 0.2\n"                # 1-d
                        "2 0.3 0.3 0.4 0.4\n")
        with pytest.raises(MalformedFileError,
                           match="mix.txt:2") as excinfo:
            load_dataset(path)
        assert "1-dimensional" in str(excinfo.value)
        assert "2-dimensional" in str(excinfo.value)


class TestRandomizedRoundTrips:
    @pytest.mark.parametrize("seed", range(5))
    def test_dataset_round_trip(self, tmp_path, seed):
        rng = random.Random(seed)
        ndim = rng.choice((1, 2, 3))
        items = []
        for oid in range(rng.randint(1, 120)):
            lo = [rng.uniform(0, 0.9) for _ in range(ndim)]
            hi = [a + rng.uniform(0, 0.1) for a in lo]
            items.append((Rect(lo, hi), oid))
        ds = SpatialDataset(items, name=f"rand-{seed}")
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.items == ds.items
        assert loaded.name == ds.name

    @pytest.mark.parametrize("seed", range(5))
    def test_tree_round_trip_preserves_joins(self, tmp_path, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(50, 400)
        tree = build_rstar(make_items(n, seed=seed), max_entries=8)
        other = build_rstar(make_items(150, seed=seed + 50),
                            max_entries=8)
        path = tmp_path / "t.json"
        save_tree(tree, path)
        loaded = load_tree(path)
        original = spatial_join(tree, other)
        reloaded = spatial_join(loaded, other)
        assert sorted(original.pairs) == sorted(reloaded.pairs)
        assert (original.na_total, original.da_total) == \
            (reloaded.na_total, reloaded.da_total)
