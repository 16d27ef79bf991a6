"""The durable state tier: CRC JSONL logs, torn tails, journal replay.

Satellite property (issue 7): truncate or bit-flip the manifest/journal
at **every byte offset** and assert load either recovers the good
prefix exactly or quarantines loudly — a half-record is never
resurrected as state.
"""

import json
import os
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.reliability import CorruptPageError
from repro.serve import DurableState, JsonlLog, durable

TORN = settings(max_examples=80,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)

RECORDS = [
    {"op": "tree", "name": "a", "path": "/tmp/a.json", "size": 100,
     "height": 3},
    {"op": "begin", "rid": 1, "key": "k-1",
     "request": {"tree1": "a", "tree2": "b"}},
    {"op": "spill", "rid": 1, "path": "spills/r1.ckpt", "na": 120},
    {"op": "complete", "rid": 1, "key": "k-1",
     "response": {"na": 206, "da": 150, "status": "complete"}},
]


def _write_log(path, records):
    log = JsonlLog(path)
    for rec in records:
        log.append(rec)
    log.close()
    return path.read_bytes() if path.exists() else b""


class TestJsonlLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _write_log(path, RECORDS)
        loaded, torn = JsonlLog(path).load()
        assert torn is None
        assert loaded == RECORDS          # crc stripped on load

    def test_missing_file_is_empty(self, tmp_path):
        loaded, torn = JsonlLog(tmp_path / "absent.jsonl").load()
        assert (loaded, torn) == ([], None)

    def test_torn_tail_recovers_prefix_and_quarantines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        raw = _write_log(path, RECORDS)
        # Tear the final record in half, crash-style.
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_line_start + (len(raw) - last_line_start) // 2
        path.write_bytes(raw[:cut])
        loaded, torn = JsonlLog(path).load()
        assert loaded == RECORDS[:-1]
        assert torn is not None
        assert torn.offset == last_line_start
        assert torn.dropped == cut - last_line_start
        quarantine = tmp_path / os.path.basename(torn.quarantine)
        assert quarantine.read_bytes() == raw[last_line_start:cut]
        # The log was truncated back to its good prefix: clean reload.
        assert JsonlLog(path).load() == (RECORDS[:-1], None)

    def test_append_after_torn_recovery_continues(self, tmp_path):
        path = tmp_path / "log.jsonl"
        raw = _write_log(path, RECORDS)
        path.write_bytes(raw[:-5])        # tear the tail
        log = JsonlLog(path)
        log.load()
        log.append({"op": "abort", "rid": 9, "error": "x"})
        log.close()
        loaded, torn = JsonlLog(path).load()
        assert torn is None
        assert loaded == RECORDS[:-1] + [{"op": "abort", "rid": 9,
                                          "error": "x"}]

    def test_final_record_without_newline_is_complete(self, tmp_path):
        # Truncation can eat just the terminator; the record is whole
        # and must load — and a later append must not merge into it.
        path = tmp_path / "log.jsonl"
        raw = _write_log(path, RECORDS)
        path.write_bytes(raw.rstrip(b"\n"))
        log = JsonlLog(path)
        loaded, torn = log.load()
        assert (loaded, torn) == (RECORDS, None)
        log.append({"op": "abort", "rid": 5, "error": "y"})
        log.close()
        loaded, torn = JsonlLog(path).load()
        assert torn is None
        assert loaded == RECORDS + [{"op": "abort", "rid": 5,
                                     "error": "y"}]

    def test_mid_file_corruption_raises_loudly(self, tmp_path):
        path = tmp_path / "log.jsonl"
        raw = _write_log(path, RECORDS)
        lines = raw.split(b"\n")
        lines[1] = lines[1][:-4] + b"XXXX"     # damage a non-final record
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptPageError):
            JsonlLog(path).load()

    def test_fsync_every_append_by_default(self, tmp_path):
        log = JsonlLog(tmp_path / "log.jsonl")
        for rec in RECORDS:
            log.append(rec)
        assert log.fsyncs == log.appends == len(RECORDS)
        log.close()

    def test_fsync_never_policy(self, tmp_path):
        log = JsonlLog(tmp_path / "log.jsonl", fsync_interval=None)
        for rec in RECORDS:
            log.append(rec)
        assert log.fsyncs == 0
        log.close()

    def test_fsync_interval_policy(self, tmp_path):
        now = {"t": 100.0}
        log = JsonlLog(tmp_path / "log.jsonl", fsync_interval=10.0,
                       clock=lambda: now["t"])
        log.append(RECORDS[0])            # first append always syncs
        log.append(RECORDS[1])            # within the interval: no sync
        assert log.fsyncs == 1
        now["t"] += 11.0
        log.append(RECORDS[2])
        assert log.fsyncs == 2
        log.close()

    def test_compact_rewrites_atomically(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path)
        for rec in RECORDS:
            log.append(rec)
        log.compact(RECORDS[-1:])
        log.close()
        assert JsonlLog(path).load() == (RECORDS[-1:], None)
        assert not list(tmp_path.glob("*.tmp"))


class TestTornTailProperty:
    """The satellite property, at every byte offset."""

    @pytest.fixture(scope="class")
    def image(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("img") / "log.jsonl"
        return _write_log(path, RECORDS)

    @TORN
    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_truncate_at_any_offset(self, tmp_path_factory, image, cut):
        cut = min(cut, len(image))
        path = tmp_path_factory.mktemp("cut") / "log.jsonl"
        path.write_bytes(image[:cut])
        loaded, torn = JsonlLog(path).load()
        # Exactly the undamaged prefix, never a half-record.
        assert loaded == RECORDS[:len(loaded)]
        kept = _write_log(tmp_path_factory.mktemp("ref") / "r.jsonl",
                          loaded)
        assert image.startswith(kept)
        if torn is not None:
            assert torn.offset == len(kept)

    @TORN
    @given(offset=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    def test_bitflip_at_any_offset(self, tmp_path_factory, image,
                                   offset, flip):
        offset = offset % len(image)
        damaged = bytearray(image)
        damaged[offset] ^= flip
        path = tmp_path_factory.mktemp("flip") / "log.jsonl"
        path.write_bytes(bytes(damaged))
        try:
            loaded, _torn = JsonlLog(path).load()
        except CorruptPageError:
            return                         # loud quarantine: acceptable
        # Every surviving record must be one of the originals, whole.
        # (Flipping a record's own newline can only split/merge lines,
        # which the per-record CRC then rejects; a flip that leaves all
        # CRCs valid must have been byte-neutral.)
        for rec in loaded:
            assert rec in RECORDS

    def test_flipped_crc_field_never_verifies(self, tmp_path):
        # Direct regression for the subtle case: damage the stored crc
        # itself, keep the payload intact — still rejected.
        path = tmp_path / "log.jsonl"
        raw = _write_log(path, RECORDS[:1])
        doc = json.loads(raw.decode())
        doc["crc"] ^= 1
        path.write_bytes(json.dumps(doc).encode() + b"\n")
        loaded, torn = JsonlLog(path).load()
        assert loaded == [] and torn is not None


class TestJournalBytes:
    """Each record is encoded once, its CRC input and its line joined
    from the same parts; the bytes are what the canonical encoding of
    the record plus its ``crc`` gives, so logs written before load
    unchanged.  The golden lines hold keys sorting before ``"crc"``
    (``"at"``, ``"checkpoint"``) and after it, non-ASCII strings and
    floats."""

    RECORDS = [
        {"op": "spill", "rid": 7, "checkpoint": {"b": [1.5, -0.0],
                                                 "a": "zé"},
         "at": 0.1},
        {"op": "complete", "rid": 7, "key": "clé-☃",
         "response": {"na": 206, "t": 2.5e-07, "big": 1e+22,
                      "pairs": [[1, 2]]}},
    ]
    GOLDEN = (
        b'{"at":0.1,"checkpoint":{"a":"z\\u00e9","b":[1.5,-0.0]},'
        b'"crc":86352023,"op":"spill","rid":7}\n'
        b'{"crc":940380985,"key":"cl\\u00e9-\\u2603","op":"complete",'
        b'"response":{"big":1e+22,"na":206,"pairs":[[1,2]],'
        b'"t":2.5e-07},"rid":7}\n')

    def test_golden_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        assert _write_log(path, self.RECORDS) == self.GOLDEN
        log = JsonlLog(tmp_path / "compacted.jsonl")
        log.compact(self.RECORDS)
        assert log.path.read_bytes() == self.GOLDEN

    def test_load_verifies_each_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(self.GOLDEN)
        assert JsonlLog(path).load() == (self.RECORDS, None)

    def test_a_flipped_byte_is_quarantined(self, tmp_path):
        """In the final line: a torn tail, quarantined; before it:
        corruption, refused."""
        last = self.GOLDEN.index(b"\n") + 1
        for at in (self.GOLDEN.index(b"940380985"),
                   self.GOLDEN.index(b"2603")):
            damaged = bytearray(self.GOLDEN)
            damaged[at] ^= 1
            path = tmp_path / f"tail-{at}.jsonl"
            path.write_bytes(bytes(damaged))
            loaded, torn = JsonlLog(path).load()
            assert loaded == self.RECORDS[:1]
            assert torn.offset == last and torn.quarantine
        damaged = bytearray(self.GOLDEN)
        damaged[self.GOLDEN.index(b"86352023")] ^= 1
        path = tmp_path / "head.jsonl"
        path.write_bytes(bytes(damaged))
        with pytest.raises(CorruptPageError):
            JsonlLog(path).load()

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.text(max_size=6),
        st.recursive(
            st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=8),
        max_size=6))
    def test_bytes_are_the_canonical_record(self, doc):
        record = {k: v for k, v in doc.items() if k != "crc"}
        record["crc"] = durable._record_crc(record)
        assert durable._record_line(doc) \
            == durable._canonical(record) + b"\n"
        # Values already written as canonical text, at the top level
        # and one level down, give the same line.
        def text(value):
            return durable.JsonText(durable._canonical(value).decode())

        encoded = {key: ({k: text(v) for k, v in value.items()}
                         if isinstance(value, dict) else text(value))
                   for key, value in doc.items()}
        assert durable._record_line(encoded) == durable._record_line(doc)


class TestDurableState:
    def test_layout_and_journal_replay(self, tmp_path):
        d = DurableState(tmp_path / "state")
        for sub in ("trees", "spills"):
            assert (tmp_path / "state" / sub).is_dir()
        d.record_tree("a", "/tmp/a.json", 100, 3)
        d.record_tree("b", "/tmp/b.json", 200, 3)
        r1 = d.begin("k-1", {"tree1": "a", "tree2": "b"})
        r2 = d.begin(None, {"tree1": "b", "tree2": "a"})
        assert (r1, r2) == (1, 2)
        d.complete(r1, "k-1", {"na": 5, "status": "complete"})
        d.close()

        d2 = DurableState(tmp_path / "state")
        state = d2.load()
        assert [t["name"] for t in state.trees] == ["a", "b"]
        assert [c["rid"] for c in state.completed] == [r1]
        assert [e["rid"] for e in state.in_flight] == [r2]
        assert state.in_flight[0]["request"] == {"tree1": "b",
                                                 "tree2": "a"}
        # rids stay monotonic across restarts.
        assert d2.begin(None, {}) == 3
        d2.close()

    def test_manifest_last_registration_wins(self, tmp_path):
        d = DurableState(tmp_path / "state")
        d.record_tree("a", "/tmp/v1.json", 100, 3)
        d.record_tree("a", "/tmp/v2.json", 120, 3)
        state = d.load()
        assert [t["path"] for t in state.trees] == ["/tmp/v2.json"]
        d.close()

    def test_abort_closes_entry(self, tmp_path):
        d = DurableState(tmp_path / "state")
        rid = d.begin("k", {"tree1": "a", "tree2": "b"})
        d.abort(rid, ValueError("boom"))
        state = d.load()
        assert state.in_flight == [] and state.completed == []
        d.close()

    def test_corrupt_log_quarantined_whole(self, tmp_path):
        d = DurableState(tmp_path / "state")
        d.begin("k", {})
        d.begin("k2", {})
        d.close()
        journal = tmp_path / "state" / "journal.jsonl"
        raw = journal.read_bytes()
        lines = raw.split(b"\n")
        lines[0] = lines[0][:-4] + b"XXXX"   # mid-file damage
        journal.write_bytes(b"\n".join(lines))
        d2 = DurableState(tmp_path / "state")
        state = d2.load()
        assert state.in_flight == []
        assert len(state.quarantined_logs) == 1
        assert not journal.exists() or journal.stat().st_size == 0
        assert list((tmp_path / "state").glob("journal.jsonl.quarantine-*"))
        d2.close()

    def test_compact_drops_closed_spills(self, tmp_path):
        d = DurableState(tmp_path / "state")
        d.record_tree("a", "/tmp/a.json", 100, 3)
        rid = d.begin("k", {})
        (d.spill_path(rid).parent / f"r{rid}.ckpt").write_text("x")
        d.complete(rid, "k", {"status": "complete"})
        completed = d.load().completed
        d.compact([{"name": "a", "path": "/tmp/a.json", "size": 100,
                    "height": 3}], completed)
        assert not list((tmp_path / "state" / "spills").iterdir())
        state = d.load()
        assert [t["name"] for t in state.trees] == ["a"]
        assert [c["key"] for c in state.completed] == ["k"]
        d.close()

    def test_crc_convention_matches_io(self, tmp_path):
        # Same canonical-JSON CRC32 convention as repro.io / checkpoints.
        d = DurableState(tmp_path / "state")
        d.record_tree("a", "/tmp/a.json", 100, 3)
        d.close()
        line = (tmp_path / "state" / "manifest.jsonl").read_bytes()
        doc = json.loads(line.decode())
        crc = doc.pop("crc")
        canonical = json.dumps(doc, sort_keys=True,
                               separators=(",", ":")).encode()
        assert crc == zlib.crc32(canonical)
