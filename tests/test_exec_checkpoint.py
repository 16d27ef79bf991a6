"""Checkpoint file format, validation, and resume safeguards."""

import json
import threading

import pytest

from repro.exec import (Budget, CheckpointMismatch, ExecutionGovernor,
                        JoinCheckpoint, tree_fingerprint)
from repro.join import OVERLAP, SpatialJoin, WithinDistance
from repro.reliability import CorruptPageError, MalformedFileError
from repro.storage import AccessStats, LRUBuffer, NoBuffer, PathBuffer

from .conftest import PLANE_SWEEP, build_rstar, make_items


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(300, seed=21))
    t2 = build_rstar(make_items(300, seed=22))
    return t1, t2


@pytest.fixture(scope="module")
def partial(trees):
    t1, t2 = trees
    gov = ExecutionGovernor(Budget(max_na=20), partial=True)
    result = SpatialJoin(t1, t2, PathBuffer(), governor=gov).run()
    assert not result.complete
    return result


class TestFileFormat:
    def test_save_load_round_trip(self, partial, tmp_path):
        path = tmp_path / "join.ckpt"
        partial.checkpoint.save(path)
        loaded = JoinCheckpoint.load(path)
        assert loaded.to_dict() == partial.checkpoint.to_dict()

    def test_concurrent_saves_to_same_path_are_safe(self, partial,
                                                    tmp_path):
        # Regression: a fixed sibling temp name (path + '.tmp') let
        # concurrent saves clobber each other's in-flight temp file,
        # and the loser's cleanup could unlink the winner's temp
        # before its rename, failing the save.
        path = tmp_path / "join.ckpt"
        errors = []
        start = threading.Barrier(8)

        def hammer():
            try:
                start.wait(10)
                for _ in range(25):
                    partial.checkpoint.save(path)
            except Exception as exc:    # noqa: BLE001 — collected
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
        assert errors == []
        loaded = JoinCheckpoint.load(path)
        assert loaded.to_dict() == partial.checkpoint.to_dict()
        assert list(tmp_path.glob("*.tmp")) == []    # no temp litter

    def test_save_fsyncs_file_and_directory(self, partial, tmp_path,
                                            monkeypatch):
        # Crash-safety contract: a durable save syncs the file content
        # AND the directory entry, so neither the bytes nor the rename
        # can be lost to a power cut after save() returns.
        import os as _os
        synced = []
        real_fsync = _os.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1])
        partial.checkpoint.save(tmp_path / "durable.ckpt")
        assert len(synced) >= 2            # content + parent directory

    def test_save_durable_false_skips_fsync(self, partial, tmp_path,
                                            monkeypatch):
        # The hot-loop opt-out (interval-fsynced journals) must not pay
        # per-spill fsyncs; atomic replace still applies.
        synced = []
        monkeypatch.setattr("os.fsync", lambda fd: synced.append(fd))
        path = tmp_path / "fast.ckpt"
        partial.checkpoint.save(path, durable=False)
        assert synced == []
        loaded = JoinCheckpoint.load(path)
        assert loaded.to_dict() == partial.checkpoint.to_dict()

    def test_tampered_payload_fails_crc(self, partial, tmp_path):
        path = tmp_path / "join.ckpt"
        partial.checkpoint.save(path)
        doc = json.loads(path.read_text())
        doc["pair_count"] += 1           # flip a counter, keep the CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptPageError):
            JoinCheckpoint.load(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_text("{not json")
        with pytest.raises(MalformedFileError):
            JoinCheckpoint.load(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.ckpt"
        path.write_text("[1, 2, 3]")
        with pytest.raises(MalformedFileError):
            JoinCheckpoint.load(path)

    def test_unsupported_format_version(self, partial, tmp_path):
        path = tmp_path / "future.ckpt"
        partial.checkpoint.save(path)
        doc = json.loads(path.read_text())
        doc["format"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            JoinCheckpoint.load(path)
        assert "format" in str(err.value)

    def test_missing_required_field(self, partial, tmp_path):
        path = tmp_path / "partial.ckpt"
        partial.checkpoint.save(path)
        doc = json.loads(path.read_text())
        del doc["stack"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFileError) as err:
            JoinCheckpoint.load(path)
        assert "stack" in str(err.value)

    def test_reason_is_machine_readable(self, partial):
        reason = partial.checkpoint.reason
        assert reason["error"] == "budget-exceeded"
        assert reason["resource"] == "na"
        assert reason["limit"] == 20


class TestResumeValidation:
    def test_wrong_tree_rejected(self, partial, trees):
        _t1, t2 = trees
        other = build_rstar(make_items(120, seed=29))
        with pytest.raises(CheckpointMismatch):
            SpatialJoin(other, t2, PathBuffer()).resume(partial.checkpoint)

    def test_wrong_predicate_rejected(self, partial, trees):
        t1, t2 = trees
        sj = SpatialJoin(t1, t2, PathBuffer(),
                         predicate=WithinDistance(0.1))
        with pytest.raises(CheckpointMismatch):
            sj.resume(partial.checkpoint)

    def test_wrong_enumeration_rejected(self, partial, trees):
        t1, t2 = trees
        sj = SpatialJoin(t1, t2, PathBuffer(), config=PLANE_SWEEP)
        with pytest.raises(CheckpointMismatch):
            sj.resume(partial.checkpoint)

    def test_wrong_buffer_kind_rejected(self, partial, trees):
        t1, t2 = trees
        with pytest.raises(CheckpointMismatch):
            SpatialJoin(t1, t2, LRUBuffer(8)).resume(partial.checkpoint)

    def test_stale_cursor_rejected(self, partial, trees):
        # A cursor pointing past the end of a node pair's entry list can
        # only mean the checkpoint refers to different data.
        t1, t2 = trees
        doc = partial.checkpoint.to_dict()
        doc["stack"] = [row[:4] + [10**6] for row in doc["stack"]]
        bad = JoinCheckpoint.from_dict(doc)
        with pytest.raises(CheckpointMismatch):
            SpatialJoin(t1, t2, PathBuffer()).resume(bad)

    def test_mismatch_is_value_error(self):
        # CLI maps ValueError to the usage/data exit code.
        assert issubclass(CheckpointMismatch, ValueError)

    def test_fingerprint_fields(self, trees):
        t1, _ = trees
        fp = tree_fingerprint(t1)
        assert fp == {"root_id": t1.root_id, "height": t1.height,
                      "size": len(t1), "ndim": t1.ndim,
                      "max_entries": t1.max_entries}


class TestStateRoundTrips:
    def test_access_stats_from_dict(self):
        stats = AccessStats()
        stats.record("R1", 2, buffer_hit=False)
        stats.record("R1", 1, buffer_hit=True)
        stats.record("R2", 1, buffer_hit=False)
        rebuilt = AccessStats.from_dict(stats.as_dict())
        assert rebuilt.as_dict() == stats.as_dict()
        assert rebuilt.na() == 3 and rebuilt.da() == 2

    def test_path_buffer_snapshot_restore(self):
        buf = PathBuffer()
        buf.access("R1", 3, 7)
        buf.access("R1", 2, 9)
        buf.access("R2", 3, 4)
        state = buf.snapshot()
        fresh = PathBuffer()
        fresh.restore(state)
        assert fresh.snapshot() == state
        # Restored content produces the same hit/miss decisions.
        assert fresh.access("R1", 3, 7) is True       # hit
        assert fresh.access("R1", 3, 8) is False      # miss

    def test_lru_buffer_snapshot_restore(self):
        buf = LRUBuffer(3)
        for node in (1, 2, 3, 4):                     # evicts 1
            buf.access("R1", 1, node)
        state = buf.snapshot()
        fresh = LRUBuffer(3)
        fresh.restore(state)
        assert fresh.snapshot() == state
        assert fresh.access("R1", 1, 1) is False      # was evicted
        assert fresh.access("R1", 1, 4) is True

    def test_no_buffer_snapshot_restore(self):
        buf = NoBuffer()
        buf.access("R1", 1, 1)
        fresh = NoBuffer()
        fresh.restore(buf.snapshot())
        assert fresh.access("R1", 1, 1) is False      # never a hit

    def test_checkpoint_records_buffer_and_predicate(self, partial):
        ckpt = partial.checkpoint
        assert ckpt.buffer_kind == "path"
        assert ckpt.predicate == {"kind": "overlap"}
        assert ckpt.pair_enumeration == "nested-loop"
        assert OVERLAP is not None
