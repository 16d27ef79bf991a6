"""Torn-checkpoint safety: a deadline mid-write can never corrupt resume.

The scenario under test is the race the issue calls out: a ``Budget``
deadline (or crash, or cancellation) trips *while* a checkpoint is being
written.  Two independent defenses must both hold:

* **Atomicity** — :meth:`JoinCheckpoint.save` stages the document in a
  temporary file and renames it into place, so an interrupted save
  leaves the previous good checkpoint untouched.
* **CRC rejection** — if a torn file does reach the checkpoint path
  (simulated here by truncating or flipping bytes at arbitrary
  offsets), :meth:`JoinCheckpoint.load` raises ``CorruptPageError`` or
  ``MalformedFileError`` instead of returning garbage, and resuming
  from the previous good checkpoint still reproduces the uninterrupted
  run bit for bit.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import Budget, ExecutionGovernor, JoinCheckpoint
from repro.join import PartialJoinResult, SpatialJoin
from repro.reliability import CorruptPageError, MalformedFileError
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items, signature

TORN = settings(max_examples=60,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


def _join(t1, t2, *, governor=None):
    return SpatialJoin(t1, t2, PathBuffer(), governor=governor)


@pytest.fixture(scope="module")
def trees():
    t1 = build_rstar(make_items(250, seed=61), max_entries=8)
    t2 = build_rstar(make_items(220, seed=62), max_entries=8)
    return t1, t2


@pytest.fixture(scope="module")
def baseline(trees):
    t1, t2 = trees
    return signature(_join(t1, t2).run())


@pytest.fixture(scope="module")
def good_checkpoint(trees):
    """A partial run's checkpoint plus its serialized byte image."""
    t1, t2 = trees
    gov = ExecutionGovernor(Budget(max_na=9), partial=True)
    first = _join(t1, t2, governor=gov).run()
    assert isinstance(first, PartialJoinResult)
    from repro.exec.checkpoint import _doc_crc

    cp = first.checkpoint
    doc = cp.to_dict()
    doc["crc"] = _doc_crc(doc)
    return cp, json.dumps(doc).encode("utf-8")


class TestTornBytesNeverLoad:
    """Every torn/corrupt byte image is rejected — never parsed as state."""

    @TORN
    @given(cut=st.integers(min_value=0, max_value=10_000))
    def test_truncation_at_any_offset(self, tmp_path_factory,
                                      good_checkpoint, cut):
        cp, raw = good_checkpoint
        cut = min(cut, len(raw) - 1)       # strictly shorter than full doc
        path = tmp_path_factory.mktemp("torn") / "cp.json"
        path.write_bytes(raw[:cut])
        with pytest.raises((CorruptPageError, MalformedFileError)):
            JoinCheckpoint.load(path)

    @TORN
    @given(offset=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    def test_bitflip_at_any_offset(self, tmp_path_factory,
                                   good_checkpoint, offset, flip):
        cp, raw = good_checkpoint
        offset = offset % len(raw)
        torn = bytearray(raw)
        torn[offset] ^= flip
        path = tmp_path_factory.mktemp("flip") / "cp.json"
        path.write_bytes(bytes(torn))
        try:
            loaded = JoinCheckpoint.load(path)
        except (CorruptPageError, MalformedFileError):
            return
        # A flip inside a JSON string payload can survive the CRC only
        # if it produced the byte-identical canonical document — i.e.
        # it was not actually a corruption of the state.
        assert loaded.to_dict() == cp.to_dict()

    def test_torn_then_fallback_resumes_bit_identical(
            self, tmp_path, trees, baseline, good_checkpoint):
        # The operational recovery path: newest checkpoint is torn, the
        # previous good one is intact; resuming from it must equal the
        # uninterrupted run exactly.
        t1, t2 = trees
        cp, raw = good_checkpoint
        good = tmp_path / "cp.1.json"
        torn = tmp_path / "cp.2.json"
        cp.save(good)
        torn.write_bytes(raw[: len(raw) // 2])
        with pytest.raises((CorruptPageError, MalformedFileError)):
            JoinCheckpoint.load(torn)
        final = _join(t1, t2).resume(JoinCheckpoint.load(good))
        assert final.complete
        assert signature(final) == baseline


class TestAtomicSave:
    """save() never tears an existing checkpoint, even when interrupted."""

    def test_save_round_trips(self, tmp_path, good_checkpoint):
        cp, _ = good_checkpoint
        path = tmp_path / "cp.json"
        cp.save(path)
        assert JoinCheckpoint.load(path).to_dict() == cp.to_dict()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_interrupted_save_preserves_previous_good(
            self, tmp_path, trees, baseline, good_checkpoint,
            monkeypatch):
        # Simulate the deadline tripping during the write of a *newer*
        # checkpoint: the staged temp file is abandoned mid-write and
        # the rename never happens.  The previous good checkpoint must
        # still load and resume to the exact uninterrupted result.
        t1, t2 = trees
        cp, _ = good_checkpoint
        path = tmp_path / "cp.json"
        cp.save(path)

        gov = ExecutionGovernor(Budget(max_na=20), partial=True)
        later = _join(t1, t2, governor=gov).run()
        assert isinstance(later, PartialJoinResult)

        import repro.exec.checkpoint as cpmod

        def exploding_replace(src, dst):
            raise TimeoutError("deadline exceeded during checkpoint write")

        monkeypatch.setattr(cpmod.os, "replace", exploding_replace)
        with pytest.raises(TimeoutError):
            later.checkpoint.save(path)
        monkeypatch.undo()

        assert list(tmp_path.glob("*.tmp")) == []
        loaded = JoinCheckpoint.load(path)
        assert loaded.to_dict() == cp.to_dict()
        final = _join(t1, t2).resume(loaded)
        assert final.complete
        assert signature(final) == baseline

    def test_interrupted_first_save_leaves_no_file(
            self, tmp_path, good_checkpoint, monkeypatch):
        cp, _ = good_checkpoint
        path = tmp_path / "cp.json"
        import repro.exec.checkpoint as cpmod
        monkeypatch.setattr(
            cpmod.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(TimeoutError()))
        with pytest.raises(TimeoutError):
            cp.save(path)
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    @TORN
    @given(fail_after=st.integers(min_value=0, max_value=400))
    def test_partial_tmp_write_never_touches_target(
            self, tmp_path_factory, good_checkpoint, fail_after):
        # Tear the staged write itself at an arbitrary byte count: the
        # target path must remain byte-identical to the previous good
        # checkpoint regardless of where the write stopped.
        cp, raw = good_checkpoint
        tmp_dir = tmp_path_factory.mktemp("atomic")
        path = tmp_dir / "cp.json"
        cp.save(path)
        before = path.read_bytes()

        import repro.exec.checkpoint as cpmod
        real_fdopen = cpmod.os.fdopen

        class TornFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, data):
                self._fh.write(data[:fail_after])
                raise TimeoutError("budget deadline during write")

        def torn_fdopen(fd, *a, **kw):
            return TornFile(real_fdopen(fd, *a, **kw))

        try:
            cpmod.os.fdopen = torn_fdopen
            with pytest.raises(TimeoutError):
                cp.save(path)
        finally:
            cpmod.os.fdopen = real_fdopen

        assert path.read_bytes() == before
        assert list(tmp_dir.glob("*.tmp")) == []
        assert JoinCheckpoint.load(path).to_dict() == cp.to_dict()
