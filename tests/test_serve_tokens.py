"""Resume tokens: opaque, CRC-guarded, tamper-evident."""

import base64
import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.exec import Budget, ExecutionGovernor
from repro.join import PartialJoinResult, SpatialJoin
from repro.reliability import CorruptPageError, MalformedFileError
from repro.serve import decode_resume_token, encode_resume_token
from repro.storage import PathBuffer

from .conftest import build_rstar, make_items

FUZZ = settings(max_examples=50,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


@pytest.fixture(scope="module")
def checkpoint():
    t1 = build_rstar(make_items(200, seed=71), max_entries=8)
    t2 = build_rstar(make_items(180, seed=72), max_entries=8)
    gov = ExecutionGovernor(Budget(max_na=8), partial=True)
    result = SpatialJoin(t1, t2, PathBuffer(), governor=gov).run()
    assert isinstance(result, PartialJoinResult)
    return result.checkpoint


class TestRoundTrip:
    def test_encode_decode_identity(self, checkpoint):
        token = encode_resume_token(checkpoint)
        assert isinstance(token, str)
        assert decode_resume_token(token).to_dict() == \
            checkpoint.to_dict()

    def test_token_is_url_safe(self, checkpoint):
        token = encode_resume_token(checkpoint)
        assert not set(token) - set(
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "abcdefghijklmnopqrstuvwxyz0123456789-_=")

    def test_deterministic(self, checkpoint):
        assert encode_resume_token(checkpoint) == \
            encode_resume_token(checkpoint)


class TestTamperRejection:
    @FUZZ
    @given(offset=st.integers(min_value=0, max_value=100_000),
           flip=st.integers(min_value=1, max_value=255))
    # Byte 1 is zlib's FLG: 0x9c ^ 157 = 0x01 keeps the header check
    # valid and only changes the advisory compression level, so the
    # payload still inflates to the very same document.
    @example(offset=1, flip=157)
    def test_bitflip_in_payload_never_decodes(self, checkpoint,
                                              offset, flip):
        # Flip a byte of the *compressed payload* (pre-base64), the
        # representation an attacker or a torn copy would corrupt.
        token = encode_resume_token(checkpoint)
        raw = bytearray(base64.urlsafe_b64decode(token))
        raw[offset % len(raw)] ^= flip
        mutated = base64.urlsafe_b64encode(bytes(raw)).decode()
        with pytest.raises((CorruptPageError, MalformedFileError)):
            decode_resume_token(mutated)

    @FUZZ
    @given(cut=st.integers(min_value=0, max_value=100_000))
    def test_truncation_never_decodes(self, checkpoint, cut):
        token = encode_resume_token(checkpoint)
        cut = cut % len(token)           # strictly shorter
        with pytest.raises((CorruptPageError, MalformedFileError)):
            decode_resume_token(token[:cut])

    def test_crc_guards_decompressed_document(self, checkpoint):
        # A validly encoded but altered document must hit the CRC.
        import json
        doc = checkpoint.to_dict()
        from repro.exec.checkpoint import _doc_crc
        doc["crc"] = _doc_crc(doc)
        doc["pair_count"] = doc["pair_count"] + 7   # after checksumming
        raw = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode()
        forged = base64.urlsafe_b64encode(
            zlib.compress(raw)).decode("ascii")
        with pytest.raises(CorruptPageError):
            decode_resume_token(forged)

    @pytest.mark.parametrize("junk", [
        "", "not-a-token", "%%%", "AAAA",
        base64.urlsafe_b64encode(b"not zlib").decode(),
        base64.urlsafe_b64encode(zlib.compress(b"[1,2,3]")).decode(),
        base64.urlsafe_b64encode(zlib.compress(b"\xff\xfe")).decode(),
    ])
    def test_junk_raises_typed(self, junk):
        with pytest.raises((CorruptPageError, MalformedFileError)):
            decode_resume_token(junk)
