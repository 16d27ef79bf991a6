"""Resume tokens: a join checkpoint as one opaque, CRC-guarded string.

A deadline-interrupted served join returns its partial counters plus a
**resume token** — the :class:`~repro.exec.JoinCheckpoint` document,
canonically serialized, zlib-compressed and base64url-encoded, so a
client can hold it in a JSON field and present it later to continue the
join exactly where it stopped.

The token carries the checkpoint's own document CRC, so the same
integrity guarantees apply as to checkpoint files: a truncated,
bit-flipped or otherwise tampered token raises
:class:`~repro.reliability.CorruptPageError` /
:class:`~repro.reliability.MalformedFileError` on decode (HTTP 422 at
the transport) — it can never silently resume from garbage state.
"""

from __future__ import annotations

import base64
import binascii
import json
import zlib

from ..exec.checkpoint import JoinCheckpoint, _doc_crc
from ..reliability import CorruptPageError, MalformedFileError

__all__ = ["decode_resume_token", "encode_resume_token"]


def _payload(doc: dict) -> bytes:
    """The compressed canonical JSON of a CRC-stamped document."""
    raw = json.dumps(doc, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return zlib.compress(raw)


def encode_resume_token(checkpoint: JoinCheckpoint) -> str:
    """Serialize a checkpoint into an opaque URL-safe string."""
    doc = checkpoint.to_dict()
    doc["crc"] = _doc_crc(doc)
    return base64.urlsafe_b64encode(_payload(doc)).decode("ascii")


def decode_resume_token(token: str) -> JoinCheckpoint:
    """Decode and verify a token produced by :func:`encode_resume_token`.

    Raises
    ------
    MalformedFileError
        Not base64/zlib/JSON, or the checkpoint document is structurally
        invalid.
    CorruptPageError
        The embedded document CRC does not verify, or the payload is not
        the one :func:`encode_resume_token` writes for that document.
    """
    try:
        payload = base64.urlsafe_b64decode(token.encode("ascii"))
        raw = zlib.decompress(payload)
        doc = json.loads(raw.decode("utf-8"))
    except (binascii.Error, zlib.error, UnicodeDecodeError, UnicodeError,
            json.JSONDecodeError, ValueError) as exc:
        raise MalformedFileError(
            f"resume token is not decodable: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFileError(
            f"resume token must decode to an object, "
            f"got {type(doc).__name__}")
    if doc.get("crc") != _doc_crc(doc):
        raise CorruptPageError(
            f"resume token checksum mismatch (stored {doc.get('crc')!r})")
    # The document CRC cannot see bits that zlib ignores: the header's
    # compression-level field and the final byte's padding.  A flip
    # there still decompresses to the same document, so only a token
    # byte-identical to the canonical encoding is accepted.
    if payload != _payload(doc):
        raise CorruptPageError("resume token is not in canonical form")
    try:
        return JoinCheckpoint.from_dict(doc)
    except (KeyError, TypeError) as exc:
        raise MalformedFileError(
            f"ill-typed resume token: {exc}") from None
