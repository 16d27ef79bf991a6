"""Durable daemon state: registration manifest, request journal, spills.

The serving layer (PR 6) kept every piece of daemon state — registered
trees, running joins, completed responses — in process memory, so a
crash lost all of it even though CRC-guarded checkpoints and resume
tokens already existed one layer down.  This module is the missing
persistence tier: a **state directory** the daemon can be pointed at
(``repro serve --state-dir``) holding

* ``manifest.jsonl`` — one CRC-guarded record per tree registration
  (append-on-register, compacted to the live set on clean shutdown);
* ``journal.jsonl`` — the write-ahead request journal: every admitted
  join appends a ``begin`` record (with its idempotency key and the
  sanitized request), periodic ``spill`` records link it to its latest
  :class:`~repro.exec.JoinCheckpoint` file, and a ``complete``/``abort``
  record closes it.  fsync cadence is configurable (see
  :class:`JsonlLog`);
* ``trees/`` — trees registered as in-process objects are serialized
  here (tree format v2, checksummed) so they survive a restart too;
* ``spills/`` — one atomic, CRC-guarded checkpoint file per in-flight
  join, overwritten in place as the join progresses.

Both logs use the tree-format-v2 conventions of :mod:`repro.io`: every
record carries a CRC32 over its canonical serialization.  Loading is
**torn-tail tolerant**: a crash can only ever tear the *final* record
(appends are sequential), so a final line that fails to parse or
checksum is quarantined to a sidecar file and the log truncated back to
its last good record — the prefix is recovered exactly, a half-record is
never resurrected.  A bad record *before* the tail is not a crash
artifact but real corruption and raises
:class:`~repro.reliability.CorruptPageError` loudly;
:class:`DurableState` then quarantines the whole log rather than trust
any of it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..exec.checkpoint import JoinCheckpoint
from ..reliability import CorruptPageError
from ..storage import AccessStats

__all__ = ["DurableState", "JsonText", "JsonlLog", "RecoveredState",
           "TornTail"]


def _canonical(obj: Any) -> bytes:
    """Deterministic JSON bytes for checksumming (io.py's convention)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _record_crc(doc: dict) -> int:
    return zlib.crc32(_canonical(
        {k: v for k, v in doc.items() if k != "crc"}))


class JsonText(str):
    """A value already written as its :func:`_canonical` JSON text.

    :func:`_record_line` splices it into a record as is, at the top
    level or one level down (a value of a top-level object), so a large
    value encoded once elsewhere is not decoded or encoded again.
    """

    __slots__ = ()


def _value_text(value: Any) -> str:
    """``value``'s canonical JSON text; a :class:`JsonText`, or one
    among an object's values, is taken as is."""
    if isinstance(value, JsonText):
        return value
    if isinstance(value, dict) and any(
            isinstance(item, JsonText) for item in value.values()):
        return "{" + ",".join(json.dumps(key) + ":" + _value_text(value[key])
                              for key in sorted(value)) + "}"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _record_line(doc: dict) -> bytes:
    """``_canonical(doc | {"crc": _record_crc(doc)})`` and its newline,
    each top-level value encoded once: the CRC input and the line are
    both joined from the same ``"key":value`` parts, in key order.  A
    :class:`JsonText` value goes in as the text it already is."""
    parts = {key: json.dumps(key) + ":" + _value_text(value)
             for key, value in doc.items() if key != "crc"}
    body = ",".join(parts[key] for key in sorted(parts))
    parts["crc"] = f'"crc":{zlib.crc32(("{" + body + "}").encode())}'
    return ("{" + ",".join(parts[key] for key in sorted(parts))
            + "}\n").encode()


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename/create in it survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:                      # platform without O_RDONLY dirs
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class TornTail:
    """What a torn-tail recovery dropped (see :meth:`JsonlLog.load`)."""

    offset: int               #: byte offset where the good prefix ends
    dropped: int              #: bytes quarantined from the tail
    quarantine: str | None    #: sidecar file holding the torn bytes

    def as_dict(self) -> dict[str, object]:
        return {"offset": self.offset, "dropped": self.dropped,
                "quarantine": self.quarantine}


class JsonlLog:
    """Append-only JSONL with a CRC32 per record and torn-tail recovery.

    Parameters
    ----------
    path:
        The log file; created on first append.
    fsync_interval:
        Durability cadence.  ``0.0`` (default) fsyncs after **every**
        append — an acknowledged record survives power loss.  A positive
        number fsyncs at most once per that many seconds — bounded data
        loss, much cheaper under load.  ``None`` never fsyncs (the OS
        decides) — survives process death (``kill -9``) but not power
        loss.
    clock:
        Monotonic time source for the interval policy (injectable).

    Thread-safe.  :attr:`appends` and :attr:`fsyncs` count what actually
    happened, for metrics and tests.
    """

    def __init__(self, path: str | Path,
                 fsync_interval: float | None = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        if fsync_interval is not None and fsync_interval < 0:
            raise ValueError("fsync_interval must be >= 0 or None")
        self.path = Path(path)
        self.fsync_interval = fsync_interval
        self._clock = clock
        self._lock = threading.Lock()
        self._fh = None
        self._last_fsync = float("-inf")
        self.appends = 0
        self.fsyncs = 0

    # -- reading -------------------------------------------------------------

    def load(self) -> tuple[list[dict], TornTail | None]:
        """Read every record, recovering from a torn tail.

        Returns ``(records, torn)`` where ``torn`` describes a dropped
        final record (``None`` when the file was clean).  A torn tail is
        quarantined to ``<name>.quarantine-*`` and the log truncated
        back to its good prefix, so subsequent appends continue from a
        consistent file.  Records are returned **without** their ``crc``
        field.

        Raises
        ------
        CorruptPageError
            A record that is *not* the final one fails to parse or
            checksum.  Appends are strictly sequential, so mid-file
            damage cannot be a crash artifact — the log must not be
            trusted (callers may quarantine the whole file).
        """
        if not self.path.exists():
            return [], None
        data = self.path.read_bytes()
        records: list[dict] = []
        offset = 0
        n = len(data)
        bad_at: int | None = None
        while offset < n:
            newline = data.find(b"\n", offset)
            end = n if newline == -1 else newline
            line = data[offset:end]
            nxt = end + (0 if newline == -1 else 1)
            if line.strip():
                doc, why = self._verify(line)
                if doc is None:
                    if data[nxt:].strip():
                        raise CorruptPageError(
                            f"{self.path}: record at byte {offset} is "
                            f"corrupt ({why}) and is not the final "
                            f"record — this is damage, not a torn "
                            f"write; refusing to trust the log")
                    bad_at = offset
                    break
                records.append(doc)
            offset = nxt
        if bad_at is None:
            return records, None
        return records, self._quarantine_tail(data, bad_at)

    @staticmethod
    def _verify(line: bytes) -> tuple[dict | None, str]:
        """Parse + checksum one line; (record-without-crc, "") or (None, why)."""
        try:
            doc = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return None, f"invalid JSON: {exc}"
        if not isinstance(doc, dict):
            return None, f"record is {type(doc).__name__}, not an object"
        if "crc" not in doc:
            return None, "record carries no crc"
        if doc["crc"] != _record_crc(doc):
            return None, f"checksum mismatch (stored {doc['crc']!r})"
        return {k: v for k, v in doc.items() if k != "crc"}, ""

    def _quarantine_tail(self, data: bytes, offset: int) -> TornTail:
        tail = data[offset:]
        quarantine = None
        if tail:
            fd, name = tempfile.mkstemp(
                dir=self.path.parent,
                prefix=self.path.name + ".quarantine-")
            with os.fdopen(fd, "wb") as fh:
                fh.write(tail)
            quarantine = name
        with open(self.path, "r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
        return TornTail(offset, len(tail), quarantine)

    # -- writing -------------------------------------------------------------

    def _open(self):
        if self._fh is None:
            # A previously accepted final record may lack its newline
            # (truncation can eat just the terminator); never merge the
            # next append into it.
            needs_newline = False
            if self.path.exists() and self.path.stat().st_size:
                with open(self.path, "rb") as fh:
                    fh.seek(-1, os.SEEK_END)
                    needs_newline = fh.read(1) != b"\n"
            self._fh = open(self.path, "ab")
            if needs_newline:
                self._fh.write(b"\n")
        return self._fh

    def append(self, doc: dict) -> None:
        """Write one record (CRC added), flush, fsync per the policy."""
        line = _record_line(doc)
        with self._lock:
            fh = self._open()
            fh.write(line)
            fh.flush()
            self.appends += 1
            self._maybe_fsync(fh)

    def _maybe_fsync(self, fh) -> None:
        interval = self.fsync_interval
        if interval is None:
            return
        now = self._clock()
        if interval == 0.0 or now - self._last_fsync >= interval:
            os.fsync(fh.fileno())
            self.fsyncs += 1
            self._last_fsync = now

    def sync(self) -> None:
        """Force an fsync regardless of the interval policy."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
                self._last_fsync = self._clock()

    def compact(self, records: list[dict]) -> None:
        """Atomically rewrite the log to exactly ``records``.

        Stages through a unique temp file, fsyncs it, renames over the
        log, then fsyncs the directory — the same guarantee ladder as
        :meth:`JoinCheckpoint.save` with ``durable=True``.
        """
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            fd, tmp_name = tempfile.mkstemp(dir=self.path.parent,
                                            prefix=self.path.name + ".",
                                            suffix=".tmp")
            tmp = Path(tmp_name)
            try:
                with os.fdopen(fd, "wb") as fh:
                    for doc in records:
                        fh.write(_record_line(doc))
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
                _fsync_dir(self.path.parent)
            finally:
                tmp.unlink(missing_ok=True)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                except OSError:
                    pass
                self._fh.close()
                self._fh = None

    def __repr__(self) -> str:
        return (f"JsonlLog({str(self.path)!r}, "
                f"fsync_interval={self.fsync_interval!r}, "
                f"appends={self.appends}, fsyncs={self.fsyncs})")


@dataclass
class RecoveredState:
    """What :meth:`DurableState.load` found on disk.

    ``trees`` is the deduplicated registration list (last record per
    name wins); ``completed`` the closed journal entries in file order
    (each a ``{"op": "complete", "rid", "key", "response"}`` record);
    ``in_flight`` the admitted-but-never-closed entries — the joins a
    crash orphaned — each with its latest spill link, if any.
    """

    trees: list[dict] = field(default_factory=list)
    completed: list[dict] = field(default_factory=list)
    in_flight: list[dict] = field(default_factory=list)
    torn_tails: list[dict] = field(default_factory=list)
    quarantined_logs: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {"trees": len(self.trees),
                "completed": len(self.completed),
                "in_flight": len(self.in_flight),
                "torn_tails": list(self.torn_tails),
                "quarantined_logs": list(self.quarantined_logs)}


class DurableState:
    """The daemon's state directory: manifest + journal + spills.

    One instance per :class:`~repro.serve.JoinService` with a
    ``state_dir`` configured.  All methods are thread-safe.  The write
    path is intentionally boring — append a CRC-guarded record, fsync
    per policy — because the recovery path (:meth:`load` plus the
    service's replay logic) is where crash-safety is actually earned.

    ``fsync_interval`` follows :class:`JsonlLog` semantics and also
    selects the spill durability: with the strict ``0.0`` policy
    checkpoint spills fsync too (``durable=True``); with a relaxed or
    disabled policy spills skip their fsync — on the hot path a spill
    every few thousand node accesses must not pay a forced flush the
    journal itself is not paying.
    """

    MANIFEST = "manifest.jsonl"
    JOURNAL = "journal.jsonl"

    def __init__(self, state_dir: str | Path,
                 fsync_interval: float | None = 0.0,
                 clock: Callable[[], float] = time.monotonic):
        self.root = Path(state_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "trees").mkdir(exist_ok=True)
        (self.root / "spills").mkdir(exist_ok=True)
        self.fsync_interval = fsync_interval
        #: Registrations are rare and precious: always synced.
        self.manifest = JsonlLog(self.root / self.MANIFEST,
                                 fsync_interval=0.0, clock=clock)
        self.journal = JsonlLog(self.root / self.JOURNAL,
                                fsync_interval=fsync_interval,
                                clock=clock)
        self.spill_durable = fsync_interval == 0.0
        self._lock = threading.Lock()
        self._next_rid = 1

    # -- recovery ------------------------------------------------------------

    def load(self) -> RecoveredState:
        """Replay both logs into a :class:`RecoveredState`.

        Torn tails are tolerated per log; a log with mid-file corruption
        is moved aside to a ``*.quarantine-*`` sidecar (loudly recorded
        in the result) and treated as empty — the daemon starts, the
        operator keeps the evidence.
        """
        state = RecoveredState()
        manifest_records = self._load_log(self.manifest, state)
        journal_records = self._load_log(self.journal, state)

        by_name: dict[str, dict] = {}
        for rec in manifest_records:
            if rec.get("op") == "tree" and isinstance(rec.get("name"),
                                                      str):
                by_name[rec["name"]] = rec
        state.trees = list(by_name.values())

        begun: dict[int, dict] = {}
        spills: dict[int, dict] = {}
        closed: set[int] = set()
        max_rid = 0
        for rec in journal_records:
            rid = rec.get("rid")
            if not isinstance(rid, int):
                continue
            max_rid = max(max_rid, rid)
            op = rec.get("op")
            if op == "begin":
                begun[rid] = rec
            elif op == "spill":
                spills[rid] = rec
            elif op == "complete":
                closed.add(rid)
                state.completed.append(rec)
            elif op == "abort":
                closed.add(rid)
        for rid, rec in begun.items():
            if rid in closed:
                continue
            spill = spills.get(rid)
            state.in_flight.append({
                "rid": rid, "key": rec.get("key"),
                "request": rec.get("request") or {},
                "spill": spill.get("path") if spill else None,
                "spill_na": spill.get("na") if spill else None,
            })
        with self._lock:
            self._next_rid = max_rid + 1
        return state

    def _load_log(self, log: JsonlLog, state: RecoveredState) -> list[dict]:
        try:
            records, torn = log.load()
        except CorruptPageError as exc:
            fd, name = tempfile.mkstemp(
                dir=self.root, prefix=log.path.name + ".quarantine-")
            os.close(fd)
            os.replace(log.path, name)
            _fsync_dir(self.root)
            state.quarantined_logs.append(f"{name}: {exc}")
            return []
        if torn is not None:
            doc = torn.as_dict()
            doc["log"] = log.path.name
            state.torn_tails.append(doc)
        return records

    # -- manifest ------------------------------------------------------------

    def record_tree(self, name: str, path: str | Path,
                    size: int, height: int) -> None:
        """Append one registration record (always fsynced)."""
        self.manifest.append({"op": "tree", "name": name,
                              "path": str(Path(path).resolve()),
                              "size": size, "height": height})

    def save_tree_object(self, name: str, tree: Any) -> Path:
        """Persist an in-process tree into the state dir, atomically."""
        from ..io import save_tree
        path = self.root / "trees" / f"{name}.json"
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name + ".",
                                        suffix=".tmp")
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            save_tree(tree, tmp)
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # -- journal -------------------------------------------------------------

    def begin(self, key: str | None, request: dict) -> int:
        """Journal one admitted request; returns its journal id (rid)."""
        with self._lock:
            rid = self._next_rid
            self._next_rid += 1
            self.journal.append({"op": "begin", "rid": rid, "key": key,
                                 "request": request})
        return rid

    def spill_path(self, rid: int) -> Path:
        return self.root / "spills" / f"r{rid}.ckpt"

    def spill(self, rid: int, checkpoint: JoinCheckpoint,
              na: int | None = None) -> Path:
        """Persist a join's latest checkpoint and journal the link.

        The spill file is overwritten in place (atomically — see
        :meth:`JoinCheckpoint.save`), so one file per rid always holds
        the newest resumable frontier.
        """
        path = self.spill_path(rid)
        checkpoint.save(path, durable=self.spill_durable)
        if na is None:
            na = AccessStats.from_dict(checkpoint.stats).na()
        self.journal.append({"op": "spill", "rid": rid,
                             "path": str(path.relative_to(self.root)),
                             "na": na})
        return path

    def complete(self, rid: int, key: str | None, response: dict) -> None:
        """Close a journal entry with its final (JSON-safe) response."""
        self.journal.append({"op": "complete", "rid": rid, "key": key,
                             "response": response})
        self.spill_path(rid).unlink(missing_ok=True)

    def abort(self, rid: int, error: BaseException | str) -> None:
        """Close a journal entry that failed — never replayed on recovery."""
        self.journal.append({"op": "abort", "rid": rid,
                             "error": str(error)})
        self.spill_path(rid).unlink(missing_ok=True)

    # -- lifecycle -----------------------------------------------------------

    def compact(self, tree_records: list[dict],
                completed_records: list[dict]) -> None:
        """Clean-shutdown compaction: live trees + retained responses only.

        The manifest shrinks to one record per live registration, the
        journal to the retained completed entries (the idempotency cache
        the next incarnation should answer from); spill files of closed
        entries are garbage-collected.
        """
        self.manifest.compact([
            {"op": "tree", "name": r["name"], "path": r["path"],
             "size": r.get("size"), "height": r.get("height")}
            for r in tree_records])
        self.journal.compact(list(completed_records))
        keep = {f"r{r['rid']}.ckpt" for r in completed_records
                if isinstance(r.get("rid"), int)}
        for entry in (self.root / "spills").iterdir():
            if entry.name not in keep:
                entry.unlink(missing_ok=True)

    def close(self) -> None:
        self.manifest.close()
        self.journal.close()

    def __repr__(self) -> str:
        return (f"DurableState({str(self.root)!r}, "
                f"fsync_interval={self.fsync_interval!r})")
