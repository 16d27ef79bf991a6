"""Persistence: datasets and R-trees to and from disk.

Two formats, both line-oriented and dependency-free:

* **Datasets** — a simple text format, one rectangle per line
  (``oid lo_1 .. lo_n hi_1 .. hi_n``, whitespace-separated, ``#``
  comments), so real data (e.g. converted TIGER extracts) can be fed to
  the library without code.  Loading validates geometry: inverted
  rectangles (``lo > hi``) and lines whose dimensionality disagrees with
  the rest of the file are rejected with ``path:lineno`` context.
* **Trees** — JSON carrying the structural constants plus every node's
  level and entries.  Loading rebuilds the exact same page layout, so a
  saved tree answers queries with identical NA/DA counts — important for
  reproducible experiments.

Tree format v2 adds integrity checking: every node record carries a
CRC32 over its canonical payload, and the document carries a CRC32 over
everything but the checksum itself.  :func:`load_tree` verifies both,
and the structure a checksum cannot see (every internal entry points
at a page one level down that no other entry points at, the root's
level is the height, the size counts the leaf entries).
``strict=True`` (default) raises
:class:`~repro.reliability.CorruptPageError` on the first failed check;
``strict=False`` *quarantines* corrupt subtrees and returns a degraded
but queryable tree whose ``corruption_report`` attribute (a
:class:`~repro.reliability.CorruptionReport`) says exactly what was
lost.  v1 files (no checksums) still load in either mode; a failed
check there is a :class:`~repro.reliability.MalformedFileError`.

Both ways, each node's entries are encoded canonically once, and both
CRCs are read from that text.  A loaded tree is its arena: the records
are checked by column and laid out as the tree's
:class:`~repro.geometry.TreeArena`, and every page is installed unread
over it, so loading makes no ``Rect``, ``Entry`` or ``Node``.
"""

from __future__ import annotations

import json
import zlib
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from .datasets import SpatialDataset
from .geometry import Rect, TreeArena
from .geometry.arena import run_slots
from .geometry.columnar import segment_bounds
from .reliability import (CorruptionReport, CorruptPageError,
                          MalformedFileError)
from .rtree import RStarTree, RTreeBase
from .rtree.arena_view import ArenaPages
from .rtree.node import LEAF_LEVEL

__all__ = ["save_dataset", "load_dataset", "save_tree", "load_tree",
           "verify_tree_file", "TREE_FORMAT_VERSION"]

TREE_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)

#: Document fields every tree file must carry (v1 and v2 alike).
_REQUIRED_DOC_FIELDS = ("format", "ndim", "max_entries", "height",
                        "size", "root_id", "nodes")


# -- datasets ----------------------------------------------------------------

def save_dataset(dataset: SpatialDataset, path: str | Path) -> None:
    """Write a dataset in the one-rectangle-per-line text format."""
    path = Path(path)
    lines = [f"# repro dataset: {dataset.name}",
             "# columns: oid lo_1..lo_n hi_1..hi_n"]
    for rect, oid in dataset:
        coords = " ".join(f"{c!r}" for c in (*rect.lo, *rect.hi))
        lines.append(f"{oid} {coords}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path: str | Path, name: str | None = None,
                 ) -> SpatialDataset:
    """Read a dataset written by :func:`save_dataset` (or by hand).

    Raises :class:`~repro.reliability.MalformedFileError` (a
    ``ValueError`` subclass) with ``path:lineno`` context for syntactic
    problems, inverted rectangles, and dimensionality mismatches.
    """
    path = Path(path)
    items: list[tuple[Rect, int]] = []
    header_name = None
    file_ndim: int | None = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# repro dataset:"):
                header_name = line.split(":", 1)[1].strip()
            continue
        fields = line.split()
        if len(fields) < 3 or len(fields) % 2 == 0:
            raise MalformedFileError(
                f"{path}:{lineno}: expected 'oid lo.. hi..' with an even "
                f"number of coordinates, got {len(fields)} fields",
                path=path)
        try:
            oid = int(fields[0])
            coords = [float(f) for f in fields[1:]]
            ndim = len(coords) // 2
            # Rect itself rejects non-finite coordinates and lo > hi.
            rect = Rect(coords[:ndim], coords[ndim:])
        except ValueError as exc:
            raise MalformedFileError(
                f"{path}:{lineno}: {exc}", path=path) from None
        if file_ndim is None:
            file_ndim = ndim
        elif ndim != file_ndim:
            raise MalformedFileError(
                f"{path}:{lineno}: rectangle is {ndim}-dimensional but "
                f"the rest of the file is {file_ndim}-dimensional",
                path=path)
        items.append((rect, oid))
    return SpatialDataset(items, name or header_name or path.stem)


# -- trees --------------------------------------------------------------------

#: What a checksum covers: JSON with sorted keys and no whitespace.
#: (Parsed JSON holds no cycles, so the encoder skips looking for them.)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              check_circular=False)


def _canonical(obj: Any) -> bytes:
    """Deterministic JSON bytes for checksumming (stable across loads)."""
    return _CANONICAL.encode(obj).encode("utf-8")


def _node_crc(level: int, entries: list) -> int:
    """A node record's CRC, by definition."""
    return zlib.crc32(_canonical({"level": level, "entries": entries}))


def _doc_crc(doc: dict) -> int:
    """A document's CRC, by definition."""
    return zlib.crc32(_canonical(
        {k: v for k, v in doc.items() if k != "checksum"}))


# Both CRCs are read from one encoding of each node's entries, which
# saving and loading make once: ``_node_crc_of(level, enc) ==
# _node_crc(level, entries)`` and ``_doc_crc_of(doc, encs) ==
# _doc_crc(doc)`` for ``enc = _canonical(entries)``.

def _node_crc_of(level: Any, encoded: bytes) -> int:
    """:func:`_node_crc` from ``encoded``, the canonical bytes of the
    node's entries (the record's sorted keys put them first)."""
    crc = zlib.crc32(encoded, zlib.crc32(b'{"entries":'))
    return zlib.crc32(b',"level":' + _value(level) + b"}", crc)


def _doc_crc_of(doc: dict, encoded: dict[str, bytes]) -> int:
    """:func:`_doc_crc` with ``encoded[key]`` standing for the canonical
    bytes of ``doc["nodes"][key]["entries"]``: everything else is
    encoded key by sorted key as :func:`_canonical` does, and the
    pieces are chained through ``zlib.crc32``."""
    crc = 0
    for piece in _doc_pieces(doc, encoded):
        crc = zlib.crc32(piece, crc)
    return crc


def _doc_pieces(doc: dict, encoded: dict[str, bytes]):
    """``_canonical`` of the document without its checksum, in pieces."""
    sep = b"{"
    for key in sorted(doc):
        if key == "checksum":
            continue
        yield sep + _key(key)
        sep = b","
        value = doc[key]
        if key != "nodes" or not isinstance(value, dict):
            yield _value(value)
            continue
        inner = b"{"
        for page in sorted(value):
            payload = value[page]
            yield inner + _key(page)
            inner = b","
            if page not in encoded:           # no entries to stand for
                yield _value(payload)
                continue
            field_sep = b"{"
            for field in sorted(payload):
                yield field_sep + _key(field) + (
                    encoded[page] if field == "entries"
                    else _value(payload[field]))
                field_sep = b","
            yield b"}"
        yield b"}" if inner == b"," else b"{}"
    yield b"}" if sep == b"," else b"{}"


def _key(key: str) -> bytes:
    """A canonical object key and its colon."""
    return encode_basestring_ascii(key).encode("ascii") + b":"


def _value(value: Any) -> bytes:
    """:func:`_canonical` of one value (an ``int`` without the encoder)."""
    return b"%d" % value if type(value) is int else _canonical(value)


def save_tree(tree: RTreeBase, path: str | Path) -> None:
    """Serialise a tree (any variant) to checksummed JSON (format v2).

    The records are read from the tree's arena (a packed or loaded tree
    builds no node to be saved), in its breadth-first page order.  Each
    node's entries are encoded once: both CRCs are read from that text,
    and the file writes it with ``json.dumps``'s separators.
    """
    arena = tree.arena()
    lo, hi = (corner.T.tolist() for corner in arena._coords)
    refs = arena._refs.tolist()
    records = []
    encoded = {}
    nodes = {}
    for page_id, (offset, count, level) in arena.index.items():
        end = offset + count
        entries = [list(entry) for entry in zip(
            lo[offset:end], hi[offset:end], refs[offset:end])]
        key = str(page_id)
        encoded[key] = _canonical(entries)
        crc = _node_crc_of(level, encoded[key])
        nodes[key] = {"level": level, "entries": entries, "crc": crc}
        # An entries list holds numbers and brackets only, so its
        # ``json.dumps`` text is the canonical one with ", " for ",".
        records.append(f'{json.dumps(key)}: {{"level": {level}, '
                       f'"entries": '
                       f'{encoded[key].decode().replace(",", ", ")}, '
                       f'"crc": {crc}}}')
    header = {
        "format": TREE_FORMAT_VERSION,
        "ndim": tree.ndim,
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "height": tree.height,
        "size": tree.size,
        "root_id": tree.root_id,
    }
    checksum = _doc_crc_of({**header, "nodes": nodes}, encoded)
    # ``json.dumps`` of the whole document, byte for byte.
    Path(path).write_text(
        f'{json.dumps(header)[:-1]}, "nodes": {{{", ".join(records)}}}, '
        f'"checksum": {checksum}}}', encoding="utf-8")


def load_tree(path: str | Path, strict: bool = True) -> RStarTree:
    """Rebuild a tree saved by :func:`save_tree`.

    The result is an :class:`RStarTree` regardless of the original
    variant (the stored structure is what matters; R* policies govern
    only *future* inserts).  Page ids, node contents and therefore all
    access counts are preserved exactly, and so is ``min_entries``
    (when the file carries it; format-v1 files may not), so future
    inserts split and condense as they would have in the saved tree.

    The tree comes as a packed one does: its arena laid out from the
    checked records, breadth-first from the root, and every page
    installed unread over it (:class:`~repro.rtree.arena_view.
    ArenaPages`), so a node is built on its first read.  Pages no
    entry reaches are not part of the tree and are not kept.

    Every record is checked before anything is installed: its CRC, its
    shape (an integer ``level`` >= 1, entries ``[lo, hi, ref]`` with
    ``ndim`` finite coordinates per corner, ``lo <= hi``, an integer
    ``ref``), and, walking from the root, the structure: each internal
    entry points at a page one level down that no other entry points
    at, the root's level is ``height``, and ``size`` counts the leaf
    entries.

    Parameters
    ----------
    strict:
        ``True`` (default): any failed check raises.  ``False``:
        corrupt nodes are quarantined — their parent entries are
        dropped, as is an internal entry that breaks the structure —
        the ancestors of a node that lost entries are re-bounded, and
        the returned (degraded, still queryable) tree carries a
        ``corruption_report`` attribute.  A corrupt *root*, or one
        whose level is not ``height``, cannot be degraded around and
        raises in both modes.

    Raises
    ------
    MalformedFileError
        Invalid JSON, unsupported format, missing/ill-typed fields, a
        ``min_entries`` outside ``1 .. max_entries // 2``, or a failed
        check of a v1 (un-checksummed) file, naming the page or field.
    CorruptPageError
        A failed check of a checksummed file (strict mode), or an
        unrecoverable root.
    """
    path = Path(path)
    doc = _tree_document(path)
    nodes = doc["nodes"]
    checksummed = doc["format"] >= 2
    report = CorruptionReport(path=str(path), checksummed=checksummed)

    # Each node's entries are encoded once; its CRC and the document's
    # are both read from that text.
    encoded = {key: _canonical(payload["entries"])
               for key, payload in nodes.items()
               if isinstance(payload, dict) and "entries" in payload
               } if checksummed else None
    if encoded is not None:
        stored = doc.get("checksum")
        if stored != _doc_crc_of(doc, encoded):
            if strict:
                raise CorruptPageError(
                    f"{path}: document checksum mismatch "
                    f"(stored {stored!r})")
            report.document_checksum_ok = False

    ndim = _saved_int(doc, "ndim", 1, path)
    max_entries = _saved_int(doc, "max_entries", 2, path)

    def refusal(message: str, page_id: int | None,
                field: str = "nodes") -> Exception:
        # Corruption in a checksummed file; a malformed v1 file.
        if checksummed:
            return CorruptPageError(f"{path}: {message}", page_id)
        return MalformedFileError(f"{path}: {message}", path=path,
                                  field=field)

    where, coords, refs, bad = _checked_pages(nodes, encoded, ndim, path)
    if strict and bad:
        page_id, message = next(iter(bad.items()))
        raise refusal(message, page_id)

    root_id = doc["root_id"]
    if root_id not in where:
        raise CorruptPageError(
            f"{path}: root page {root_id} is missing or corrupt; "
            f"the tree cannot be loaded even leniently", root_id)
    height = where[root_id][2]
    if height != doc["height"]:
        raise refusal(f"root page {root_id} is at level {height}, but "
                      f"height is {doc['height']!r}", root_id, "height")
    min_entries = (_saved_min_entries(doc, path) if "min_entries" in doc
                   else None)      # format-v1 files may lack it

    def broken(message: str, page_id: int) -> None:
        if strict:
            raise refusal(message, page_id)

    order, kept, dropped = _tree_pages(where, refs, root_id, bad, broken)
    arena = _layout(ndim, where, coords, refs, order, kept)
    size = sum(count for _offset, count, level in arena.index.values()
               if level == LEAF_LEVEL)
    if strict and size != doc["size"]:
        raise refusal(f"size is {doc['size']!r}, but the leaves hold "
                      f"{size} entries", None, "size")

    tree = RStarTree(ndim, max_entries)
    tree.pager.free(tree.root_id)      # drop the constructor's empty root
    if min_entries is not None:
        tree.min_entries = min_entries
    tree.pager.install(ArenaPages(arena, tree.clock), arena.index)
    tree._adopt_arena(arena)
    tree.root_id = root_id
    tree.height = height
    tree.size = size
    if not strict:
        report.corrupt_pages = list(bad)
        report.dropped_entries = dropped
        if bad or dropped:
            report.orphaned_pages = sorted(set(where) - set(order))
        saved = doc["size"]
        report.lost_objects = max(0, saved - size) \
            if type(saved) is int else 0
        tree.corruption_report = report
    return tree


def verify_tree_file(path: str | Path) -> CorruptionReport:
    """Check a tree file's integrity without keeping the tree.

    Loads leniently and returns the :class:`CorruptionReport`; raises
    only for files that are malformed or unrecoverable (a corrupt root,
    or one whose level is not the height).
    """
    return load_tree(path, strict=False).corruption_report


def _tree_document(path: Path) -> dict:
    """A tree file's JSON document, its format and its required fields
    checked."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedFileError(
            f"{path}: invalid JSON: {exc}", path=path) from None
    if not isinstance(doc, dict):
        raise MalformedFileError(
            f"{path}: tree document must be a JSON object, "
            f"got {type(doc).__name__}", path=path)
    fmt = doc.get("format")
    if fmt not in _SUPPORTED_FORMATS:
        raise MalformedFileError(
            f"{path}: unsupported tree format {fmt!r} "
            f"(expected one of {_SUPPORTED_FORMATS})",
            path=path, field="format")
    for field in _REQUIRED_DOC_FIELDS:
        if field not in doc:
            raise MalformedFileError(
                f"{path}: tree document is missing required field "
                f"{field!r}", path=path, field=field)
    if not isinstance(doc["nodes"], dict):
        raise MalformedFileError(
            f"{path}: 'nodes' must be an object mapping page ids to "
            f"node records", path=path, field="nodes")
    return doc


def _saved_int(doc: dict, field: str, least: int, path: Path) -> int:
    """The document's integer ``field``, at least ``least`` (a bool is
    not an integer here)."""
    value = doc[field]
    if type(value) is not int or value < least:
        raise MalformedFileError(
            f"{path}: {field} must be an integer >= {least}, "
            f"got {value!r}", path=path, field=field)
    return value


def _saved_min_entries(doc: dict, path: Path) -> int:
    """The document's ``min_entries``: an integer in
    ``1 .. max_entries // 2``, as every tree's constructor makes it."""
    value = doc["min_entries"]
    if type(value) is not int \
            or not 1 <= value <= doc["max_entries"] // 2:
        raise MalformedFileError(
            f"{path}: min_entries must be an integer in 1.."
            f"{doc['max_entries'] // 2}, got {value!r}",
            path=path, field="min_entries")
    return value


def _checked_pages(nodes: dict, encoded: dict[str, bytes] | None,
                   ndim: int, path: Path,
                   ) -> tuple[dict, np.ndarray, np.ndarray, dict[int, str]]:
    """Every page record checked on its own, in file order.

    Returns ``where``, page id -> ``(offset, count, level)`` of each
    page that passed into ``coords`` (``(2, ndim, n)``) and ``refs``,
    its entries' columns, and ``bad``, page id -> why, of the rest.
    In a checksummed file (``encoded`` is not ``None``), a record's
    CRC is read from its entries' encoding there.
    """
    pages: dict[int, tuple[int, list]] = {}
    bad: dict[int, str] = {}
    for key, payload in nodes.items():
        try:
            page_id = int(key)
        except ValueError:
            raise MalformedFileError(
                f"{path}: non-integer page id {key!r}",
                path=path, field="nodes") from None
        pages.pop(page_id, None)
        bad.pop(page_id, None)
        try:
            level, entries = payload["level"], payload["entries"]
            if encoded is not None and payload["crc"] != _node_crc_of(
                    level, encoded[key]):
                bad[page_id] = f"node {page_id} failed its checksum"
                continue
        except (KeyError, TypeError):
            bad[page_id] = f"node {page_id} is unreadable"
            continue
        if type(level) is not int or level < LEAF_LEVEL:
            bad[page_id] = (f"node {page_id}: level {level!r} is not an "
                            f"integer >= {LEAF_LEVEL}")
        elif type(entries) is not list:
            bad[page_id] = f"node {page_id}: entries is not a list"
        else:
            pages[page_id] = level, entries
    try:
        coords, refs = _columns(
            list(chain.from_iterable(e for _l, e in pages.values())), ndim)
    except ValueError:
        # Find the pages at fault, and read the others.
        for page_id, (_level, entries) in list(pages.items()):
            try:
                _columns(entries, ndim)
            except ValueError as exc:
                bad[page_id] = f"node {page_id}: {exc}"
                del pages[page_id]
        coords, refs = _columns(
            list(chain.from_iterable(e for _l, e in pages.values())), ndim)
    where = {}
    offset = 0
    for page_id, (level, entries) in pages.items():
        where[page_id] = (offset, len(entries), level)
        offset += len(entries)
    order = {int(key): None for key in nodes}
    return where, coords, refs, {p: bad[p] for p in order if p in bad}


def _columns(entries: list, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The corners (``(2, ndim, n)`` float64) and the int64 refs of
    ``n`` saved entries ``[lo, hi, ref]``, checked by column as
    ``Rect(lo, hi)`` checks one rectangle; ``ValueError`` saying what
    is wrong."""
    if not entries:
        return np.empty((2, ndim, 0)), np.empty(0, np.int64)
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {3}:
        raise ValueError("an entry is not a list [lo, hi, ref]")
    refs = list(map(itemgetter(2), entries))
    if set(map(type, refs)) != {int}:
        raise ValueError("a ref is not an integer")
    corners = [*map(itemgetter(0), entries), *map(itemgetter(1), entries)]
    if set(map(type, corners)) != {list} \
            or set(map(len, corners)) != {ndim}:
        raise ValueError(f"a corner is not a list of {ndim} coordinates")
    try:
        # Each coordinate read as ``float()`` reads it.
        coords = np.fromiter(chain.from_iterable(corners), np.float64,
                             len(corners) * ndim)
        refs = np.array(refs, np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"unreadable entries ({exc})") from None
    coords = coords.reshape(2, len(entries), ndim).transpose(0, 2, 1)
    if not np.isfinite(coords).all():
        raise ValueError("a coordinate is not finite")
    if (coords[1] < coords[0]).any():
        raise ValueError("a rectangle has hi < lo")
    return coords, refs


def _tree_pages(where: dict, refs: np.ndarray, root_id: int,
                bad: dict[int, str], broken,
                ) -> tuple[list[int], dict[int, list[bool]], int]:
    """The pages of the tree, breadth-first from the root, as
    ``TreeArena.build`` walks ``tree.nodes()``.

    An internal entry is followed when it points at a checked page one
    level down that no entry followed before; one that points at a
    quarantined page (in ``bad``) is dropped, and one that breaks the
    structure is reported to ``broken(message, page_id)`` (which raises
    in a strict load) and dropped.  Returns the pages, the entries each
    page that lost some keeps (a flag per entry) and the number dropped.
    """
    order = [root_id]
    seen = {root_id}
    kept: dict[int, list[bool]] = {}
    dropped = 0
    for page_id in order:              # grows as children are found
        offset, count, level = where[page_id]
        if level == LEAF_LEVEL:
            continue
        keep = []
        for i, child in enumerate(refs[offset:offset + count].tolist()):
            if child not in where:
                why = None if child in bad else "which does not exist"
            elif where[child][2] != level - 1:
                why = f"at level {where[child][2]}, not {level - 1}"
            elif child in seen:
                why = "which another entry points at"
            else:
                seen.add(child)
                order.append(child)
                keep.append(True)
                continue
            if why is not None:
                broken(f"node {page_id} entry {i} points at page {child}, "
                       f"{why}", page_id)
            keep.append(False)
        if not all(keep):
            kept[page_id] = keep
            dropped += keep.count(False)
    return order, kept, dropped


def _layout(ndim: int, where: dict, coords: np.ndarray, refs: np.ndarray,
            order: list[int], kept: dict[int, list[bool]]) -> TreeArena:
    """The tree's arena: the entries of the pages in ``order`` gathered
    from the checked columns, without those ``kept`` drops.

    After a drop, each ancestor of a node that lost entries but kept
    some is re-bounded, bottom-up: its entry becomes the MBR of the
    node's entries (:func:`segment_bounds`, ``Node.mbr()`` bit for bit),
    as an insert expects (:meth:`~repro.rtree.RTreeBase._grow_path`);
    an entry whose child lost all of its entries keeps its rectangle.
    """
    rows = np.array([where[page_id] for page_id in order],
                    np.int64).reshape(-1, 3)
    slots = run_slots(rows[:, 0], rows[:, 1])
    if kept:
        keep = np.ones(len(slots), bool)
        first = np.cumsum(rows[:, 1]) - rows[:, 1]
        for k, page_id in enumerate(order):
            if page_id in kept:
                keep[first[k]:first[k] + rows[k, 1]] = kept[page_id]
                rows[k, 1] = sum(kept[page_id])
        slots = slots[keep]
    index = {}
    offset = 0
    for page_id, (_offset, count, level) in zip(order, rows.tolist()):
        index[page_id] = (offset, count, level)
        offset += count
    # Filled in place: the kernels read an arena C-contiguous.
    arena_coords = np.empty((2, ndim, len(slots)))
    arena_coords[...] = coords[:, :, slots]
    arena_refs = refs[slots]
    dirty = {page_id for page_id in kept if index[page_id][1]}
    for page_id in reversed(order if dirty else ()):
        first, count, level = index[page_id]
        if level == LEAF_LEVEL:
            continue
        for slot, child in enumerate(
                arena_refs[first:first + count].tolist(), first):
            if child in dirty:
                start, size, _level = index[child]
                arena_coords[:, :, slot] = segment_bounds(
                    arena_coords[:, :, start:start + size],
                    np.zeros(1, np.intp))[:, :, 0]
                dirty.add(page_id)
    return TreeArena(ndim, len(slots), index, arena_coords, arena_refs)
