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
everything but the checksum itself.  :func:`load_tree` verifies both.
``strict=True`` (default) raises
:class:`~repro.reliability.CorruptPageError` on the first mismatch;
``strict=False`` *quarantines* corrupt subtrees and returns a degraded
but queryable tree whose ``corruption_report`` attribute (a
:class:`~repro.reliability.CorruptionReport`) says exactly what was
lost.  v1 files (no checksums) still load in either mode.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any

from .datasets import SpatialDataset
from .geometry import Rect
from .reliability import (CorruptionReport, CorruptPageError,
                          MalformedFileError)
from .rtree import Entry, Node, RStarTree, RTreeBase
from .rtree.node import LEAF_LEVEL, MutationClock

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

def _canonical(obj: Any) -> bytes:
    """Deterministic JSON bytes for checksumming (stable across loads)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _node_crc(level: int, entries: list) -> int:
    return zlib.crc32(_canonical({"level": level, "entries": entries}))


def _doc_crc(doc: dict) -> int:
    return zlib.crc32(_canonical(
        {k: v for k, v in doc.items() if k != "checksum"}))


def save_tree(tree: RTreeBase, path: str | Path) -> None:
    """Serialise a tree (any variant) to checksummed JSON (format v2)."""
    nodes = {}
    for node in tree.nodes():
        entries = [[list(e.rect.lo), list(e.rect.hi), e.ref]
                   for e in node.entries]
        nodes[str(node.page_id)] = {
            "level": node.level,
            "entries": entries,
            "crc": _node_crc(node.level, entries),
        }
    doc = {
        "format": TREE_FORMAT_VERSION,
        "ndim": tree.ndim,
        "max_entries": tree.max_entries,
        "min_entries": tree.min_entries,
        "height": tree.height,
        "size": tree.size,
        "root_id": tree.root_id,
        "nodes": nodes,
    }
    doc["checksum"] = _doc_crc(doc)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_tree(path: str | Path, strict: bool = True) -> RStarTree:
    """Rebuild a tree saved by :func:`save_tree`.

    The result is an :class:`RStarTree` regardless of the original
    variant (the stored structure is what matters; R* policies govern
    only *future* inserts).  Page ids, node contents and therefore all
    access counts are preserved exactly, and so is ``min_entries``
    (when the file carries it; format-v1 files may not), so future
    inserts split and condense as they would have in the saved tree.

    Parameters
    ----------
    strict:
        ``True`` (default): any checksum mismatch raises
        :class:`~repro.reliability.CorruptPageError`.  ``False``:
        corrupt nodes are quarantined — their parent entries are
        dropped — and the returned (degraded, still queryable) tree
        carries a ``corruption_report`` attribute.  A corrupt *root*
        cannot be degraded around and raises in both modes.

    Raises
    ------
    MalformedFileError
        Invalid JSON, unsupported format, missing/ill-typed fields, or
        a ``min_entries`` outside ``1 .. max_entries // 2``.
    CorruptPageError
        Checksum mismatch (strict mode, or an unrecoverable root).
    """
    path = Path(path)
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

    checksummed = fmt >= 2
    report = CorruptionReport(path=str(path), checksummed=checksummed)

    if checksummed:
        stored = doc.get("checksum")
        if stored != _doc_crc(doc):
            if strict:
                raise CorruptPageError(
                    f"{path}: document checksum mismatch "
                    f"(stored {stored!r})")
            report.document_checksum_ok = False

    # Parse and verify every node before installing any; the nodes go
    # on the new tree's clock.
    tree = RStarTree(_saved_int(doc, "ndim", 1, path),
                     _saved_int(doc, "max_entries", 2, path))
    tree.pager.free(tree.root_id)      # drop the constructor's empty root
    good: dict[int, Node] = {}
    for page_id_str, payload in doc["nodes"].items():
        try:
            page_id = int(page_id_str)
        except ValueError:
            raise MalformedFileError(
                f"{path}: non-integer page id {page_id_str!r}",
                path=path, field="nodes") from None
        node, why = _parse_node(page_id, payload, checksummed, tree.clock)
        if node is not None:
            good[page_id] = node
            continue
        if strict:
            if why == "crc":
                raise CorruptPageError(
                    f"{path}: node {page_id} failed its checksum",
                    page_id)
            raise MalformedFileError(
                f"{path}: node {page_id} is malformed", path=path,
                field="nodes")
        report.corrupt_pages.append(page_id)

    root_id = doc["root_id"]
    if root_id not in good:
        raise CorruptPageError(
            f"{path}: root page {root_id} is missing or corrupt; "
            f"the tree cannot be loaded even leniently", root_id)

    if "min_entries" in doc:           # format-v1 files may lack it
        tree.min_entries = _saved_min_entries(doc, path)

    if report.corrupt_pages:
        reachable, lost_entries = _install_degraded(tree, good, root_id,
                                                    report)
        tree.size = sum(len(good[p].entries) for p in reachable
                        if good[p].level == LEAF_LEVEL)
        report.dropped_entries = lost_entries
        report.lost_objects = max(0, int(doc["size"]) - tree.size)
    else:
        for page_id, node in good.items():
            tree.pager.put(page_id, node)
        tree.size = doc["size"]

    tree.root_id = root_id
    tree.height = doc["height"]
    if not strict:
        tree.corruption_report = report
    return tree


def verify_tree_file(path: str | Path) -> CorruptionReport:
    """Check a tree file's integrity without keeping the tree.

    Loads leniently and returns the :class:`CorruptionReport`; raises
    only for files that are malformed or unrecoverable (corrupt root).
    """
    return load_tree(path, strict=False).corruption_report


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


def _parse_node(page_id: int, payload: Any, checksummed: bool,
                clock: MutationClock) -> tuple[Node | None, str | None]:
    """Verify and build one node; ``(None, reason)`` on failure."""
    try:
        level = payload["level"]
        raw_entries = payload["entries"]
        if checksummed and payload["crc"] != _node_crc(level, raw_entries):
            return None, "crc"
        entries = [Entry(Rect(lo, hi), ref)
                   for lo, hi, ref in raw_entries]
        return Node(page_id, level, entries, clock), None
    except (KeyError, TypeError, ValueError):
        # Unreadable payloads in a checksummed file are corruption (the
        # CRC cannot be trusted either); in a v1 file they are malformed.
        return None, "crc" if checksummed else "shape"


def _install_degraded(tree: RStarTree, good: dict[int, Node],
                      root_id: int, report: CorruptionReport,
                      ) -> tuple[set[int], int]:
    """Install only the subtree still provably intact; prune the rest.

    Walks from the root, dropping internal entries whose child page was
    quarantined (or is simply absent).  Pages that verified fine but hang
    below a quarantined ancestor become *orphans* and are not installed.
    The ancestors of a node that lost entries are re-bounded, bottom-up,
    so every entry is again its child's ``Node.mbr()``, as an insert
    expects (:meth:`~repro.rtree.RTreeBase._grow_path`); an entry whose
    child lost all of its entries keeps its stored rectangle.
    """
    corrupt = set(report.corrupt_pages)
    reachable: set[int] = set()
    parent_of: dict[int, int] = {}
    shrunk = []
    dropped = 0
    stack = [root_id]
    while stack:
        page_id = stack.pop()
        if page_id in reachable:
            continue
        reachable.add(page_id)
        node = good[page_id]
        if node.level == LEAF_LEVEL:
            continue
        kept = []
        for entry in node.entries:
            child = entry.ref
            if child in good and child not in corrupt:
                kept.append(entry)
                stack.append(child)
                parent_of.setdefault(child, page_id)
            else:
                dropped += 1
        if len(kept) != len(node.entries):
            node.entries[:] = kept
            shrunk.append(page_id)
    for page_id in shrunk:
        while page_id != root_id and good[page_id].entries:
            parent = good[parent_of[page_id]]
            i = parent.entry_for_child(page_id)
            parent.entries[i] = Entry(good[page_id].mbr(), page_id)
            page_id = parent.page_id
    for page_id in reachable:
        tree.pager.put(page_id, good[page_id])
    report.orphaned_pages = sorted(set(good) - reachable)
    return reachable, dropped
