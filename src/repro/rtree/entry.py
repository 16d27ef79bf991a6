"""R-tree entries.

An entry pairs a rectangle with a reference: in a leaf node the reference
is the object identifier (``oid``); in an internal node it is the page id
of the child node, and the rectangle is the child's MBR.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Rect

__all__ = ["Entry"]


@dataclass(frozen=True, slots=True)
class Entry:
    """One ``(rect, ref)`` slot of an R-tree node.

    ``ref`` is an object id at leaf level and a child page id above it;
    the containing node's ``level`` disambiguates.  Slotted: a leaf
    entry carries no ``__dict__``.
    """

    rect: Rect
    ref: int

    def __reduce__(self):
        # Pickle as a constructor call: smaller and faster than the
        # per-field state of a frozen slotted dataclass.
        return Entry, (self.rect, self.ref)

    def __repr__(self) -> str:
        return f"Entry({self.rect!r} -> {self.ref})"
