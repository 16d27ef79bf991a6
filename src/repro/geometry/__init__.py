"""Geometric primitives: rectangles, columnar MBR views and arenas,
unit workspace."""

from .arena import (ArenaHandle, SharedArena, TreeArena,
                    arena_from_shared_memory, arena_to_shared_memory)
from .columnar import ColumnarMBRs
from .rect import Rect
from .workspace import Workspace, clamp_to_unit, density

__all__ = ["ArenaHandle", "ColumnarMBRs", "Rect", "SharedArena",
           "TreeArena", "Workspace", "arena_from_shared_memory",
           "arena_to_shared_memory", "clamp_to_unit", "density"]
