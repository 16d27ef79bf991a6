"""Simulated paged storage: pager, buffer managers, access statistics."""

from .buffers import (BufferManager, LRUBuffer, NoBuffer, PathBuffer,
                      buffer_from_spec)
from .pager import PAGE_SIZE_1K, MeteredReader, Pager, node_capacity
from .stats import AccessStats

__all__ = [
    "AccessStats",
    "BufferManager",
    "LRUBuffer",
    "MeteredReader",
    "NoBuffer",
    "PAGE_SIZE_1K",
    "Pager",
    "PathBuffer",
    "buffer_from_spec",
    "node_capacity",
]
