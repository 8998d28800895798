"""Memory-state substrate: persistent buffers and binary layouts."""

from repro.mem.buffer import CACHELINE, BufferStats, ImageSnapshot, PersistentBuffer
from repro.mem.layout import FieldSpec, StructLayout

__all__ = [
    "CACHELINE",
    "BufferStats",
    "ImageSnapshot",
    "PersistentBuffer",
    "FieldSpec",
    "StructLayout",
]
