"""Memory-state substrate: persistent buffers and binary layouts."""

from repro.mem.buffer import (
    CACHELINE,
    BufferStats,
    ImageCapture,
    ImageSnapshot,
    PersistentBuffer,
)
from repro.mem.layout import FieldSpec, StructLayout

__all__ = [
    "CACHELINE",
    "BufferStats",
    "ImageCapture",
    "ImageSnapshot",
    "PersistentBuffer",
    "FieldSpec",
    "StructLayout",
]
