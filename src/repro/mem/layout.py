"""Declarative binary struct layouts.

The stores in this library keep *all* of their server-side state —
objects, object metadata, hash buckets — as raw bytes inside a
:class:`~repro.mem.buffer.PersistentBuffer`, exactly because clients
access that state with one-sided RDMA reads of raw memory. This module
gives each on-NVM structure a single authoritative layout definition
shared by the server (which writes fields) and the client (which parses
bytes it fetched remotely).

Layouts are thin wrappers over :mod:`struct` with named fields, per-field
offsets (so a single field can be updated with one small — possibly
atomic — store), and fixed total size. The declaration is the single
source of a record's format; the codecs every call runs are compiled
from it once.

>>> hdr = StructLayout("demo", [("vlen", "I"), ("crc", "I"), ("pre", "Q")])
>>> hdr.size
16
>>> raw = hdr.pack(vlen=5, crc=0xDEAD, pre=0)
>>> hdr.unpack(raw).crc == 0xDEAD
True
"""

from __future__ import annotations

import struct
from typing import Any, NamedTuple

from repro.errors import ConfigError

__all__ = ["FieldSpec", "StructLayout"]

#: struct format codes accepted for fields (little-endian, no padding).
_ALLOWED = set("BHIQbhiq") | {"s"}


class FieldSpec(NamedTuple):
    """One field in a layout: name, struct code, byte offset, byte size."""

    name: str
    code: str
    offset: int
    size: int


class StructLayout:
    """A named, fixed-size little-endian binary record.

    Parameters
    ----------
    name:
        Diagnostic name.
    fields:
        Sequence of ``(field_name, code)`` where ``code`` is a single
        :mod:`struct` integer code (``B H I Q`` / signed variants) or
        ``"<N>s"`` for an N-byte opaque field.

    The declaration is compiled once, here: one :class:`struct.Struct`
    for the record (:attr:`struct`, which packs and unpacks the fields
    positionally in declaration order) and a name → (field, its own
    ``Struct``) map, so no call rebuilds a format string or a set, or
    scans the fields.
    """

    __slots__ = (
        "name",
        "fields",
        "size",
        "struct",
        "_names",
        "_tuple_type",
        "_by_name",
    )

    def __init__(self, name: str, fields: list[tuple[str, str]]) -> None:
        self.name = name
        specs: list[FieldSpec] = []
        offset = 0
        for fname, code in fields:
            base = code.lstrip("0123456789")
            if base not in _ALLOWED:
                raise ConfigError(f"{name}.{fname}: unsupported field code {code!r}")
            size = struct.calcsize("<" + code)
            specs.append(FieldSpec(fname, code, offset, size))
            offset += size
        names = tuple(fs.name for fs in specs)
        if len(set(names)) != len(names):
            raise ConfigError(f"layout {name} has duplicate field names")
        self.fields = tuple(specs)
        self.size = offset
        #: The whole record, compiled.
        self.struct = struct.Struct("<" + "".join(fs.code for fs in specs))
        self._names = names
        self._tuple_type = NamedTuple(  # type: ignore[misc]
            f"{name}_record", [(n, Any) for n in names]
        )
        self._by_name = {fs.name: (fs, struct.Struct("<" + fs.code)) for fs in specs}

    # -- whole-record ------------------------------------------------------
    def pack(self, **values: Any) -> bytes:
        """Pack a full record; every field must be supplied."""
        if len(values) == len(self._names):
            try:
                return self.struct.pack(*[values[n] for n in self._names])
            except KeyError:
                pass
        missing = set(self._names) - set(values)
        if missing:
            raise ConfigError(f"{self.name}.pack missing fields: {sorted(missing)}")
        extra = set(values) - set(self._names)
        raise ConfigError(f"{self.name}.pack unknown fields: {sorted(extra)}")

    def unpack(self, raw: bytes | bytearray | memoryview) -> Any:
        """Unpack ``raw`` (exactly :attr:`size` bytes) to a named tuple."""
        if len(raw) != self.size:
            raise ConfigError(
                f"{self.name}.unpack needs {self.size} bytes, got {len(raw)}"
            )
        return self._tuple_type._make(self.struct.unpack(raw))

    def unpack_from(self, raw: bytes | bytearray | memoryview, offset: int = 0) -> Any:
        """Unpack a record embedded at ``offset`` of a larger buffer."""
        return self._tuple_type._make(self.struct.unpack_from(raw, offset))

    # -- single-field ---------------------------------------------------------
    def _field(self, field: str) -> tuple[FieldSpec, struct.Struct]:
        try:
            return self._by_name[field]
        except KeyError:
            raise ConfigError(f"layout {self.name} has no field {field!r}") from None

    def spec(self, field: str) -> FieldSpec:
        return self._field(field)[0]

    def offset_of(self, field: str) -> int:
        return self._field(field)[0].offset

    def size_of(self, field: str) -> int:
        return self._field(field)[0].size

    def pack_field(self, field: str, value: Any) -> bytes:
        """Bytes for a single field — write at ``addr + offset_of(field)``."""
        return self._field(field)[1].pack(value)

    def unpack_field(self, field: str, raw: bytes, record_offset: int = 0) -> Any:
        """Extract one field from a buffer holding a record at
        ``record_offset``."""
        fs, compiled = self._field(field)
        (value,) = compiled.unpack_from(raw, record_offset + fs.offset)
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StructLayout {self.name} size={self.size} fields={self._names}>"
