"""On-NVM object layout (paper §4.2, Figure 4).

An *object* is the basic access unit: a key-value pair plus co-located
object metadata (the authors' implementation choice) and the durability
flag that powers the hybrid read scheme. Layout::

    +--------+-------+------+------+-----+-----+--------+--------+------+
    | magic  | flags | klen | rsv  | vlen| crc | pre_ptr| nxt_ptr|  ts  |
    |  u16   |  u8   | u16  |  u8  | u32 | u32 |  u64   |  u64   | u64  |
    +--------+-------+------+------+-----+-----+--------+--------+------+
    | key bytes ... | value bytes ...                                   |
    +------------------------------------------------------------------+

* ``flags`` — VALID (allocated, not timed out), DURABLE (verified +
  persisted; *the* durability flag), TRANS (migrated by log cleaning).
* ``crc`` — CRC-32 over the value, computed by the writing client and
  recorded by the server at allocation (§4.3.1 step 2).
* ``pre_ptr`` / ``nxt_ptr`` — version list links (§4.2.2); encoded with
  :func:`pack_ptr` so a pointer also names which data pool it targets.
* ``ts`` — server receive time, for background-thread timeout
  invalidation (§4.3.2).

:data:`OBJECT_HEADER` is the one declaration of this format;
:func:`build_header` and :func:`parse_object` run on the codec compiled
from it.

The header and key are written (and persisted, scheme permitting) by the
server at allocation; only the value travels by client RDMA WRITE — so
the CRC needs to cover only the value, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crc.crc32 import crc32_fast
from repro.errors import CorruptObjectError
from repro.mem.layout import StructLayout

__all__ = [
    "OBJ_MAGIC",
    "FLAG_VALID",
    "FLAG_DURABLE",
    "FLAG_TRANS",
    "OBJECT_HEADER",
    "HEADER_SIZE",
    "object_size",
    "pack_ptr",
    "unpack_ptr",
    "NULL_PTR",
    "ObjectImage",
    "parse_header",
    "parse_object",
    "build_header",
    "value_intact",
]

OBJ_MAGIC = 0xEF0B

FLAG_VALID = 0x01
FLAG_DURABLE = 0x02
FLAG_TRANS = 0x04

# Field order keeps every u64 8-byte aligned (objects start cacheline
# aligned), so pointer fix-ups during log cleaning are atomic stores.
OBJECT_HEADER = StructLayout(
    "object_header",
    [
        ("magic", "H"),
        ("flags", "B"),
        ("rsv", "B"),
        ("klen", "H"),
        ("rsv2", "H"),
        ("vlen", "I"),
        ("crc", "I"),
        ("pre_ptr", "Q"),
        ("nxt_ptr", "Q"),
        ("ts", "Q"),
    ],
)
HEADER_SIZE = OBJECT_HEADER.size  # 40 bytes

#: Null version pointer (no previous/next version).
NULL_PTR = 0

_PTR_POOL_SHIFT = 62
_PTR_OFF_MASK = (1 << 62) - 1


def object_size(klen: int, vlen: int) -> int:
    """Total on-pool footprint of an object (header + key + value)."""
    return HEADER_SIZE + klen + vlen


def pack_ptr(pool: int, offset: int) -> int:
    """Encode a version pointer: pool id (0/1) + pool-relative offset.

    Stored as ``offset + 1`` so that 0 remains the null pointer.
    """
    if pool not in (0, 1):
        raise ValueError(f"pool must be 0 or 1, got {pool}")
    if not 0 <= offset < _PTR_OFF_MASK:
        raise ValueError(f"offset {offset} out of pointer range")
    return (pool << _PTR_POOL_SHIFT) | (offset + 1)


def unpack_ptr(ptr: int) -> tuple[int, int] | None:
    """Decode a version pointer; ``None`` for the null pointer."""
    if ptr == NULL_PTR:
        return None
    return (ptr >> _PTR_POOL_SHIFT) & 1, (ptr & _PTR_OFF_MASK) - 1


#: The compiled header codec; its fields are positional, in the order
#: :data:`OBJECT_HEADER` declares them.
_HEADER = OBJECT_HEADER.struct
_pack_header = _HEADER.pack
_unpack_header = _HEADER.unpack_from


def build_header(
    *,
    flags: int,
    klen: int,
    vlen: int,
    crc: int,
    pre_ptr: int = NULL_PTR,
    nxt_ptr: int = NULL_PTR,
    ts: int = 0,
) -> bytes:
    """Pack an object header (``rsv`` and ``rsv2`` are zero)."""
    return _pack_header(OBJ_MAGIC, flags, 0, klen, 0, vlen, crc, pre_ptr, nxt_ptr, ts)


@dataclass(slots=True)
class ObjectImage:
    """A parsed object as fetched from (simulated) memory."""

    flags: int
    klen: int
    vlen: int
    crc: int
    pre_ptr: int
    nxt_ptr: int
    ts: int
    key: bytes
    value: bytes
    #: True when the raw bytes parsed cleanly (magic/lengths sane).
    well_formed: bool = True

    @property
    def valid(self) -> bool:
        return bool(self.flags & FLAG_VALID)

    @property
    def durable(self) -> bool:
        return bool(self.flags & FLAG_DURABLE)

    @property
    def transferred(self) -> bool:
        return bool(self.flags & FLAG_TRANS)


def parse_header(raw: bytes | bytearray | memoryview):
    """Parse just a header (first :data:`HEADER_SIZE` bytes of ``raw``);
    returns the header record, or ``None`` when the magic is wrong (torn
    or unallocated space)."""
    if len(raw) < HEADER_SIZE:
        return None
    hdr = OBJECT_HEADER.unpack_from(raw)
    return hdr if hdr.magic == OBJ_MAGIC else None


def parse_object(raw: bytes | bytearray | memoryview) -> ObjectImage:
    """Parse raw object bytes (header + key + value).

    Never raises on corrupt contents — a torn object is *data*, not an
    error; ``well_formed=False`` flags headers too mangled to interpret
    (readers then treat the object as failing verification).
    """
    if len(raw) < HEADER_SIZE:
        raise CorruptObjectError(
            f"object fragment of {len(raw)} bytes is smaller than a header"
        )
    magic, flags, _, klen, _, vlen, crc, pre_ptr, nxt_ptr, ts = _unpack_header(raw)
    key_end = HEADER_SIZE + klen
    end = key_end + vlen
    if magic == OBJ_MAGIC and end <= len(raw):
        key = raw[HEADER_SIZE:key_end]
        value = raw[key_end:end]
        if type(raw) is not bytes:
            key = bytes(key)
            value = bytes(value)
        return ObjectImage(flags, klen, vlen, crc, pre_ptr, nxt_ptr, ts, key, value)
    return ObjectImage(flags, klen, vlen, crc, pre_ptr, nxt_ptr, ts, b"", b"", False)


def value_intact(img: ObjectImage) -> bool:
    """The one intact-value rule: the image parsed, its value has the
    length its header declares, and the value's CRC matches the header's.
    Pure: a caller charges the CRC time and adds its own conditions
    (key, flags, fingerprint)."""
    return (
        img.well_formed
        and img.vlen == len(img.value)
        and crc32_fast(img.value) == img.crc
    )
