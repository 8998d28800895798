"""NVM-resident bucketized hash table (eFactory-style index, §4.2.2).

The table lives in registered NVM so that clients can fetch hash entries
with one-sided RDMA READs (GET step 1–2). Both sides therefore share a
single binary layout and the same deterministic hash (FNV-1a 64).

Entry layout (32 bytes)::

    fp   u64   key fingerprint (FNV-1a 64); 0 = empty entry
    cur  u64   packed slot: the latest version in the *working* pool
    alt  u64   packed slot: the copy in the *new* pool during log cleaning
    rsv  u64   reserved

A packed slot encodes ``valid(1) | pool(1) | size(22) | offset(40)`` so a
hash-entry update is a single 8-byte atomic NVM store — the property all
the paper's schemes rely on for metadata atomicity. ``size`` is the total
object footprint, letting a client fetch the object with exactly one
READ.

Buckets hold ``slots_per_bucket`` entries; inserts linear-probe whole
buckets up to ``probe_limit``. A client that misses in the home bucket
falls back to the RPC read path (the server probes further) — with the
load factors used in the experiments this is rare.

Host cost: the table is mostly empty (a dozen live keys in 32 768
entries is typical), so nothing here pays per entry. Sweeps ask
:meth:`NvmHashTable.next_occupied` — a NumPy search over the fingerprint
words of a bounded window, viewed in place — and only decode the entries
it reports; a probe reads its whole window once. Both account in
``BufferStats.bytes_read`` for the entries a one-by-one walk would have
loaded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.errors import StoreError
from repro.mem.layout import StructLayout
from repro.nvm.device import NVMDevice
from repro.sim.rng import fnv1a_64

__all__ = [
    "ENTRY_LAYOUT",
    "ENTRY_SIZE",
    "Slot",
    "HashTableGeometry",
    "NvmHashTable",
    "key_fingerprint",
    "partition_of_fp",
    "client_lookup_bucket",
]

ENTRY_LAYOUT = StructLayout(
    "hash_entry",
    [("fp", "Q"), ("cur", "Q"), ("alt", "Q"), ("rsv", "Q")],
)
ENTRY_SIZE = ENTRY_LAYOUT.size  # 32

#: ``fp`` is the first word of an entry; the searches below rely on it.
_WORDS_PER_ENTRY = ENTRY_SIZE // 8
assert ENTRY_LAYOUT.offset_of("fp") == 0

#: Entries per :meth:`NvmHashTable.next_occupied` search window: starts
#: small so a dense table pays little per hit, doubles while windows come
#: up empty, and is capped so the search's temporaries stay far below the
#: allocator's mmap threshold (a whole-table temporary per call costs
#: more in page faults than the walk it replaces).
_SCAN_WINDOW_MIN = 256
_SCAN_WINDOW_MAX = 4096


@lru_cache(maxsize=None)
def _fp_words(n_entries: int) -> struct.Struct:
    """Unpacks the ``fp`` word of ``n_entries`` consecutive entries."""
    return struct.Struct("<" + f"Q{ENTRY_SIZE - 8}x" * n_entries)

_OFF_BITS = 40
_SIZE_BITS = 22
_OFF_MASK = (1 << _OFF_BITS) - 1
_SIZE_MASK = (1 << _SIZE_BITS) - 1


class Slot(NamedTuple):
    """Decoded form of a packed 8-byte slot, and the one location type:
    where an object lives (pool id, pool-relative offset, total size).

    Pool ids are partition-local; a :class:`Slot` is only meaningful
    together with the partition that owns the pools. An immutable
    record whose ``hash`` and ``==`` are those of its field tuple, as a
    frozen dataclass of the same fields would give.
    """

    pool: int
    size: int
    offset: int

    def pack(self) -> int:
        pool, size, offset = self
        if pool not in (0, 1):
            raise StoreError(f"slot pool must be 0/1, got {pool}")
        if not 0 <= size <= _SIZE_MASK:
            raise StoreError(f"slot size {size} out of range")
        if not 0 <= offset <= _OFF_MASK:
            raise StoreError(f"slot offset {offset} out of range")
        return (1 << 63) | (pool << 62) | (size << _OFF_BITS) | offset

    @staticmethod
    def unpack(word: int) -> Optional["Slot"]:
        """Decode a packed slot; ``None`` when the valid bit is clear."""
        if not word >> 63:
            return None
        # Built as the tuple it is: Slot(...) adds the namedtuple's
        # keyword-argument frame.
        return tuple.__new__(
            Slot, ((word >> 62) & 1, (word >> _OFF_BITS) & _SIZE_MASK, word & _OFF_MASK)
        )


@dataclass(frozen=True)
class HashTableGeometry:
    """Shape of the table — identical on server and clients."""

    n_buckets: int
    slots_per_bucket: int = 4
    probe_limit: int = 4

    def __post_init__(self) -> None:
        if self.n_buckets <= 0 or self.slots_per_bucket <= 0:
            raise StoreError("hash table geometry must be positive")
        if self.probe_limit < 1:
            raise StoreError("probe_limit must be >= 1")

    @property
    def bucket_bytes(self) -> int:
        return self.slots_per_bucket * ENTRY_SIZE

    @property
    def table_bytes(self) -> int:
        return self.n_buckets * self.bucket_bytes

    def bucket_of(self, fp: int) -> int:
        return fp % self.n_buckets

    def bucket_offset(self, bucket: int) -> int:
        """Table-relative byte offset of a bucket (what a client READs)."""
        return (bucket % self.n_buckets) * self.bucket_bytes

    def entry_offset(self, bucket: int, slot_idx: int) -> int:
        return self.bucket_offset(bucket) + slot_idx * ENTRY_SIZE


def key_fingerprint(key: bytes) -> int:
    """Fingerprint shared by server and clients; never 0 (0 = empty)."""
    fp = fnv1a_64(key)
    return fp or 1


def partition_of_fp(fp: int, n_partitions: int) -> int:
    """Deterministic key→partition route, computed identically on server
    and clients (so the pure one-sided READ path needs no extra round
    trip to locate a key's shard).

    Uses the *high* fingerprint bits: ``bucket_of`` consumes the low
    bits (``fp % n_buckets``), so high-bit routing keeps the per-
    partition bucket distribution as uniform as the unpartitioned one.
    """
    if n_partitions <= 1:
        return 0
    return (fp >> 48) % n_partitions


class NvmHashTable:
    """Server-side operations on the table bytes.

    All methods are instant state transitions; the *time* for index
    work is charged by the request handlers (store configs name the
    constants) so that different schemes can model different index
    costs.
    """

    __slots__ = ("device", "base", "geom")

    def __init__(self, device: NVMDevice, base: int, geom: HashTableGeometry) -> None:
        self.device = device
        self.base = base
        self.geom = geom

    # -- entry access -------------------------------------------------------
    def read_entry(self, entry_off: int):
        return ENTRY_LAYOUT.unpack(
            self.device.buffer.read(self.base + entry_off, ENTRY_SIZE)
        )

    def _count_read(self, n_entries: int) -> None:
        """Account for entries examined through a view as loads."""
        self.device.buffer.stats.bytes_read += n_entries * ENTRY_SIZE

    def _search(self, fp: int) -> tuple[Optional[int], Optional[int]]:
        """Walk the probe window of ``fp``: ``(entry holding fp, None)``
        or ``(None, first empty entry or None)``, as entry offsets.

        Each contiguous run of buckets — one, or two when the window
        wraps past the last bucket — is read once and its fingerprints
        compared from a single unpack.
        """
        g = self.geom
        per_bucket = g.slots_per_bucket
        bucket_bytes = g.bucket_bytes
        bucket = g.bucket_of(fp)
        left = g.probe_limit
        free: Optional[int] = None
        examined = 0
        while left:
            run = min(left, g.n_buckets - bucket)
            off = bucket * bucket_bytes
            n = run * per_bucket
            fps = _fp_words(n).unpack(
                self.device.buffer.view(self.base + off, n * ENTRY_SIZE)
            )
            if fp in fps:
                k = fps.index(fp)
                self._count_read(examined + k + 1)
                return off + k * ENTRY_SIZE, None
            if free is None and 0 in fps:
                free = off + fps.index(0) * ENTRY_SIZE
            examined += n
            left -= run
            bucket = 0
        self._count_read(examined)
        return None, free

    def find(self, fp: int) -> Optional[int]:
        """Entry offset holding ``fp``, or None."""
        return self._search(fp)[0]

    def find_or_create(self, fp: int) -> int:
        """Entry offset for ``fp``, claiming an empty entry if new.

        The fingerprint is written (and ordered) before any slot becomes
        valid, so a torn insert leaves an entry with fp set and no valid
        slot — recovery treats that as absent.
        """
        found, free = self._search(fp)
        if found is not None:
            return found
        if free is None:
            raise StoreError(
                f"hash table overflow in bucket {self.geom.bucket_of(fp)} "
                f"(raise n_buckets or probe_limit)"
            )
        self.device.write_atomic64(
            self.base + free, ENTRY_LAYOUT.pack_field("fp", fp)
        )
        return free

    # -- slot words ----------------------------------------------------------
    def _write_word(self, entry_off: int, field: str, word: int) -> None:
        self.device.write_atomic64(
            self.base + entry_off + ENTRY_LAYOUT.offset_of(field),
            ENTRY_LAYOUT.pack_field(field, word),
        )

    def read_cur(self, entry_off: int) -> Optional[Slot]:
        return Slot.unpack(self.read_entry(entry_off).cur)

    def read_alt(self, entry_off: int) -> Optional[Slot]:
        return Slot.unpack(self.read_entry(entry_off).alt)

    def set_cur(self, entry_off: int, slot: Slot) -> None:
        self._write_word(entry_off, "cur", slot.pack())

    def set_alt(self, entry_off: int, slot: Slot) -> None:
        self._write_word(entry_off, "alt", slot.pack())

    def clear_cur(self, entry_off: int) -> None:
        self._write_word(entry_off, "cur", 0)

    def clear_alt(self, entry_off: int) -> None:
        self._write_word(entry_off, "alt", 0)

    def promote_alt(self, entry_off: int) -> None:
        """End of log cleaning: make the new-pool copy current.

        Equivalent to the paper's mark-bit flip + old-offset clear: two
        ordered 8-byte atomic stores (cur := alt, then alt := 0); a crash
        between them leaves both valid pointing at identical object
        contents, which recovery deduplicates.
        """
        entry = self.read_entry(entry_off)
        self._write_word(entry_off, "cur", entry.alt)
        self._write_word(entry_off, "alt", 0)

    def persist_entry(self, entry_off: int) -> None:
        """State-level flush of one entry (timing charged by caller)."""
        self.device.flush(self.base + entry_off, ENTRY_SIZE)

    # -- iteration (cleaning / recovery / scrubbing) ------------------------------
    def next_occupied(self, start: int, limit: int) -> Optional[int]:
        """How many empty entries precede the first occupied one
        (``fp != 0``) among the ``limit`` entries from index ``start``,
        wrapping past the table end; None when all ``limit`` are empty.

        The sweep primitive: the fingerprint words are searched in place
        a window at a time, and the skipped entries are counted as read.
        Call it afresh after every ``yield`` — it holds no view between
        calls, so the table may change under a paced sweep.
        """
        total = self.geom.n_buckets * self.geom.slots_per_bucket
        skipped = 0
        window = _SCAN_WINDOW_MIN
        while skipped < limit:
            idx = (start + skipped) % total
            n = min(window, limit - skipped, total - idx)
            raw = self.device.buffer.view(self.base + idx * ENTRY_SIZE, n * ENTRY_SIZE)
            fps = np.frombuffer(raw, dtype="<u8")[::_WORDS_PER_ENTRY]
            hits = fps.nonzero()[0]
            if hits.size:
                skipped += int(hits[0])
                self._count_read(skipped)
                return skipped
            skipped += n
            window = min(2 * window, _SCAN_WINDOW_MAX)
        self._count_read(limit)
        return None

    def iter_entries(self) -> Iterator[tuple[int, object]]:
        """Yield ``(entry_off, entry)`` for every non-empty entry."""
        total = self.geom.n_buckets * self.geom.slots_per_bucket
        i = 0
        while i < total:
            skipped = self.next_occupied(i, total - i)
            if skipped is None:
                return
            i += skipped
            off = i * ENTRY_SIZE
            yield off, self.read_entry(off)
            i += 1


def client_lookup_bucket(
    bucket_raw: bytes, fp: int, geom: HashTableGeometry
) -> Optional[tuple[Optional[Slot], Optional[Slot]]]:
    """Client-side parse of a fetched home bucket.

    Returns ``(cur, alt)`` for the entry matching ``fp`` (either may be
    None if invalid), or ``None`` when the fingerprint is not in this
    bucket (the client then falls back to the RPC read path, which
    probes further).
    """
    if len(bucket_raw) != geom.bucket_bytes:
        raise StoreError(
            f"bucket read returned {len(bucket_raw)} bytes, "
            f"expected {geom.bucket_bytes}"
        )
    for entry_fp, cur, alt, _rsv in ENTRY_LAYOUT.struct.iter_unpack(bucket_raw):
        if entry_fp == fp:
            return Slot.unpack(cur), Slot.unpack(alt)
    return None
