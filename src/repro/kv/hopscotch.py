"""Hopscotch hash table with Erda's 8-byte atomic two-version region.

Erda (§5.3.3, §7) indexes objects with hopscotch hashing. Each bucket
packs "the address offset of the latest two versions in an 8-byte
region", updated with a single atomic store::

    fp      u64    key fingerprint (0 = empty)
    atomic  u64    off1(28) | off2(28) | tag(8)

Offsets are in 16-byte granules of the data pool (28 bits address 4 GiB)
and are stored +1 so 0 means "no version". ``off1`` is the latest
version, ``off2`` the previous — exactly two, which is the limitation
the eFactory paper criticises (multiple concurrent writers can need
deeper rollback than two versions; see the crash-consistency bench).

Hopscotch property: an entry lives within ``H`` slots of its home
bucket, so a client fetches ``H`` consecutive entries with one RDMA READ
and scans locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import StoreError
from repro.mem.layout import StructLayout
from repro.nvm.device import NVMDevice

__all__ = [
    "ERDA_ENTRY",
    "ERDA_ENTRY_SIZE",
    "ERDA_GRANULE",
    "TwoVersions",
    "HopscotchTable",
    "client_scan_neighborhood",
]

ERDA_ENTRY = StructLayout("erda_entry", [("fp", "Q"), ("atomic", "Q")])
ERDA_ENTRY_SIZE = ERDA_ENTRY.size  # 16

#: Pool offsets in the atomic region are in units of this many bytes.
ERDA_GRANULE = 16

_OFF_MASK = (1 << 28) - 1


@dataclass(frozen=True)
class TwoVersions:
    """Decoded 8-byte atomic region: latest two version offsets (bytes)."""

    off1: Optional[int]  # latest version, pool-relative bytes
    off2: Optional[int]  # previous version
    tag: int = 0

    def pack(self) -> int:
        def enc(off: Optional[int]) -> int:
            if off is None:
                return 0
            if off % ERDA_GRANULE:
                raise StoreError(f"offset {off} not {ERDA_GRANULE}-byte aligned")
            granule = off // ERDA_GRANULE + 1
            if granule > _OFF_MASK:
                raise StoreError(f"offset {off} exceeds 28-bit granule space")
            return granule

        return enc(self.off1) | (enc(self.off2) << 28) | ((self.tag & 0xFF) << 56)

    @staticmethod
    def unpack(word: int) -> "TwoVersions":
        def dec(granule: int) -> Optional[int]:
            return None if granule == 0 else (granule - 1) * ERDA_GRANULE

        return TwoVersions(
            off1=dec(word & _OFF_MASK),
            off2=dec((word >> 28) & _OFF_MASK),
            tag=(word >> 56) & 0xFF,
        )

    def push(self, new_off: int) -> "TwoVersions":
        """The region after a new version is published: the previous
        latest becomes off2, anything older falls off."""
        return TwoVersions(off1=new_off, off2=self.off1, tag=(self.tag + 1) & 0xFF)


class HopscotchTable:
    """Server-side hopscotch table over NVM bytes."""

    __slots__ = ("device", "base", "n_buckets", "H")

    def __init__(
        self, device: NVMDevice, base: int, n_buckets: int, H: int = 8
    ) -> None:
        if n_buckets <= 0 or H <= 0:
            raise StoreError("hopscotch geometry must be positive")
        self.device = device
        self.base = base
        self.n_buckets = n_buckets
        self.H = H

    # -- layout ---------------------------------------------------------------
    def home_of(self, fp: int) -> int:
        return fp % self.n_buckets

    def entry_offset(self, idx: int) -> int:
        """Table-relative byte offset of entry ``idx`` (mod table size)."""
        return (idx % self.n_buckets) * ERDA_ENTRY_SIZE

    @property
    def table_bytes(self) -> int:
        return self.n_buckets * ERDA_ENTRY_SIZE

    def neighborhood_offset(self, fp: int) -> tuple[int, int]:
        """(table-relative offset, length) of the home neighborhood —
        what a client fetches in one READ. Wraps are handled by reading
        to the table end then from the start; for simplicity the read
        spans ``min(H, buckets-home)`` entries and clients RPC-fallback
        past the wrap point."""
        home = self.home_of(fp)
        span = min(self.H, self.n_buckets - home)
        return home * ERDA_ENTRY_SIZE, span * ERDA_ENTRY_SIZE

    # -- entry io ----------------------------------------------------------------
    def _read(self, idx: int):
        raw = self.device.buffer.read(self.base + self.entry_offset(idx), ERDA_ENTRY_SIZE)
        return ERDA_ENTRY.unpack(raw)

    def _write_fp(self, idx: int, fp: int) -> None:
        addr = self.base + self.entry_offset(idx) + ERDA_ENTRY.offset_of("fp")
        self.device.write_atomic64(addr, ERDA_ENTRY.pack_field("fp", fp))

    def _write_atomic(self, idx: int, word: int) -> None:
        addr = self.base + self.entry_offset(idx) + ERDA_ENTRY.offset_of("atomic")
        self.device.write_atomic64(addr, ERDA_ENTRY.pack_field("atomic", word))

    # -- operations ------------------------------------------------------------------
    def lookup(self, fp: int) -> Optional[tuple[int, TwoVersions]]:
        """Find ``fp`` within its neighborhood; returns (entry idx, region)."""
        home = self.home_of(fp)
        for d in range(self.H):
            idx = home + d
            if idx >= self.n_buckets:
                break
            entry = self._read(idx)
            if entry.fp == fp:
                return idx, TwoVersions.unpack(entry.atomic)
        return None

    def insert_or_update(self, fp: int, new_off: int) -> TwoVersions:
        """Publish ``new_off`` as the latest version of ``fp``.

        Returns the new two-version region. Performs hopscotch
        displacement when the neighborhood is full.
        """
        found = self.lookup(fp)
        if found is not None:
            idx, region = found
            updated = region.push(new_off)
            self._write_atomic(idx, updated.pack())
            return updated

        idx = self._claim_slot(fp)
        region = TwoVersions(off1=new_off, off2=None, tag=1)
        self._write_fp(idx, fp)
        self._write_atomic(idx, region.pack())
        return region

    def _claim_slot(self, fp: int) -> int:
        """Find a free slot in the neighborhood, displacing if needed."""
        home = self.home_of(fp)
        # find first free slot at or after home (bounded scan)
        free = None
        for idx in range(home, min(home + 64 * self.H, self.n_buckets)):
            if self._read(idx).fp == 0:
                free = idx
                break
        if free is None:
            raise StoreError("hopscotch table full (resize not modelled)")
        # hop the free slot back into the neighborhood
        while free - home >= self.H:
            moved = False
            # try to move an entry whose home allows it to land on `free`
            for cand in range(free - self.H + 1, free):
                if cand < 0:
                    continue
                entry = self._read(cand)
                if entry.fp == 0:
                    continue
                cand_home = self.home_of(entry.fp)
                if free - cand_home < self.H:
                    # relocate cand -> free
                    self._write_fp(free, entry.fp)
                    self._write_atomic(free, entry.atomic)
                    self._write_fp(cand, 0)
                    self._write_atomic(cand, 0)
                    free = cand
                    moved = True
                    break
            if not moved:
                raise StoreError(
                    "hopscotch displacement failed (table too dense)"
                )
        return free


def client_scan_neighborhood(
    raw: bytes, fp: int
) -> Optional[TwoVersions]:
    """Client-side scan of a fetched neighborhood for ``fp``."""
    if len(raw) % ERDA_ENTRY_SIZE:
        raise StoreError("neighborhood read not a multiple of entry size")
    for i in range(len(raw) // ERDA_ENTRY_SIZE):
        entry = ERDA_ENTRY.unpack_from(raw, i * ERDA_ENTRY_SIZE)
        if entry.fp == fp:
            return TwoVersions.unpack(entry.atomic)
    return None
