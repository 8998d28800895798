"""Parity + checksum-ledger integrity tier for the log pools.

Layout (per partition, per pool, carved after the log pools by
``EFactoryServer`` when ``EFactoryConfig.parity_stripe_kb > 0``):

* **parity region** — one :data:`PARITY_PAGE`-byte XOR parity page per
  ``parity_stripe_kb``-KiB stripe of the pool. A pool byte at offset
  ``o`` belongs to stripe ``o // stripe_bytes`` and parity column
  ``o % PARITY_PAGE`` (stripes are a multiple of the page size, so the
  column is stable across the stripe).
* **checksum ledger** — one 8-byte slot per ``pool.align`` granule:
  ``(size, crc32)`` of the *covered* object starting at that granule.
* **root line** — a CRC over the sorted ledger (a one-level Merkle
  collapse), persisted with each verifier batch; the cache-warm
  one-READ GET is verified against the ledger under it.

The DRAM copies are authoritative: parity pages and ledger entries are
kept in memory and written through to NVM so that every update creates
a real persist boundary for the crash matrix, but **no read path ever
trusts the NVM copies** — recovery deterministically recomputes parity,
ledger and root from the recovered pool contents and rewrites the full
regions, which keeps repeated recoveries byte-identical (idempotent)
even when a crash tore the integrity regions themselves.

Parity is XORed over *covered* bytes only. An object becomes covered
when the background verifier settles it (CRC verified + flushed), so
in-flight client WRITEs never skew the parity. Post-settle mutations of
covered bytes (flag invalidation, ``nxt_ptr`` forward links, cleaner
``pre_ptr`` splices) feed the old⊕new delta back into the parity page
and refresh the ledger CRC.

Reconstruction of a corrupted covered object replaces each overlapped
pool page in turn with ``parity ⊕ XOR(covered media bytes of the other
pages in the stripe)`` and hands the candidate to the caller's
validator (header parse, key fingerprint, value CRC); with at most one
faulted page per stripe exactly one candidate validates.

Without parity every partition holds :data:`ABSENT_TIER` instead — the
same interface, no state, events or reads — so no caller asks whether
the tier is on.

This module deliberately avoids importing the store layers — pools and
locations are duck-typed — so it can sit below ``baselines`` and
``core`` without cycles.
"""

from __future__ import annotations

import struct
from collections.abc import Generator
from typing import Any, Callable, Iterable, Optional

from repro.crc.cost import CRC_COST
from repro.crc.crc32 import crc32_fast
from repro.kv.objects import FLAG_DURABLE, OBJECT_HEADER, parse_object, value_intact
from repro.sim.kernel import Event

__all__ = [
    "ABSENT_TIER",
    "AbsentIntegrity",
    "LEDGER_SLOT",
    "PARITY_PAGE",
    "PartitionIntegrity",
    "PoolIntegrity",
    "integrity_region_bytes",
]

#: Parity granule: one XOR page guards this many bytes per stripe column.
PARITY_PAGE = 256
#: Bytes per checksum-ledger slot: ``<II`` = (object size, crc32).
LEDGER_SLOT = 8
#: Bytes reserved for the integrity-tree root (one cache line).
ROOT_LINE = 64

_FLAGS_OFF = OBJECT_HEADER.offset_of("flags")
_LEDGER = struct.Struct("<II")
_ROOT = struct.Struct("<II")


def integrity_region_bytes(pool_size: int, stripe_bytes: int, align: int) -> int:
    """Total NVM bytes one pool's parity + ledger + root regions need."""
    n_stripes = (pool_size + stripe_bytes - 1) // stripe_bytes
    return n_stripes * PARITY_PAGE + (pool_size // align) * LEDGER_SLOT + ROOT_LINE


class PoolIntegrity:
    """Parity pages + checksum ledger for a single log pool."""

    __slots__ = (
        "device",
        "pool",
        "stripe_bytes",
        "n_stripes",
        "parity_base",
        "ledger_base",
        "root_base",
        "parity",
        "entries",
        "dirty_stripes",
        "dirty_slots",
        "stale_stripes",
        "root_dirty",
    )

    def __init__(
        self, device: Any, pool: Any, stripe_bytes: int, region_base: int
    ) -> None:
        if stripe_bytes % PARITY_PAGE != 0:
            raise ValueError("stripe size must be a multiple of PARITY_PAGE")
        self.device = device
        self.pool = pool
        self.stripe_bytes = stripe_bytes
        self.n_stripes = (pool.size + stripe_bytes - 1) // stripe_bytes
        self.parity_base = region_base
        self.ledger_base = region_base + self.n_stripes * PARITY_PAGE
        self.root_base = self.ledger_base + (pool.size // pool.align) * LEDGER_SLOT
        #: stripe -> parity page (lazily materialised; absent == zeros).
        self.parity: dict[int, bytearray] = {}
        #: covered object offset -> (size, crc32 of the covered bytes).
        self.entries: dict[int, tuple[int, int]] = {}
        self.dirty_stripes: set[int] = set()
        self.dirty_slots: set[int] = set()
        #: Stripes whose parity can no longer be trusted until a rebuild
        #: (an object was re-covered without its old bytes).
        self.stale_stripes: set[int] = set()
        self.root_dirty = False

    # -- parity math --------------------------------------------------------
    def _page(self, stripe: int) -> bytearray:
        page = self.parity.get(stripe)
        if page is None:
            page = bytearray(PARITY_PAGE)
            self.parity[stripe] = page
        return page

    def _xor_range(self, offset: int, data: bytes) -> None:
        """XOR ``data`` (pool bytes at ``offset``) into the parity pages."""
        i, n = 0, len(data)
        while i < n:
            o = offset + i
            stripe = o // self.stripe_bytes
            take = min(n - i, self.stripe_bytes - o % self.stripe_bytes)
            page = self._page(stripe)
            col = o % PARITY_PAGE
            for j in range(take):
                page[(col + j) % PARITY_PAGE] ^= data[i + j]
            self.dirty_stripes.add(stripe)
            i += take

    def _stripes_of(self, offset: int, size: int) -> range:
        return range(offset // self.stripe_bytes, (offset + size - 1) // self.stripe_bytes + 1)

    # -- coverage -----------------------------------------------------------
    def covered_at(self, offset: int) -> bool:
        return offset in self.entries

    def covered(self, offset: int, size: int) -> bool:
        entry = self.entries.get(offset)
        return entry is not None and entry[0] == size

    def ledger_crc(self, offset: int) -> Optional[int]:
        entry = self.entries.get(offset)
        return None if entry is None else entry[1]

    def cover(self, offset: int, raw: bytes) -> None:
        """Record ``raw`` as the settled bytes of the object at ``offset``."""
        size = len(raw)
        crc = crc32_fast(raw)
        old = self.entries.get(offset)
        if old is not None:
            if old == (size, crc):
                return
            # Re-covered without the old image (shouldn't happen in the
            # log-structured flow — offsets are only reused after a pool
            # reset): the affected stripes' parity is untrustworthy.
            self.stale_stripes.update(self._stripes_of(offset, max(size, old[0])))
            self.entries[offset] = (size, crc)
            self.dirty_slots.add(offset)
            self.root_dirty = True
            return
        self.entries[offset] = (size, crc)
        self._xor_range(offset, raw)
        self.dirty_slots.add(offset)
        self.root_dirty = True

    def mutate(self, obj_off: int, field_off: int, old: bytes) -> bool:
        """A covered object's bytes at ``obj_off + field_off`` changed in
        place; ``old`` is their prior value. Folds old⊕new into the
        parity and refreshes the ledger CRC."""
        entry = self.entries.get(obj_off)
        if entry is None:
            return False
        size = entry[0]
        if field_off + len(old) > size:
            return False
        new = bytes(self.pool.read(obj_off + field_off, len(old)))
        if new != old:
            delta = bytes(a ^ b for a, b in zip(old, new))
            self._xor_range(obj_off + field_off, delta)
        raw = bytes(self.pool.read(obj_off, size))
        self.entries[obj_off] = (size, crc32_fast(raw))
        self.dirty_slots.add(obj_off)
        self.root_dirty = True
        return True

    # -- reconstruction -----------------------------------------------------
    def reconstruct_cost_bytes(self, offset: int, size: int) -> int:
        """Media bytes a reconstruction of this object has to read."""
        return len(self._stripes_of(offset, size)) * self.stripe_bytes

    def _reconstruct_page(self, pg: int) -> bytearray:
        """Rebuild pool page ``pg``'s covered bytes from stripe ⊕ parity."""
        stripe = (pg * PARITY_PAGE) // self.stripe_bytes
        out = bytearray(self._page(stripe))
        s_lo = stripe * self.stripe_bytes
        s_hi = min(s_lo + self.stripe_bytes, self.pool.size)
        pg_lo = pg * PARITY_PAGE
        pg_hi = pg_lo + PARITY_PAGE
        for off, (size, _crc) in self.entries.items():
            if off + size <= s_lo or off >= s_hi:
                continue
            lo = max(off, s_lo)
            hi = min(off + size, s_hi)
            data = self.pool.read(lo, hi - lo)
            for j in range(hi - lo):
                o = lo + j
                if pg_lo <= o < pg_hi:
                    continue
                out[o % PARITY_PAGE] ^= data[j]
        return out

    def reconstruct(
        self, offset: int, size: int, validate: Callable[[bytes], bool]
    ) -> Optional[bytes]:
        """Try to rebuild the covered object at ``offset`` in DRAM.

        Replaces each overlapped pool page (then, for cross-stripe
        objects, all pages at once) with its parity reconstruction and
        returns the first candidate accepted by ``validate``."""
        if not self.covered(offset, size):
            return None
        if any(s in self.stale_stripes for s in self._stripes_of(offset, size)):
            return None
        media = bytes(self.pool.read(offset, size))
        first_pg = offset // PARITY_PAGE
        last_pg = (offset + size - 1) // PARITY_PAGE
        pages: dict[int, bytearray] = {}
        for pg in range(first_pg, last_pg + 1):
            pages[pg] = self._reconstruct_page(pg)
            cand = bytearray(media)
            lo = max(offset, pg * PARITY_PAGE)
            hi = min(offset + size, (pg + 1) * PARITY_PAGE)
            cand[lo - offset : hi - offset] = pages[pg][
                lo - pg * PARITY_PAGE : hi - pg * PARITY_PAGE
            ]
            if validate(bytes(cand)):
                return bytes(cand)
        if last_pg > first_pg:
            # Faults in several pages of one object: as long as each
            # stripe holds at most one faulted page, splicing every
            # page's reconstruction at once yields the intact image.
            cand = bytearray(media)
            for pg in range(first_pg, last_pg + 1):
                lo = max(offset, pg * PARITY_PAGE)
                hi = min(offset + size, (pg + 1) * PARITY_PAGE)
                cand[lo - offset : hi - offset] = pages[pg][
                    lo - pg * PARITY_PAGE : hi - pg * PARITY_PAGE
                ]
            if validate(bytes(cand)):
                return bytes(cand)
        return None

    # -- NVM write-through --------------------------------------------------
    def root_value(self) -> int:
        """One-level Merkle collapse: CRC over the sorted ledger."""
        acc = 0
        for off in sorted(self.entries):
            size, crc = self.entries[off]
            acc = crc32_fast(struct.pack("<QII", off, size, crc), acc)
        return acc

    def root_line(self) -> bytes:
        return _ROOT.pack(self.root_value(), len(self.entries)).ljust(ROOT_LINE, b"\x00")

    def drain_dirty(self) -> list[tuple[int, int]]:
        """Write dirty parity pages / ledger slots / the root line
        through to NVM; return the (addr, length) ranges that now need a
        persist."""
        ranges: list[tuple[int, int]] = []
        for stripe in sorted(self.dirty_stripes):
            addr = self.parity_base + stripe * PARITY_PAGE
            self.device.buffer.write(addr, bytes(self._page(stripe)))
            ranges.append((addr, PARITY_PAGE))
        self.dirty_stripes.clear()
        for off in sorted(self.dirty_slots):
            addr = self.ledger_base + (off // self.pool.align) * LEDGER_SLOT
            entry = self.entries.get(off)
            blob = _LEDGER.pack(*entry) if entry is not None else bytes(LEDGER_SLOT)
            self.device.buffer.write(addr, blob)
            ranges.append((addr, LEDGER_SLOT))
        self.dirty_slots.clear()
        if self.root_dirty:
            self.device.buffer.write(self.root_base, self.root_line())
            ranges.append((self.root_base, ROOT_LINE))
            self.root_dirty = False
        return ranges

    def full_ranges(self) -> list[tuple[int, int]]:
        """Write the complete deterministic region images (including
        zeroed uncovered slots) and return their persist ranges. Used by
        recovery so the regions are a pure function of pool contents."""
        parity = bytearray(self.n_stripes * PARITY_PAGE)
        for stripe, page in self.parity.items():
            parity[stripe * PARITY_PAGE : (stripe + 1) * PARITY_PAGE] = page
        self.device.buffer.write(self.parity_base, bytes(parity))
        ledger = bytearray((self.pool.size // self.pool.align) * LEDGER_SLOT)
        for off, entry in self.entries.items():
            i = (off // self.pool.align) * LEDGER_SLOT
            ledger[i : i + LEDGER_SLOT] = _LEDGER.pack(*entry)
        self.device.buffer.write(self.ledger_base, bytes(ledger))
        self.device.buffer.write(self.root_base, self.root_line())
        self.dirty_stripes.clear()
        self.dirty_slots.clear()
        self.root_dirty = False
        return [
            (self.parity_base, len(parity)),
            (self.ledger_base, len(ledger)),
            (self.root_base, ROOT_LINE),
        ]

    def clear(self) -> None:
        """Drop all parity, coverage and pending write-through."""
        self.parity.clear()
        self.entries.clear()
        self.dirty_stripes.clear()
        self.dirty_slots.clear()
        self.stale_stripes.clear()

    def reset(self) -> None:
        """The pool was reset (log cleaning / repl_reset): drop all
        coverage and zero the NVM regions."""
        self.clear()
        self.root_dirty = True
        self.device.buffer.write(self.parity_base, bytes(self.n_stripes * PARITY_PAGE))
        self.device.buffer.write(
            self.ledger_base, bytes((self.pool.size // self.pool.align) * LEDGER_SLOT)
        )
        self.device.buffer.write(self.root_base, bytes(ROOT_LINE))
        self.device.flush(self.parity_base, self.root_base + ROOT_LINE - self.parity_base)


class PartitionIntegrity:
    """Per-partition facade tying the pools' parity/ledger state to the
    verifier batches, the scrubber and recovery."""

    def __init__(
        self,
        device: Any,
        env: Any,
        config: Any,
        pools: Iterable[Any],
        region_base: int,
    ) -> None:
        self.device = device
        self.env = env
        self.stripe_bytes = int(config.parity_stripe_kb) * 1024
        self.by_pool: list[PoolIntegrity] = []
        base = region_base
        for pool in pools:
            pi = PoolIntegrity(device, pool, self.stripe_bytes, base)
            base += integrity_region_bytes(pool.size, self.stripe_bytes, pool.align)
            self.by_pool.append(pi)
        self.region_end = base
        self.settled = 0
        self.mutations = 0
        self.flushes = 0
        self.flushed_bytes = 0
        self.rebuilds = 0
        self.resets = 0
        self.tree_checks = 0

    # -- coverage queries ---------------------------------------------------
    def covered(self, loc: Any) -> bool:
        return self.by_pool[loc.pool].covered(loc.offset, loc.size)

    def verify_read(self, loc: Any, raw: bytes) -> Generator[Event, Any, bool]:
        """End-to-end check of a cache-warm GET's one-READ image against
        the ledger under the root, charging the client-side CRC (a real
        client verifies its ledger slice locally). Uncovered objects
        (not yet settled) pass — the durability flag still guards them."""
        yield self.env.timeout(CRC_COST.cost_ns(len(raw)))
        self.tree_checks += 1
        entry = self.by_pool[loc.pool].entries.get(loc.offset)
        if entry is None or entry[0] != len(raw):
            return True
        return crc32_fast(raw) == entry[1]

    # -- coverage updates (instant; flushed with the next batch) ------------
    def note_settled(self, loc: Any, raw: bytes) -> None:
        """Cover an object with known-good bytes (cleaner copies, repair
        writes) — ``raw`` must be the full on-media image."""
        self.by_pool[loc.pool].cover(loc.offset, raw)
        self.settled += 1

    def note_settled_checked(self, loc: Any, raw: Optional[bytes]) -> bool:
        """Cover a just-settled object. Prefers the current media bytes
        (they may legitimately differ from ``raw`` — e.g. the durable
        flag, or a forward link written after the verifier's read); if
        the media no longer validates, the settling persist itself was
        the corruption, so cover ``raw`` — the verified pre-persist
        image, with the durable flag folded in — and let the scrubber
        reconstruct the media from it."""
        pi = self.by_pool[loc.pool]
        media = bytes(pi.pool.read(loc.offset, loc.size))
        img = parse_object(media)
        if value_intact(img):
            pi.cover(loc.offset, media)
        elif raw is not None and len(raw) == loc.size:
            fixed = bytearray(raw)
            fixed[_FLAGS_OFF] |= FLAG_DURABLE
            pi.cover(loc.offset, bytes(fixed))
        else:
            return False
        self.settled += 1
        return True

    def cover_from_media(self, loc: Any) -> bool:
        """Cover from the media only if it validates (replica commits,
        migration installs — there is no independent good image)."""
        return self.note_settled_checked(loc, None)

    def snapshot(self, pool: int, offset: int, length: int) -> bytes:
        """Media bytes about to be rewritten in place or settled."""
        return bytes(self.by_pool[pool].pool.read(offset, length))

    def note_mutation(self, pool: int, obj_off: int, field_off: int, old: bytes) -> None:
        """A field of a (possibly covered) object was rewritten in
        place; ``old`` holds the bytes before the write."""
        if self.by_pool[pool].mutate(obj_off, field_off, old):
            self.mutations += 1

    # -- repair -------------------------------------------------------------
    def reconstruct(self, loc: Any, validate: Callable[[bytes], bool]) -> Optional[bytes]:
        return self.by_pool[loc.pool].reconstruct(loc.offset, loc.size, validate)

    def reconstruct_cost_bytes(self, loc: Any) -> int:
        return self.by_pool[loc.pool].reconstruct_cost_bytes(loc.offset, loc.size)

    # -- batch settle + flush (the verifier's coalesced path) ---------------
    def settle_batch(
        self, items: Iterable[tuple[Any, Optional[bytes]]]
    ) -> Generator[Event, Any, None]:
        total = 0
        for loc, raw in items:
            total += loc.size
            self.note_settled_checked(loc, raw)
        if total:
            # XOR + CRC work to fold the batch into parity and ledger.
            yield self.env.timeout(
                self.device.timing.copy_cost(total) + CRC_COST.cost_ns(total)
            )
        yield from self.flush()

    def flush(self) -> Generator[Event, Any, None]:
        """Write dirty parity pages / ledger slots / root through to NVM
        and persist them as one coalesced run of ranges."""
        ranges: list[tuple[int, int]] = []
        for pi in self.by_pool:
            ranges.extend(pi.drain_dirty())
        yield from self._persist_ranges(ranges)

    def _persist_ranges(
        self, ranges: list[tuple[int, int]]
    ) -> Generator[Event, Any, None]:
        if not ranges:
            return
        ranges.sort()
        merged: list[list[int]] = []
        for addr, length in ranges:
            if merged and addr <= merged[-1][0] + merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], addr + length - merged[-1][0])
            else:
                merged.append([addr, length])
        for addr, length in merged:
            yield from self.device.persist(addr, length)
            self.flushed_bytes += length
        self.flushes += 1

    # -- lifecycle ----------------------------------------------------------
    def reset_pool(self, pool_id: int) -> None:
        self.by_pool[pool_id].reset()
        self.resets += 1

    def rebuild(self) -> Generator[Event, Any, None]:
        """Recovery: recompute parity + ledger + root from the pool
        journals and rewrite the full regions. Deterministic — repeated
        recoveries of the same pool bytes produce identical regions."""
        total = 0
        ranges: list[tuple[int, int]] = []
        for pi in self.by_pool:
            pi.clear()
            for alloc in pi.pool.allocations:
                raw = bytes(pi.pool.read(alloc.offset, alloc.size))
                total += alloc.size
                img = parse_object(raw)
                if img.durable and value_intact(img):
                    pi.cover(alloc.offset, raw)
            ranges.extend(pi.full_ranges())
        self.rebuilds += 1
        if total:
            yield self.env.timeout(
                self.device.timing.read_cost(total) + CRC_COST.cost_ns(total)
            )
        yield from self._persist_ranges(ranges)

    # -- metrics ------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "settled": self.settled,
            "mutations": self.mutations,
            "flushes": self.flushes,
            "flushed_bytes": self.flushed_bytes,
            "rebuilds": self.rebuilds,
            "resets": self.resets,
            "tree_checks": self.tree_checks,
            "covered": sum(len(pi.entries) for pi in self.by_pool),
            "stale_stripes": sum(len(pi.stale_stripes) for pi in self.by_pool),
        }


class AbsentIntegrity:
    """The tier of a store without parity (``parity_stripe_kb == 0``):
    nothing is covered, every update is dropped, no generator yields an
    event and no snapshot reads the media. Stateless, so one instance
    (:data:`ABSENT_TIER`) serves every partition of every server."""

    __slots__ = ()

    def covered(self, loc: Any) -> bool:
        return False

    def snapshot(self, pool: int, offset: int, length: int) -> None:
        return None

    def _drop(self, *_args: Any) -> None:
        """A coverage update: there is nothing to cover."""

    note_settled = cover_from_media = note_mutation = reset_pool = _drop

    def _no_event(self, *_args: Any) -> Generator[Event, Any, None]:
        return
        yield  # pragma: no cover - generator form

    settle_batch = flush = rebuild = _no_event

    def verify_read(self, loc: Any, raw: bytes) -> Generator[Event, Any, bool]:
        return True
        yield  # pragma: no cover - generator form

    def stats(self) -> dict[str, Any]:
        return {}


#: The one absent tier every partition without parity holds.
ABSENT_TIER = AbsentIntegrity()
