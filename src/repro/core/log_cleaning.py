"""Two-stage log cleaning (paper §4.4, Figure 7).

**Stage 1 — log compressing.** The server notifies every client (they
switch to RPC+RDMA reads and ACK), then reverse-scans the old pool: the
first version seen of each key is its latest-at-snapshot; it is
verified (made durable if needed), copied to the new pool, and the hash
entry's second slot (``alt``) records the new location. Older versions
are skipped. New writes keep landing in the *old* pool and update the
entry's working slot as usual.

**Stage 2 — log merging.** New writes are redirected to the new pool,
and the objects written to the old pool during stage 1 are merged: a
key already superseded by a durable new-pool write is skipped (the
paper's D1/D2 case); otherwise its latest intact version is copied over
— from the old-pool version behind the head when the new-pool write is
still in flight, since that is what a crash would have to fall back to.

**Finish.** For every key that had state in the old pool: promote the
new-pool copy into the working slot (the paper flips the mark bit and
clears the old offset; our ``promote_alt`` is the same two ordered
atomic stores), or — if a racing write already made the working slot
point into the new pool — splice that object's version chain onto the
moved copy (the paper's PrePTR fix-up + transfer flag). Clients are
notified, the old pool is recycled.

Simplification vs the paper (documented in DESIGN.md): cleaning
truncates each key's history to its latest intact version, rather than
migrating whole version lists. Old versions only exist to recover from
torn latest versions; a version that has been verified, persisted and
promoted can never need rollback, so truncation preserves every
consistency guarantee while keeping the merge tractable.

While cleaning runs, request dispatch is charged a small interference
factor — the paper attributes its 1–5% PUT slowdown during cleaning to
the cleaner thrashing cache locality (§6.3).

Cleaning is **per-partition**: each partition has its own cleaner over
its own pool pair, clients are told *which* partition is cleaning, and
only that partition's keys fall back to the RPC+RDMA read path — the
other shards stay on the pure one-sided path throughout.  The dispatch
interference scales with the fraction of partitions cleaning (one shard
of N thrashes 1/N of the cache working set).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional, TYPE_CHECKING

from repro.baselines.base import Partition
from repro.crc.cost import CRC_COST
from repro.errors import StoreError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import (
    FLAG_DURABLE,
    FLAG_TRANS,
    FLAG_VALID,
    HEADER_SIZE,
    NULL_PTR,
    OBJECT_HEADER,
    build_header,
    pack_ptr,
    parse_header,
    value_intact,
)
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import EFactoryServer

__all__ = ["LogCleaner", "CleaningStats"]

#: Cleaner-core cost of scanning one object header during the sweep.
_SCAN_NS = 120.0
#: Multiplier on request dispatch cost while cleaning runs (cache
#: locality interference, §6.3).
_INTERFERENCE = 1.12
#: Poll interval while waiting for an in-flight write to land.
_WAIT_NS = 2_000.0


class CleaningStats:
    """Counters for one or more cleaning cycles."""

    __slots__ = ("cycles", "moved", "skipped_stale", "skipped_superseded",
                 "invalidated", "bytes_copied", "entries_fixed")

    def __init__(self) -> None:
        self.cycles = 0
        self.moved = 0
        self.skipped_stale = 0
        self.skipped_superseded = 0
        self.invalidated = 0
        self.bytes_copied = 0
        self.entries_fixed = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _interfere(server: "EFactoryServer", delta: int) -> None:
    """A cleaner starts (+1) or ends (-1): set the dispatch cost for the
    cleaners now running.

    The cost is always derived from ``server.dispatch_base``, so
    concurrent per-partition cycles compose, and it returns exactly to
    the base when the last one ends.
    """
    server.active_cleaners += delta
    active = server.active_cleaners
    n = len(server.partitions)
    if active == 0:
        server.rpc.dispatch_ns = server.dispatch_base
    elif n == 1:
        server.rpc.dispatch_ns = server.dispatch_base * _INTERFERENCE
    else:
        server.rpc.dispatch_ns = server.dispatch_base * (
            1.0 + (_INTERFERENCE - 1.0) * active / n
        )


class LogCleaner:
    """Runs cleaning cycles on one partition's dedicated core."""

    def __init__(self, server: "EFactoryServer", partition: Partition) -> None:
        self.server = server
        self.part = partition
        self.env = server.env
        self.stats = CleaningStats()
        self._proc: Optional[Process] = None
        self._acks_pending = 0

    # -- control ------------------------------------------------------------
    def trigger(self) -> Optional[Process]:
        """Start one cleaning cycle; no-op if one is already running."""
        part = self.part
        if part.cleaning_active:
            return None
        if len(part.pools) < 2:
            raise StoreError("log cleaning requires dual pools")
        part.cleaning_active = True
        name = (
            "log-cleaner"
            if self.server.num_partitions == 1
            else f"log-cleaner-p{part.part_id}"
        )
        self._proc = self.env.process(self._run(), name=name)
        return self._proc

    def stop(self) -> None:
        if (
            self._proc is not None
            and self._proc.is_alive
            and self._proc is not self.env.active_process
        ):
            self._proc.interrupt("stop")
        self.part.cleaning_active = False

    def note_ack(self) -> None:
        self._acks_pending = max(0, self._acks_pending - 1)

    def _maybe_pause(self, stage: str = "compress") -> Generator[Event, Any, None]:
        """Fault-injection point ahead of each scan step (sites
        ``bg.cleaner.compress`` / ``.merge`` / ``.finish``, so plans and
        the crash matrix can target each cleaning stage separately;
        ``site="bg.cleaner.*"`` covers them all); free when no injector
        is armed."""
        inj = self.server.fabric.injector
        if inj is None:
            return
        act = inj.fire(f"bg.cleaner.{stage}", partition=self.part.part_id)
        if act is not None and act.kind == "pause":
            yield self.env.timeout(act.delay_ns)

    # -- the cycle ------------------------------------------------------------
    def _run(self) -> Generator[Event, Any, None]:
        part = self.part
        try:
            old = part.pools[part.write_pool_id]
            new = part.pools[1 - part.write_pool_id]
            new.reset()
            part.integrity.reset_pool(new.pool_id)
            _interfere(self.server, +1)
            try:
                yield from self._notify("start", await_acks=True)
                stage1_mark = len(old.allocations)
                snapshot_boundary = old.head  # offsets below are snapshot
                touched = yield from self._compress(
                    old, new, stage1_mark, snapshot_boundary
                )
                part.write_pool_id = new.pool_id
                touched |= yield from self._merge(old, new, stage1_mark)
                yield from self._finish(old, new, touched)
                yield from self._notify("finish", await_acks=False)
            finally:
                _interfere(self.server, -1)
            old.reset()
            part.integrity.reset_pool(old.pool_id)
            self.stats.cycles += 1
        except Interrupt:
            return
        finally:
            part.cleaning_active = False

    # -- notifications --------------------------------------------------------
    def _notify(
        self, state: str, *, await_acks: bool
    ) -> Generator[Event, Any, None]:
        server = self.server
        self._acks_pending = len(server.sessions) if await_acks else 0
        for sess in server.sessions:
            yield from sess.server_ep.send(
                {"op": "cleaning", "state": state, "part": self.part.part_id}, 32
            )
        while self._acks_pending > 0:
            yield self.env.timeout(_WAIT_NS)

    # -- stage 1: compress -------------------------------------------------------
    def _compress(
        self, old, new, stage1_mark: int, snapshot_boundary: int
    ) -> Generator[Event, Any, set[int]]:
        """Reverse-scan the snapshot; move the latest version per key."""
        part = self.part
        snapshot = old.allocations[:stage1_mark]  # allocations at stage start
        seen: set[int] = set()
        touched: set[int] = set()
        yield from self._maybe_pause("compress")  # stage entry
        for alloc in reversed(snapshot):
            yield from self._maybe_pause("compress")
            yield self.env.timeout(_SCAN_NS)
            ident = self._identify(old, alloc.offset)
            if ident is None:
                continue
            fp, key = ident
            if fp in seen:
                self.stats.skipped_stale += 1
                continue
            seen.add(fp)
            entry_off = part.table.find(fp)
            if entry_off is None:
                continue
            touched.add(entry_off)
            cur = part.table.read_cur(entry_off)
            if cur is None or cur.pool != old.pool_id:
                continue  # deleted, or already living in the new pool
            if cur.offset >= snapshot_boundary:
                # Updated during this scan; stage 2 merges the newer one.
                continue
            # cur is a snapshot-era version (possibly this one, possibly
            # a newer-but-invalidated head); move the latest intact
            # version along its chain.
            yield from self._move_latest_intact(entry_off, key, old, new)
        return touched

    # -- stage 2: merge ------------------------------------------------------------
    def _merge(
        self, old, new, stage1_mark: int
    ) -> Generator[Event, Any, set[int]]:
        """Merge writes that landed in the old pool during stage 1."""
        part = self.part
        stage1_writes = old.allocations[stage1_mark:]
        seen: set[int] = set()
        touched: set[int] = set()
        yield from self._maybe_pause("merge")  # stage entry
        for alloc in reversed(stage1_writes):
            yield from self._maybe_pause("merge")
            yield self.env.timeout(_SCAN_NS)
            ident = self._identify(old, alloc.offset)
            if ident is None:
                continue
            fp, key = ident
            if fp in seen:
                self.stats.skipped_stale += 1
                continue
            seen.add(fp)
            entry_off = part.table.find(fp)
            if entry_off is None:
                continue
            touched.add(entry_off)
            cur = part.table.read_cur(entry_off)
            if cur is None:
                continue
            start = None
            if cur.pool == new.pool_id:
                head = part.read_object(cur)
                if head.well_formed and head.valid and head.durable:
                    # D2 case: a durable new-pool version supersedes the
                    # old one (D1), which is skipped.
                    self.stats.skipped_superseded += 1
                    continue
                # The new-pool head is still in flight, so the version a
                # crash must fall back to is the old-pool one behind it:
                # move that, and _finish splices the head onto the copy
                # instead of cutting its chain.
                start = next(
                    (v for v in part.versions(cur) if v.pool == old.pool_id), None
                )
                if start is None:
                    continue
            yield from self._move_latest_intact(entry_off, key, old, new, start)
        return touched

    # -- moving one key's latest intact version -----------------------------------
    def _identify(self, pool, offset) -> Optional[tuple[int, bytes]]:
        hdr = parse_header(pool.read(offset, HEADER_SIZE))
        if hdr is None or not (hdr.flags & FLAG_VALID):
            return None
        key = pool.read(offset + HEADER_SIZE, hdr.klen)
        return key_fingerprint(key), key

    def _move_latest_intact(
        self, entry_off: int, key: bytes, old, new,
        start: Optional[Slot] = None,
    ) -> Generator[Event, Any, None]:
        """Find the latest verifiable version along the chain (from
        ``start``, default the working slot) and copy it into the new
        pool with the durability flag set."""
        part = self.part
        if start is None:
            start = part.table.read_cur(entry_off)
        for loc in part.versions(start):
            img = part.read_object(loc)
            while img.well_formed and img.valid and not img.durable:
                yield self.env.timeout(CRC_COST.cost_ns(img.vlen))
                if value_intact(img):
                    yield from part.persist_object(loc)
                    part.mark_durable(loc, img)
                elif self.env.now - img.ts <= self.server.verify_timeout_ns:
                    yield self.env.timeout(_WAIT_NS)  # in-flight write: wait
                else:
                    break
                img = part.read_object(loc)
            if not img.well_formed or not img.valid:
                continue
            if not img.durable:
                # Its CRC still fails past the verify timeout: the value
                # never arrived. Time it out and fall back a version.
                part.set_object_flags(loc, img.flags & ~FLAG_VALID)
                self.stats.invalidated += 1
                continue

            # Copy into the new pool: fresh header (history truncated),
            # durable from the first byte readers can reach it.
            new_off = new.allocate(loc.size)
            header = build_header(
                flags=FLAG_VALID | FLAG_DURABLE,
                klen=img.klen,
                vlen=img.vlen,
                crc=img.crc,
                pre_ptr=NULL_PTR,
                ts=img.ts,
            )
            yield self.env.timeout(part.device.timing.copy_cost(loc.size))
            new.write(new_off, header + img.key + img.value)
            yield from part.device.persist(new.abs_addr(new_off), loc.size)
            new_slot = Slot(pool=new.pool_id, offset=new_off, size=loc.size)
            # The copy is settled by construction: cover the intended
            # bytes (so a corrupting persist is reconstructible) and
            # flush parity/ledger with the move.
            part.integrity.note_settled(new_slot, header + img.key + img.value)
            yield from part.integrity.flush()

            # Publish as the cleaning copy; mark the original migrated.
            yield self.env.timeout(self.server.entry_update_ns)
            part.table.set_alt(entry_off, new_slot)
            part.table.persist_entry(entry_off)
            if loc.pool == old.pool_id:
                part.set_object_flags(loc, img.flags | FLAG_TRANS)
            self.stats.moved += 1
            self.stats.bytes_copied += loc.size
            return
        # No intact version: nothing to move (key was never durably
        # written, or deleted); finish() clears the dangling slot.

    # -- finish -----------------------------------------------------------------------
    def _finish(self, old, new, touched: set[int]) -> Generator[Event, Any, None]:
        """Flip every touched entry over to the new pool (Figure 7 end)."""
        part = self.part
        t = part.device.timing
        yield from self._maybe_pause("finish")  # stage entry
        for entry_off in touched:
            yield from self._maybe_pause("finish")
            yield self.env.timeout(2 * t.store_ns)
            cur = part.table.read_cur(entry_off)
            alt = part.table.read_alt(entry_off)
            if cur is not None and cur.pool == new.pool_id:
                # Raced with a new-pool write: splice its chain onto the
                # moved copy and retire the alt slot.
                self._fix_cross_pool_chain(cur, old.pool_id, alt)
                part.table.clear_alt(entry_off)
            elif alt is not None:
                part.table.promote_alt(entry_off)
            elif cur is not None and cur.pool == old.pool_id:
                # Nothing intact was moved: the key has no durable data.
                part.table.clear_cur(entry_off)
            part.table.persist_entry(entry_off)
            self.stats.entries_fixed += 1

    def _fix_cross_pool_chain(self, cur: Slot, old_pool_id: int, alt) -> None:
        """Rewrite the first old-pool PrePTR in a new-pool chain to the
        moved copy (or null it when nothing was moved)."""
        part = self.part
        newer = None
        for loc in part.versions(cur):
            if loc.pool == old_pool_id:
                break
            newer = loc
        else:
            return  # the chain never reaches the old pool
        new_ptr = pack_ptr(alt.pool, alt.offset) if alt is not None else NULL_PTR
        pool = part.pools[newer.pool]
        pre_off = OBJECT_HEADER.offset_of("pre_ptr")
        addr = pool.abs_addr(newer.offset) + pre_off
        old_pre = part.integrity.snapshot(newer.pool, newer.offset + pre_off, 8)
        part.device.write_atomic64(addr, OBJECT_HEADER.pack_field("pre_ptr", new_ptr))
        part.device.flush(addr, 8)
        part.integrity.note_mutation(newer.pool, newer.offset, pre_off, old_pre)
