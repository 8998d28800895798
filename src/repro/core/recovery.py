"""Post-crash recovery.

After a power failure the visible image equals the durable image; the
server's DRAM state (allocator heads, background queue, pending allocs)
is gone. Recovery rebuilds a consistent store:

1. **Pool scan** — walk each log pool from the start, parsing headers at
   alignment boundaries, to re-derive the allocation journal and the log
   head (allocation is monotone, so the first torn/absent header is the
   end of the log).
2. **Index repair** — for every hash entry, walk the version list from
   the working slot and keep the first version that is *provably*
   intact: either its durability flag is set on media (the flag is only
   ever flushed after the value, so flag ⇒ value durable), or its CRC
   verifies against the on-media value. Torn heads roll back to older
   versions — the multi-version property the paper's design exists to
   provide (§4.1). Keys with no intact version are cleared (they were
   never durably acknowledged under eFactory's guarantees).

Partitions recover *independently*: each owns disjoint pools and a
disjoint table segment, so a partitioned server replays its shards as
parallel recovery processes and the wall-clock cost is the slowest
shard, not the sum — the recovery-time payoff of sharding. With one
partition the pass below is executed inline, unchanged.

Erda's recovery (:func:`recover_erda`) is the two-offset equivalent and
inherits Erda's limitations: entries were never flushed, so index
updates survive only by natural eviction, and rollback depth is two.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.baselines.base import BaseServer, Partition
from repro.crc.cost import CRC_COST
from repro.errors import RecoveryError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.hopscotch import HopscotchTable, TwoVersions
from repro.kv.logpool import Allocation, LogPool
from repro.kv.objects import (
    FLAG_DURABLE,
    HEADER_SIZE,
    object_size,
    parse_header,
    parse_object,
    value_intact,
)
from repro.sim.kernel import Event

__all__ = [
    "RecoveryReport",
    "recover_bucketized",
    "recover_erda",
    "recover_partition",
    "scan_pool",
    "seed_index_from_pools",
]


@dataclass
class RecoveryReport:
    """Outcome of one recovery pass."""

    keys_recovered: int = 0      # latest version was intact
    keys_rolled_back: int = 0    # an older version won
    keys_lost: int = 0           # no intact version existed
    torn_objects: int = 0        # versions rejected by CRC/parse
    objects_scanned: int = 0
    pool_heads: list[int] = field(default_factory=list)
    duration_ns: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "keys_recovered": self.keys_recovered,
            "keys_rolled_back": self.keys_rolled_back,
            "keys_lost": self.keys_lost,
            "torn_objects": self.torn_objects,
            "objects_scanned": self.objects_scanned,
            "pool_heads": list(self.pool_heads),
            "duration_ns": self.duration_ns,
        }

    def merge(self, other: "RecoveryReport") -> None:
        """Fold another shard's report into this one (duration excluded:
        parallel shards overlap, the caller takes wall-clock time)."""
        self.keys_recovered += other.keys_recovered
        self.keys_rolled_back += other.keys_rolled_back
        self.keys_lost += other.keys_lost
        self.torn_objects += other.torn_objects
        self.objects_scanned += other.objects_scanned
        self.pool_heads.extend(other.pool_heads)


def scan_pool(pool: LogPool) -> list[Allocation]:
    """Re-derive the allocation journal from on-media headers."""
    allocations: list[Allocation] = []
    offset = 0
    while offset + HEADER_SIZE <= pool.size:
        hdr = parse_header(pool.read(offset, HEADER_SIZE))
        if hdr is None:
            break  # end of log (or torn final header — same thing)
        size = object_size(hdr.klen, hdr.vlen)
        if offset + size > pool.size:
            break
        allocations.append(Allocation(offset, size))
        offset += (size + pool.align - 1) & ~(pool.align - 1)
    return allocations


def _adopt_scan(pool: LogPool, allocations: list[Allocation]) -> None:
    """Adopt a pool scan as the pool's allocator state (pass 1): the
    journal, the log head just past its last object, and a garbage count
    restarted at zero (volatile trigger state; it re-accumulates)."""
    pool.allocations = allocations
    pool.garbage_bytes = 0
    if allocations:
        last = allocations[-1]
        pool.head = (last.offset + last.size + pool.align - 1) & ~(pool.align - 1)
    else:
        pool.head = 0


def _scan_and_adopt(
    server: BaseServer, pool: LogPool
) -> Generator[Event, Any, list[Allocation]]:
    """Pass 1 for one pool: scan it, charge one header read per object
    plus the read that finds the end of the log, and adopt the scan."""
    allocations = scan_pool(pool)
    read_ns = server.device.timing.read_cost(HEADER_SIZE)
    yield server.env.timeout(read_ns * max(1, len(allocations) + 1))
    _adopt_scan(pool, allocations)
    return allocations


def recover_bucketized(
    server: BaseServer,
) -> Generator[Event, Any, RecoveryReport]:
    """Recovery for the bucketized-index stores (eFactory, CA, SAW, IMM,
    RPC, Forca). A timed generator: run it in a simulated process.

    Single partition: the scan-and-repair pass runs inline. Multiple
    partitions: one recovery process per shard, all concurrent; the
    merged report's ``duration_ns`` is the slowest shard's wall clock.
    """
    env = server.env
    report = RecoveryReport()
    start = env.now

    if len(server.partitions) == 1:
        part_report = yield from recover_partition(server, server.partitions[0])
        report.merge(part_report)
    else:
        procs = [
            env.process(
                recover_partition(server, part), name=f"recover-p{part.part_id}"
            )
            for part in server.partitions
        ]
        yield env.all_of(procs)
        for proc in procs:
            report.merge(proc.value)

    report.duration_ns = env.now - start
    return report


def recover_partition(
    server: BaseServer, part: Partition
) -> Generator[Event, Any, RecoveryReport]:
    """Scan one partition's pools and repair its table segment (timed
    generator): the pass :func:`recover_bucketized` runs per shard, and
    what cluster failover runs to promote one orphaned partition on an
    otherwise live node without replaying its other shards."""
    env = server.env
    t = server.device.timing
    report = RecoveryReport()

    # 1. pool scans
    for pool in part.pools:
        allocations = yield from _scan_and_adopt(server, pool)
        report.pool_heads.append(pool.head)
        report.objects_scanned += len(allocations)

    # 2. index repair
    for entry_off, entry in part.table.iter_entries():
        yield from _recovery_step(part)
        yield env.timeout(t.read_cost(32))
        cur = part.table.read_cur(entry_off)
        alt = part.table.read_alt(entry_off)

        winner, torn = yield from _resolve_chain(part, entry.fp, cur)
        rolled = torn > 0
        report.torn_objects += torn
        if winner is None and alt is not None:
            if (yield from part.provably_intact(alt, entry.fp)) is not None:
                winner, rolled = alt, True

        if winner is None:
            if cur is not None or alt is not None:
                report.keys_lost += 1
            part.table.clear_cur(entry_off)
            part.table.clear_alt(entry_off)
            part.table.persist_entry(entry_off)
            continue

        img = part.read_object(winner)
        part.set_object_flags(winner, img.flags | FLAG_DURABLE)
        yield from part.persist_object(winner)
        part.table.set_cur(entry_off, winner)
        part.table.clear_alt(entry_off)
        part.table.persist_entry(entry_off)
        if rolled:
            report.keys_rolled_back += 1
        else:
            report.keys_recovered += 1

    # 3. integrity rebuild: recompute parity + ledger + root from the
    # recovered pool contents and rewrite the full NVM regions. The
    # regions are never *read* during recovery (a crash may have torn
    # them), so this keeps repeated recoveries byte-identical.
    yield from part.integrity.rebuild()

    return report


def seed_index_from_pools(
    server: BaseServer, part: Partition
) -> Generator[Event, Any, int]:
    """Rebuild a partition's table segment from its pool contents alone.

    A backup replica receives shipped log records but no index updates:
    its table segment is empty, so the standard repair pass — which
    starts from whatever working slots survived — would find nothing to
    roll. This pass scans the pools (re-deriving allocation journals and
    heads, like recovery pass 1), groups records by key fingerprint, and
    seeds each entry's working slot with the newest parseable version,
    ranked by (header timestamp, scan order). :func:`recover_partition`
    afterwards applies the usual intact-version rules: durability flag
    or CRC, with pre_ptr rollback — shipped offsets are identical to the
    primary's, so the chains resolve exactly as they would have there.

    Returns the number of entries seeded.
    """
    env = server.env
    t = server.device.timing
    best: dict[int, tuple[tuple[int, int], Slot]] = {}
    seq = 0
    for pool_id, pool in enumerate(part.pools):
        allocations = yield from _scan_and_adopt(server, pool)
        for alloc in allocations:
            hdr = parse_header(pool.read(alloc.offset, HEADER_SIZE))
            if hdr is None:
                continue
            yield env.timeout(t.read_cost(HEADER_SIZE + hdr.klen))
            key = bytes(pool.read(alloc.offset + HEADER_SIZE, hdr.klen))
            fp = key_fingerprint(key)
            rank = (hdr.ts, seq)
            seq += 1
            loc = Slot(pool=pool_id, offset=alloc.offset, size=alloc.size)
            prev = best.get(fp)
            if prev is None or rank > prev[0]:
                best[fp] = (rank, loc)
    for fp, (_rank, loc) in best.items():
        yield env.timeout(server.index_ns)
        entry_off = part.table.find_or_create(fp)
        part.table.set_cur(entry_off, loc)
    return len(best)


def _recovery_step(part: Partition) -> Generator[Event, Any, None]:
    """Injection site fired once per index-repair step (site
    ``recovery.step``): the crash matrix pulls the plug here to prove
    recovery survives a crash *during* recovery. Free when unarmed."""
    inj = part.device.injector
    if inj is not None:
        act = inj.fire("recovery.step", partition=part.part_id)
        if act is not None and act.kind == "pause":
            yield part.env.timeout(act.delay_ns)
    return
    yield  # pragma: no cover - keeps this a generator when unarmed


def _resolve_chain(
    part: Partition, fp: int, cur: Optional[Slot]
) -> Generator[Event, Any, tuple[Optional[Slot], int]]:
    """Walk a version chain; return (winner, torn): the newest provably
    intact version, or None, and how many newer versions were rejected
    on the way (a winner behind any is a rollback).

    Each pre_ptr hop costs two header reads, charged like the scan loop
    (a corrupt chain is walked at media speed, not for free). A chain
    the walk ends early — a torn or out-of-pool ``pre_ptr``, or one
    pointing back into the chain — has no provably-intact tail and
    resolves to "no winner".
    """
    hop_ns = 2 * part.device.timing.read_cost(HEADER_SIZE)
    torn = 0
    for loc in part.versions(cur):
        if (yield from part.provably_intact(loc, fp)) is not None:
            return loc, torn
        torn += 1
        yield part.env.timeout(hop_ns)
    return None, torn


def recover_erda(server) -> Generator[Event, Any, RecoveryReport]:
    """Erda recovery: check off1 then off2 of whatever entry state
    survived natural eviction."""
    env = server.env
    t = server.device.timing
    part = server.partitions[0]  # a hopscotch index is never sharded
    table: HopscotchTable = part.table
    if not isinstance(table, HopscotchTable):
        raise RecoveryError("recover_erda needs a hopscotch-indexed server")
    report = RecoveryReport()
    start = env.now

    pool = part.pools[0]
    _adopt_scan(pool, scan_pool(pool))
    report.objects_scanned = len(pool.allocations)
    report.pool_heads.append(pool.head)
    yield env.timeout(t.read_cost(HEADER_SIZE) * max(1, report.objects_scanned))

    for idx in range(table.n_buckets):
        entry = table._read(idx)
        if entry.fp == 0:
            continue
        yield from _recovery_step(part)
        yield env.timeout(t.read_cost(16))
        region = TwoVersions.unpack(entry.atomic)
        if region.off1 is None and region.off2 is None:
            # A key an earlier pass declared lost (its word is zeroed, the
            # bucket's fp stays): nothing left to lose a second time.
            continue
        winner: Optional[int] = None
        rolled = False
        for attempt, off in enumerate((region.off1, region.off2)):
            if off is None:
                continue
            hdr = parse_header(pool.read(off, HEADER_SIZE))
            if hdr is None:
                report.torn_objects += 1
                rolled = True
                continue
            size = object_size(hdr.klen, hdr.vlen)
            yield env.timeout(
                t.read_cost(size) + CRC_COST.cost_ns(hdr.vlen)
            )
            img = parse_object(pool.read(off, size))
            if value_intact(img):
                winner = off
                rolled = rolled or attempt > 0
                break
            report.torn_objects += 1
            rolled = True
        if winner is None:
            table._write_atomic(idx, 0)
            report.keys_lost += 1
        else:
            table._write_atomic(
                idx, TwoVersions(off1=winner, off2=None, tag=region.tag).pack()
            )
            if rolled:
                report.keys_rolled_back += 1
            else:
                report.keys_recovered += 1

    report.duration_ns = env.now - start
    return report
