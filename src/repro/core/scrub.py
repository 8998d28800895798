"""Online media scrubbing + self-healing repair (beyond the paper).

eFactory's selective durability guarantee trusts the durability flag:
once the background verifier has CRC-checked and persisted an object,
every later GET serves it *without* re-verifying (§4.3.3 — that skip is
the point of the scheme). The flag is sound against crashes — it is
only flushed after the value — but says nothing about *latent media
errors*: a bit that rots on the DIMM weeks after a successful write
(Pangolin's threat model, ATC '19) would be served to clients forever,
silently.

The :class:`Scrubber` closes that hole: a background process walks the
hash-table segment round-robin, CRC-verifies each durable head object
against the media, and on a mismatch repairs with an escalating policy:

1. **Parity reconstruction** (when ``parity_stripe_kb > 0``): rebuild
   the rotten head *in place* from stripe ⊕ parity — the newest acked
   value survives. Pangolin's repair, adapted to the multi-version log
   via the :mod:`repro.integrity` coverage ledger.
2. **Replica-assisted repair** (cluster mode): when local parity can't
   reconstruct (multi-fault stripe, stale parity), fetch the intact
   bytes from a backup at the *identical shipped offset* via the
   ``repair_fetch`` RPC and reinstall them — again keeping the newest
   version.
3. **Version-list rollback** (the original policy, mirroring
   :mod:`repro.core.recovery`): re-point the hash entry at the newest
   older version that provably verifies, retire the rotten head, fall
   back to the log-cleaning copy (``alt``) before declaring the key
   unrepairable and clearing it (a cleared key is a loud miss, never a
   silently-served torn value).

On cluster **backup** nodes the partition's table segment is empty (it
is only seeded at promotion), so the table walk would scrub nothing and
shipped replicas would rot silently. There the scrubber instead walks
the shipped pool extents record-by-record, CRC-verifying every settled
record and repairing rot from local parity or by re-fetching the bytes
from the partition's primary — symmetric replica-assisted repair.

One scrubber per partition (the same sharding as the verifier), reached
as ``server.partitions[i].scrubber``; ``server.metrics()["scrubber"]``
is their per-key sum. Paced by ``StoreConfig.scrub_interval_ns`` (0 = disabled,
the default — the paper's system has no scrubber).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional, TYPE_CHECKING

from repro.baselines.base import ObjectLocation, Partition
from repro.crc.crc32 import crc32_fast
from repro.errors import (
    MemoryAccessError, PoolExhaustedError, RDMAError, StoreError,
)
from repro.kv.hashtable import ENTRY_SIZE, key_fingerprint
from repro.kv.objects import (
    FLAG_DURABLE,
    FLAG_VALID,
    HEADER_SIZE,
    object_size,
    parse_header,
    parse_object,
)
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import ClusterNode
    from repro.core.server import EFactoryServer

__all__ = ["Scrubber"]

#: Cycle/depth guard for rollback-chain walks over possibly-rotten
#: pre_ptr links (mirrors recovery's cycle check).
_MAX_CHAIN_HOPS = 64

#: What a read through rotten slot or pre_ptr bits raises: the device's
#: bounds check when offset + size runs past it, the pool's own
#: (``LogPool.abs_addr``) when the offset is outside the pool.
_ROTTEN_LOCATION = (MemoryAccessError, PoolExhaustedError)

_STAT_KEYS = (
    "scrubbed",
    "corrupt_found",
    "repaired",
    "unrepairable",
    "reconstructed",
    "parity_stale",
    "replica_fetched",
)


class Scrubber:
    """One partition's background CRC-scrub-and-repair thread."""

    def __init__(self, server: "EFactoryServer", partition: Partition) -> None:
        self.server = server
        self.part = partition
        self.env = server.env
        self._proc: Process | None = None
        self._cursor = 0  # entry index into this partition's segment
        # backup-mode walk state: pool id -> next record offset
        self._replica_cursors: dict[int, int] = {}
        self._replica_laps = 0
        # statistics (exposed via server.metrics())
        self.scrubbed = 0
        self.corrupt_found = 0
        self.repaired = 0
        self.unrepairable = 0
        #: heads rebuilt in place from stripe ⊕ parity
        self.reconstructed = 0
        #: parity reconstructions attempted but not accepted
        self.parity_stale = 0
        #: heads/records reinstalled from a replica via repair_fetch
        self.replica_fetched = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Process:
        name = (
            "scrubber"
            if self.server.num_partitions == 1
            else f"scrubber-p{self.part.part_id}"
        )
        self._proc = self.env.process(self._loop(), name=name)
        return self._proc

    def stop(self) -> None:
        if (
            self._proc is not None
            and self._proc.is_alive
            and self._proc is not self.env.active_process
        ):
            self._proc.interrupt("stop")

    @property
    def active(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    @property
    def laps(self) -> int:
        """Completed passes over this partition's data (the chaos
        harness settles until every scrubber finishes a lap). On a
        primary that is the table segment; on a cluster backup, the
        shipped pool extents."""
        g = self.part.table.geom
        table_laps = self._cursor // (g.n_buckets * g.slots_per_bucket)
        return max(table_laps, self._replica_laps)

    # -- the thread ------------------------------------------------------------
    def _loop(self) -> Generator[Event, Any, None]:
        cfg = self.server.config
        try:
            while True:
                inj = self.server.fabric.injector
                if inj is not None:
                    act = inj.fire("bg.scrubber", partition=self.part.part_id)
                    if act is not None and act.kind == "pause":
                        yield self.env.timeout(act.delay_ns)
                if not self.part.cleaning_active:
                    # (Entries mid-migration belong to the cleaner; the
                    # next lap picks them up at their new home.)
                    node = self.server.cluster_node
                    if node is not None and self._is_backup(node):
                        yield from self._scrub_next_replica(node)
                    else:
                        yield from self._scrub_next()
                yield self.env.timeout(
                    max(cfg.scrub_interval_ns, cfg.bg_idle_poll_ns)
                )
        except Interrupt:
            return

    def _scrub_next(self) -> Generator[Event, Any, None]:
        """Advance the cursor to the next live entry and scrub it."""
        table = self.part.table
        geom = table.geom
        total = geom.n_buckets * geom.slots_per_bucket
        cfg = self.server.config
        yield self.env.timeout(cfg.nvm_timing.read_cost(ENTRY_SIZE))
        walked = 0
        while walked < total:
            start = self._cursor % total
            skipped = table.next_occupied(start, total - walked)
            if skipped is None:
                self._cursor += total - walked
                return  # no live entry in a whole lap: idle tick
            self._cursor += skipped + 1
            walked += skipped + 1
            entry_off = ((start + skipped) % total) * ENTRY_SIZE
            entry = table.read_entry(entry_off)
            cur = table.read_cur(entry_off)
            if cur is None:
                continue
            yield from self._scrub_entry(entry_off, entry.fp, cur)
            return

    # -- one entry --------------------------------------------------------------
    def _scrub_entry(
        self, entry_off: int, fp: int, cur
    ) -> Generator[Event, Any, None]:
        part = self.part
        cfg = self.server.config
        loc = ObjectLocation(pool=cur.pool, offset=cur.offset, size=cur.size)
        yield self.env.timeout(cfg.nvm_timing.read_cost(loc.size))
        try:
            img = part.read_object(loc)
        except _ROTTEN_LOCATION:
            img = None  # rotten slot bits point outside the pool
        if img is not None and img.well_formed:
            if not img.valid:
                return  # invalidated head; GETs already roll past it
            if not img.durable:
                return  # in-flight write: the verifier's job, not rot
            self.scrubbed += 1
            yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
            if key_fingerprint(img.key) == fp and part.object_value_ok(img):
                return  # intact
        else:
            # A *published, durable-marked* head whose header no longer
            # parses: metadata was persisted before publication, so this
            # is media rot, not an in-flight write.
            self.scrubbed += 1
        yield from self._repair(entry_off, fp, loc, img)

    # -- repair (escalating: reconstruct → replica → rollback) -------------------
    def _repair(
        self, entry_off: int, fp: int, bad_loc: ObjectLocation, bad_img
    ) -> Generator[Event, Any, None]:
        part = self.part
        cfg = self.server.config
        self.corrupt_found += 1

        # 0. in-place parity reconstruction: the newest acked value wins
        if part.integrity is not None and part.integrity.covered(bad_loc):
            repaired = yield from self._reconstruct(fp, bad_loc)
            if repaired:
                return

        # 0b. replica-assisted: identical shipped offsets make a backup's
        # bytes byte-for-byte this record; reinstall them in place.
        node = self.server.cluster_node
        if node is not None:
            restored = yield from self._replica_restore(node, fp, bad_loc)
            if restored:
                return

        # 1. newest intact older version along the pre_ptr chain
        visited = {(bad_loc.pool, bad_loc.offset)}
        loc = self._previous(bad_loc)
        hops = 0
        while loc is not None and hops < _MAX_CHAIN_HOPS:
            if (loc.pool, loc.offset) in visited:
                break  # rotten self-referencing chain
            visited.add((loc.pool, loc.offset))
            hops += 1
            yield self.env.timeout(cfg.nvm_timing.read_cost(loc.size))
            try:
                img = part.read_object(loc)
            except _ROTTEN_LOCATION:
                break
            if img.well_formed and img.valid and key_fingerprint(img.key) == fp:
                yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
                if part.object_value_ok(img):
                    yield from self._promote(entry_off, loc, img, bad_loc, bad_img)
                    return
            loc = self._previous(loc)

        # 2. the log-cleaning copy (durable by construction when present)
        alt = part.table.read_alt(entry_off)
        if alt is not None and (alt.pool, alt.offset) not in visited:
            loc = ObjectLocation(pool=alt.pool, offset=alt.offset, size=alt.size)
            yield self.env.timeout(cfg.nvm_timing.read_cost(loc.size))
            try:
                img = part.read_object(loc)
            except _ROTTEN_LOCATION:
                img = None
            if (
                img is not None
                and img.well_formed
                and img.valid
                and key_fingerprint(img.key) == fp
            ):
                yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
                if part.object_value_ok(img):
                    yield from self._promote(entry_off, loc, img, bad_loc, bad_img)
                    return

        # 3. unrepairable: clear the key (loud miss, never torn bytes)
        part.table.clear_cur(entry_off)
        part.table.clear_alt(entry_off)
        part.table.persist_entry(entry_off)
        self._retire(bad_loc, bad_img)
        self.unrepairable += 1

    def _reconstruct(
        self, fp: Optional[int], loc: ObjectLocation
    ) -> Generator[Event, Any, bool]:
        """Stage-0 repair: rebuild the covered object from stripe ⊕
        parity, validate the candidate end-to-end, reinstall in place."""
        part = self.part
        cfg = self.server.config
        integ = part.integrity
        # One pass over the object's stripes plus the candidate CRC.
        yield self.env.timeout(
            cfg.nvm_timing.read_cost(integ.reconstruct_cost_bytes(loc))
            + cfg.crc_cost.cost_ns(loc.size)
        )
        cand = integ.reconstruct(loc, lambda raw: self._image_ok(raw, fp))
        if cand is None:
            self.parity_stale += 1
            return False
        part.pools[loc.pool].write(loc.offset, cand)
        yield from part.persist_object(loc)
        # Media now equals the covered bytes again; re-covering is a
        # no-op unless the candidate drifted, in which case the ledger
        # flags the stripes stale rather than trusting skewed parity.
        integ.note_settled(loc, cand)
        self.reconstructed += 1
        return True

    def _replica_restore(
        self, node: "ClusterNode", fp: Optional[int], loc: ObjectLocation
    ) -> Generator[Event, Any, bool]:
        """Stage-0b repair on a primary: reinstall the record from any
        live backup holding it at the identical shipped offset."""
        part = self.part
        shipper = node.shippers.get(part.part_id)
        if shipper is None or not shipper.is_shipped(loc.pool, loc.offset + loc.size):
            return False
        for nid in node.cluster.router.backups(part.part_id):
            if not node.cluster.alive(nid):
                continue
            installed = yield from self._fetch_and_install(node, nid, fp, loc)
            if installed:
                return True
        return False

    def _fetch_and_install(
        self,
        node: "ClusterNode",
        source: int,
        fp: Optional[int],
        loc: ObjectLocation,
    ) -> Generator[Event, Any, bool]:
        """``repair_fetch`` the record's bytes from ``source``, validate
        them end-to-end, and persist them over the rot."""
        from repro.cluster.replicator import REPAIR_FETCH_BYTES

        part = self.part
        cfg = self.server.config
        try:
            resp = yield from node.call(
                source,
                {
                    "op": "repair_fetch",
                    "part": part.part_id,
                    "pool": loc.pool,
                    "off": loc.offset,
                    "size": loc.size,
                },
                REPAIR_FETCH_BYTES,
            )
        except (RDMAError, StoreError, RpcFault):
            return False
        data = resp.get("data") if isinstance(resp, dict) else None
        if not isinstance(data, (bytes, bytearray)) or len(data) != loc.size:
            return False
        yield self.env.timeout(cfg.crc_cost.cost_ns(loc.size))
        if not self._image_ok(bytes(data), fp):
            return False
        part.pools[loc.pool].write(loc.offset, bytes(data))
        yield from part.persist_object(loc)
        if part.integrity is not None:
            part.integrity.note_settled(loc, bytes(data))
        self.replica_fetched += 1
        return True

    def _image_ok(self, raw: bytes, fp: Optional[int]) -> bool:
        """End-to-end candidate validation: parses, settled flags, the
        entry's fingerprint (when known), and the value CRC."""
        if len(raw) < HEADER_SIZE:
            return False
        img = parse_object(raw)
        return (
            img.well_formed
            and img.valid
            and img.durable
            and (fp is None or key_fingerprint(img.key) == fp)
            and img.vlen == len(img.value)
            and crc32_fast(img.value) == img.crc
        )

    def _promote(
        self,
        entry_off: int,
        loc: ObjectLocation,
        img,
        bad_loc: ObjectLocation,
        bad_img,
    ) -> Generator[Event, Any, None]:
        """Re-point the entry at the intact version; retire the rot."""
        part = self.part
        part.set_object_flags(loc, img.flags | FLAG_DURABLE)
        yield from part.persist_object(loc)
        part.table.set_cur(entry_off, loc.slot)
        part.table.persist_entry(entry_off)
        self._retire(bad_loc, bad_img)
        self.repaired += 1

    def _retire(self, bad_loc: ObjectLocation, bad_img) -> None:
        """Invalidate the corrupt head so no version walk revisits it,
        and charge its footprint as garbage — retired rot used to be
        invisible to the cleaning trigger, so those bytes were never
        reclaimed."""
        part = self.part
        part.pools[bad_loc.pool].add_garbage(bad_loc.size)
        if bad_img is None or not bad_img.well_formed:
            return  # header itself is rot; the dangling bytes are inert
        part.set_object_flags(
            bad_loc, bad_img.flags & ~(FLAG_VALID | FLAG_DURABLE)
        )
        part.device.flush(part.pools[bad_loc.pool].abs_addr(bad_loc.offset), 8)

    def _previous(self, loc: ObjectLocation) -> Optional[ObjectLocation]:
        try:
            return self.part.previous_location(loc)
        except _ROTTEN_LOCATION:
            return None

    # -- backup-node mode: walk the shipped extents ------------------------------
    def _is_backup(self, node: "ClusterNode") -> bool:
        """True when this node holds the partition as a backup replica
        (no index to walk; promotion flips this to the table mode)."""
        router = node.cluster.router
        part_id = self.part.part_id
        primary = router.primary(part_id)
        if primary is None or primary == node.node_id:
            return False
        return node.node_id in router.routes[part_id].replicas

    def _scrub_next_replica(
        self, node: "ClusterNode"
    ) -> Generator[Event, Any, None]:
        """Advance the replica cursor to the next settled shipped record
        and scrub it; a full pass over every shipped extent is one lap."""
        part = self.part
        cfg = self.server.config
        yield self.env.timeout(cfg.nvm_timing.read_cost(HEADER_SIZE))
        for pool in part.pools:
            pid = pool.pool_id
            extent = min(
                node.replica_extent.get((part.part_id, pid), 0), pool.size
            )
            cur = self._replica_cursors.get(pid, 0)
            while cur + HEADER_SIZE <= extent:
                hdr = parse_header(pool.read(cur, HEADER_SIZE))
                if hdr is None:
                    # Shipped records are contiguous from 0; an
                    # unparseable header is either the end of the
                    # prefix or header rot — scan cacheline-by-
                    # cacheline so one rotten header cannot hide the
                    # records behind it.
                    cur += pool.align
                    continue
                size = object_size(hdr.klen, hdr.vlen)
                if size <= 0 or cur + size > pool.size:
                    cur += pool.align
                    continue
                loc = ObjectLocation(pool=pid, offset=cur, size=size)
                cur += (size + pool.align - 1) & ~(pool.align - 1)
                if (hdr.flags & FLAG_VALID) and (hdr.flags & FLAG_DURABLE):
                    self._replica_cursors[pid] = cur
                    yield from self._scrub_replica_record(node, loc)
                    return
            self._replica_cursors[pid] = cur
        # Every shipped extent fully walked: one replica lap.
        self._replica_laps += 1
        for pid in list(self._replica_cursors):
            self._replica_cursors[pid] = 0

    def _scrub_replica_record(
        self, node: "ClusterNode", loc: ObjectLocation
    ) -> Generator[Event, Any, None]:
        """CRC one shipped record; repair rot from local parity, else by
        re-fetching the bytes from the partition's primary."""
        part = self.part
        cfg = self.server.config
        yield self.env.timeout(cfg.nvm_timing.read_cost(loc.size))
        try:
            img = part.read_object(loc)
        except _ROTTEN_LOCATION:
            img = None
        self.scrubbed += 1
        if img is not None and img.well_formed:
            yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
            if part.object_value_ok(img):
                return  # intact
        self.corrupt_found += 1
        if part.integrity is not None and part.integrity.covered(loc):
            repaired = yield from self._reconstruct(None, loc)
            if repaired:
                return
        primary = node.cluster.router.primary(part.part_id)
        if primary is not None and primary != node.node_id:
            installed = yield from self._fetch_and_install(node, primary, None, loc)
            if installed:
                return
        # No intact source: leave the bytes; promotion's recovery scan
        # will roll past them (they fail verification there too).
        self.unrepairable += 1

    def stats(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in _STAT_KEYS}
