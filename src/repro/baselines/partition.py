"""One server partition: the unit of sharding in the partitioned core.

The paper's eFactory server is deliberately single-threaded per node —
one hash table, one log pool, one background verification thread
(§4.3.2).  To give the reproduction a scaling axis the monolith lacks,
:class:`~repro.baselines.base.BaseServer` is a composition of N
:class:`Partition` objects behind a deterministic key→partition router
(:func:`repro.kv.hashtable.partition_of_fp`).  Each partition models one
server core's worth of state:

* its own log pool(s) — pool ids stay partition-local, so the 1-bit
  pool field in packed slots and every ``pre_ptr``/``nxt_ptr`` chain
  remain valid without widening the on-media layout;
* its own hash-table segment (a contiguous slice of the table MR, so
  clients still resolve any key with one one-sided READ);
* its own background-verifier cursor and log-cleaner state (attached by
  :class:`~repro.core.server.EFactoryServer`);
* an optional CPU dispatch budget serializing handler work per
  partition (one core per partition; ``None`` when ``num_partitions ==
  1`` so the single-partition event sequence is bit-for-bit the
  monolith's).
* its admission control: an armed :class:`Admission` when the store
  has a watermark, else the stateless :data:`NO_ADMISSION`.

Every object-path helper (allocate, publish, persist, settle, lookup,
read) lives here at partition scope, and ``server.partitions`` is the
only way to reach them: ``BaseServer`` has no partition-0 shortcuts,
so code reads the same at ``num_partitions == 1`` as at N.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from typing import Any, Optional, TYPE_CHECKING

from repro.crc.cost import CRC_COST
from repro.errors import CorruptObjectError, MemoryAccessError, PoolExhaustedError
from repro.integrity import ABSENT_TIER
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import (
    FLAG_DURABLE,
    FLAG_VALID,
    HEADER_SIZE,
    NULL_PTR,
    OBJECT_HEADER,
    ObjectImage,
    build_header,
    object_size,
    pack_ptr,
    parse_header,
    parse_object,
    unpack_ptr,
    value_intact,
)
from repro.rdma.rpc import ERR_BUSY, ERR_FENCED, rpc_error
from repro.sim.kernel import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.baselines.base import BaseServer
    from repro.kv.logpool import LogPool
    from repro.rdma.mr import MemoryRegion

__all__ = ["Admission", "NO_ADMISSION", "Partition", "RESPONSE_BYTES", "ROTTEN_LOCATION"]

#: Wire bytes of a small control response (offset + status).
RESPONSE_BYTES = 32

#: What a read through rotten slot or ``pre_ptr`` bits raises: the
#: device's bounds check when offset + size runs past it, the pool's own
#: (``LogPool.abs_addr``) when the offset is outside the pool, and
#: ``parse_object`` on a fragment shorter than a header.
ROTTEN_LOCATION = (MemoryAccessError, PoolExhaustedError, CorruptObjectError)


class Admission:
    """One partition's armed admission watermark (DESIGN.md §15): a
    request that begins an operation while ``watermark`` admitted ones
    are in flight is shed with retryable ``ERR_BUSY``. ``BaseServer``
    attaches one per partition when ``admission_watermark > 0``."""

    __slots__ = ("fabric", "watermark", "inflight", "peak_inflight", "admitted", "shed")

    def __init__(self, fabric: Any, watermark: int) -> None:
        self.fabric = fabric
        self.watermark = watermark
        #: Requests admitted and not yet served (handler in flight), and
        #: its high-water mark (load metric).
        self.inflight = self.peak_inflight = 0
        #: Requests admitted / shed since server start.
        self.admitted = self.shed = 0

    def enter(self) -> bool:
        """The decision (instant, no events): False sheds; True counts
        the request in flight until :meth:`leave`."""
        inj = self.fabric.injector
        if inj is not None:
            act = inj.fire("admission.enter")
            if act is not None and act.kind == "admission_shed":
                # Chaos-forced shed: exercises the client backoff loop
                # without needing real overload.
                self.shed += 1
                return False
        if self.inflight >= self.watermark:
            self.shed += 1
            if inj is not None:
                inj.fire("admission.shed")
            return False
        self.inflight += 1
        self.admitted += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        return True

    def leave(self) -> None:
        self.inflight -= 1

    def stats(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "peak_inflight": self.peak_inflight,
            "inflight": self.inflight,
        }


class NoAdmission:
    """The admission of a store without a watermark: every request is
    admitted, no site fires and nothing is counted. Stateless, so one
    instance (:data:`NO_ADMISSION`) serves every partition of every
    server, and a completion step that was admitted at its alloc."""

    __slots__ = ()

    def enter(self) -> bool:
        return True

    def leave(self) -> None:
        """Nothing was counted in."""


#: The one admission every partition without a watermark holds.
NO_ADMISSION = NoAdmission()


class Partition:
    """State and object-path operations of one server shard."""

    def __init__(
        self,
        server: "BaseServer",
        part_id: int,
        table: Any,
        pools: "list[LogPool]",
        pool_mrs: "list[MemoryRegion]",
        *,
        cpu_budget: Optional[int] = None,
    ) -> None:
        self.server = server
        self.env = server.env
        self.part_id = part_id
        self.table = table
        self.pools = pools
        self.pool_mrs = pool_mrs
        #: Pool receiving new writes (log cleaning redirects this).
        self.write_pool_id = 0
        #: Set while this partition's log cleaner runs a cycle.
        self.cleaning_active = False
        #: Write fence: while True, write requests (:meth:`serve` with
        #: ``write=True``) fail with ERR_FENCED. Raised by cluster
        #: migration during the drain window so the delta pass sees a
        #: frozen log; never set on single-node runs.
        self.fenced = False
        #: Attached by EFactoryServer (None for the other schemes).
        self.verifier: Any = None
        self.cleaner: Any = None
        self.scrubber: Any = None
        #: Parity/checksum-ledger tier: BaseServer attaches a
        #: ``PartitionIntegrity`` when the store has parity; without it
        #: every call lands on the stateless absent tier.
        self.integrity: Any = ABSENT_TIER
        #: Per-partition dispatch budget (one core per partition).  None
        #: when the server is unpartitioned: :meth:`serve` then takes no
        #: budget, keeping the monolith's event sequence untouched.
        self.cpu: Optional[Resource] = (
            Resource(server.env, capacity=cpu_budget) if cpu_budget else None
        )
        #: Admission control: ``BaseServer`` attaches an armed
        #: :class:`Admission` when the store has a watermark; without
        #: one every request lands on the stateless ``NO_ADMISSION``.
        self.admission: "Admission | NoAdmission" = NO_ADMISSION

    @property
    def device(self):
        return self.server.device

    # -- the request lifecycle ------------------------------------------------
    def serve(
        self,
        body: Generator[Event, Any, Any],
        *,
        write: bool = False,
        admit: bool = True,
    ) -> Generator[Event, Any, Any]:
        """Run one request's ``body`` on this partition: the one place a
        handler's work meets the write fence, admission and the budget.

        In order: a ``write`` request is refused with ``ERR_FENCED``
        while :attr:`fenced`; a request that begins an operation is shed
        with retryable ``ERR_BUSY`` while the watermark's worth are in
        flight (DESIGN.md §15); the dispatch budget is taken (a free
        unit at once, with no grant event, as ``RpcServer`` takes a free
        core; otherwise in FIFO line); ``body`` runs; budget and admission
        are given back. The completion step of an operation admitted at
        its alloc (SAW ``persist``, IMM's WRITE_WITH_IMM) passes
        ``admit=False`` and takes the budget only.

        Returns what ``body`` returns, or ``(refusal, RESPONSE_BYTES)``
        without running it.
        """
        if write and self.fenced:
            return (
                rpc_error(
                    f"partition {self.part_id} is write-fenced (migrating)",
                    code=ERR_FENCED,
                ),
                RESPONSE_BYTES,
            )
        admission = self.admission if admit else NO_ADMISSION
        if not admission.enter():
            return (
                rpc_error(
                    f"partition {self.part_id} over admission watermark "
                    f"({admission.inflight} in flight)",
                    code=ERR_BUSY,
                ),
                RESPONSE_BYTES,
            )
        cpu = self.cpu
        req = None
        if cpu is not None:
            req = cpu.try_acquire()
            if req is None:
                req = yield from cpu.acquire()
        try:
            return (yield from body)
        finally:
            if req is not None:
                cpu.release(req)
            admission.leave()

    # -- the shared allocation path (client-active PUT, steps 2-4) ------------
    def alloc_object(
        self,
        key: bytes,
        vlen: int,
        crc: int,
        *,
        publish: bool = True,
        flags: int = FLAG_VALID,
        charge_alloc: bool = True,
    ) -> Generator[Event, Any, tuple[Slot, int]]:
        """Allocate + write header/key (+ index update when ``publish``).

        Runs inside a request handler (CPU already held). Returns the
        location and the hash-entry offset. ``publish=False`` defers the
        index update (IMM/SAW publish only after the data is durable).
        ``charge_alloc=False`` skips the allocator's CPU cost — the
        ``alloc_batch`` handler carves one slab per partition group, so
        only the group's first object pays the log-head bump.
        """
        server = self.server
        env = self.env
        pool = self.pools[self.write_pool_id]
        size = object_size(len(key), vlen)
        if charge_alloc:
            yield env.timeout(server.alloc_ns)
        offset = pool.allocate(size)
        loc = Slot(pool=pool.pool_id, offset=offset, size=size)

        # previous-version link (the version list, §4.2.2)
        fp = key_fingerprint(key)
        yield env.timeout(server.index_ns)
        entry_off = self.table.find_or_create(fp)
        prev = self.table.read_cur(entry_off)
        pre_ptr = pack_ptr(prev.pool, prev.offset) if prev is not None else NULL_PTR

        header = build_header(
            flags=flags,
            klen=len(key),
            vlen=vlen,
            crc=crc,
            pre_ptr=pre_ptr,
            ts=int(env.now),
        )
        yield env.timeout(server.header_write_ns + server.meta_indirection_ns)
        pool.write(offset, header + key)

        # Forward link (§4.2.2 NextPTR): lets the log cleaner find "the
        # next version of the migrated current version". One atomic
        # 8-byte store into the previous version's header.
        if prev is not None:
            nxt_field = OBJECT_HEADER.offset_of("nxt_ptr")
            # The previous head may already be covered by the parity
            # tier; fold the link rewrite into parity + ledger.
            old_nxt = self.integrity.snapshot(prev.pool, prev.offset + nxt_field, 8)
            self.device.write_atomic64(
                self.pools[prev.pool].abs_addr(prev.offset) + nxt_field,
                OBJECT_HEADER.pack_field(
                    "nxt_ptr", pack_ptr(pool.pool_id, offset)
                ),
            )
            self.integrity.note_mutation(prev.pool, prev.offset, nxt_field, old_nxt)

        # Ordering matters for recoverability (§4.3.1: "after all the
        # metadata has been updated and persisted"): the header must be
        # durable *before* the hash entry can point at it — otherwise a
        # crash could naturally evict the entry update while losing the
        # header, severing the version list below an intact version.
        if server.persist_meta:
            yield from self.persist_header(loc, len(key))
        if publish:
            yield from self.publish_object(entry_off, loc)
        if server.persist_meta:
            yield from self.persist_entry_timed(entry_off)
        server.on_allocated(self, loc, entry_off)
        return loc, entry_off

    def publish_object(
        self, entry_off: int, loc: Slot
    ) -> Generator[Event, Any, None]:
        """Make the hash entry point at the object (one atomic store)."""
        yield self.env.timeout(self.server.entry_update_ns)
        self.table.set_cur(entry_off, loc)

    def persist_header(
        self, loc: Slot, klen: int
    ) -> Generator[Event, Any, None]:
        """Flush the object header + key (before any entry exposes it)."""
        t = self.device.timing
        meta_len = HEADER_SIZE + klen
        yield self.env.timeout(t.flush_cost(meta_len))
        self.device.flush(self.pools[loc.pool].abs_addr(loc.offset), meta_len)

    def persist_entry_timed(self, entry_off: int) -> Generator[Event, Any, None]:
        """Flush the hash entry's line (one CLWB + fence)."""
        t = self.device.timing
        yield self.env.timeout(t.flush_line_ns + t.fence_ns)
        self.table.persist_entry(entry_off)

    def publish_durable(
        self, loc: Slot, entry_off: int
    ) -> Generator[Event, Any, None]:
        """The completion step of the durable-before-visible schemes
        (SAW ``persist``, IMM's WRITE_WITH_IMM): flag, flush the object,
        then publish and persist its hash entry."""
        # Flag first so the flush below covers it: post-crash, a set
        # durability flag must imply the value is on media.
        img = self.read_object(loc)
        self.set_object_flags(loc, img.flags | FLAG_DURABLE)
        yield from self.persist_object(loc)
        yield from self.publish_object(entry_off, loc)
        yield from self.persist_entry_timed(entry_off)

    # -- shared object helpers ------------------------------------------------
    def location_reply(self, loc: Slot) -> tuple[dict[str, int], int]:
        """A ``get_loc`` answer: where the client READs the object."""
        return (
            {"pool": loc.pool, "offset": loc.offset, "size": loc.size,
             "part": self.part_id},
            RESPONSE_BYTES,
        )

    def read_object(self, loc: Slot) -> ObjectImage:
        """Instant state read of an object (timing charged by caller)."""
        return parse_object(self.pools[loc.pool].read(loc.offset, loc.size))

    def persist_object(self, loc: Slot) -> Generator[Event, Any, None]:
        """Timed flush of a whole object."""
        pool = self.pools[loc.pool]
        yield from self.device.persist(pool.abs_addr(loc.offset), loc.size)

    def set_object_flags(self, loc: Slot, flags: int) -> None:
        """Instant single-byte flag store (offset 2 in the header)."""
        old = self.integrity.snapshot(loc.pool, loc.offset + 2, 1)
        self.pools[loc.pool].write(loc.offset + 2, bytes([flags]))
        self.integrity.note_mutation(loc.pool, loc.offset, 2, old)

    def mark_durable(self, loc: Slot, img: ObjectImage) -> None:
        self.set_object_flags(loc, img.flags | FLAG_DURABLE)
        # the flag itself must be durable before pure-RDMA readers trust it
        self.device.flush(self.pools[loc.pool].abs_addr(loc.offset), 8)

    def settle_verified(
        self, loc: Slot, img: ObjectImage
    ) -> Generator[Event, Any, None]:
        """Persist one CRC-verified object and set its durability flag
        (the GET path's inline settle; the verifier settles through its
        batch step). The integrity tier snapshots the verified
        pre-persist bytes first — if the settling persist itself
        corrupts the media, they are what parity must cover so the
        scrubber can reconstruct the good image — and folds them into
        parity + ledger after the flag, as a one-object batch."""
        raw = self.integrity.snapshot(loc.pool, loc.offset, loc.size)
        yield from self.persist_object(loc)
        self.mark_durable(loc, img)
        yield from self.integrity.settle_batch([(loc, raw)])

    def lookup_slot(
        self, key: bytes
    ) -> Optional[tuple[int, Optional[Slot], Optional[Slot]]]:
        """(entry_off, cur, alt) for ``key`` or None (state only)."""
        fp = key_fingerprint(key)
        entry_off = self.table.find(fp)
        if entry_off is None:
            return None
        return entry_off, self.table.read_cur(entry_off), self.table.read_alt(entry_off)

    def delete(self, key: bytes) -> Generator[Event, Any, bool]:
        """Unindex ``key`` and invalidate its current version (a DELETE
        request's work, and a migration's deletion delta). False, after
        the index probe, when the key has no current version."""
        yield self.env.timeout(self.server.index_ns)
        found = self.lookup_slot(key)
        if found is None or found[1] is None:
            return False
        entry_off, loc, _alt = found
        img = self.read_object(loc)
        yield self.env.timeout(self.server.entry_update_ns)
        self.table.clear_cur(entry_off)
        self.table.clear_alt(entry_off)
        self.table.persist_entry(entry_off)
        if img.well_formed:
            self.set_object_flags(loc, img.flags & ~FLAG_VALID)
            # The VALID clear must be durable before the ack, or a
            # crash resurrects the object when the pool scan re-seeds
            # the index (same store+flush pairing as mark_durable;
            # the flush_cost timeout below already charges the time).
            self.device.flush(self.pools[loc.pool].abs_addr(loc.offset), 8)
        yield self.env.timeout(self.device.timing.flush_cost(32))
        return True

    # -- the version list (§4.2.2) --------------------------------------------
    def versions(self, head: Optional[Slot]) -> Iterator[Slot]:
        """Walk a key's version list: ``head``, then each predecessor
        along the on-media ``pre_ptr`` chain, newest first.

        Lazy and instant: a hop reads the two headers it needs only when
        the caller asks for the next version, so the caller's own time
        charges decide when that happens. The walk ends at a null
        ``pre_ptr``, at a header that does not parse, at a location it
        has already yielded (a rotten link into its own chain), and at a
        location whose read raises (rotten bits pointing outside a pool)
        — it terminates on any media, and never trusts a link further
        than the header it lands on.
        """
        seen: set[tuple[int, int]] = set()
        loc = head
        while loc is not None:
            seen.add((loc.pool, loc.offset))
            yield loc
            try:
                hdr = parse_header(self.pools[loc.pool].read(loc.offset, HEADER_SIZE))
                prev = unpack_ptr(hdr.pre_ptr) if hdr is not None else None
                if prev is None or prev[0] >= len(self.pools) or prev in seen:
                    return
                pool_id, offset = prev
                prev_hdr = parse_header(self.pools[pool_id].read(offset, HEADER_SIZE))
            except ROTTEN_LOCATION:
                return
            if prev_hdr is None:
                return
            loc = Slot(
                pool=pool_id,
                offset=offset,
                size=object_size(prev_hdr.klen, prev_hdr.vlen),
            )

    def provably_intact(
        self, loc: Slot, fp: int
    ) -> Generator[Event, Any, Optional[ObjectImage]]:
        """The version at ``loc`` if it is provably intact on media, else
        None: valid, the entry's fingerprint, and the durability flag set
        (flushed only after the value, so trustworthy) or, failing that,
        a CRC that verifies. Charges the object read, and the CRC only
        when the flag is clear (recovery's and migration's rule)."""
        yield self.env.timeout(self.device.timing.read_cost(loc.size))
        try:
            img = self.read_object(loc)
        except ROTTEN_LOCATION:
            return None
        if not img.well_formed or not img.valid or key_fingerprint(img.key) != fp:
            return None
        if img.durable:
            return img
        yield self.env.timeout(CRC_COST.cost_ns(img.vlen))
        return img if value_intact(img) else None
