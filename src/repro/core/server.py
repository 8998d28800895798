"""The eFactory server (paper §4).

Composition of the shared client-active allocation path
(:meth:`repro.baselines.partition.Partition.alloc_object` — Figure 5
steps 2–4, with metadata persisted before the ack), the background
verification thread (§4.3.2), the RPC read path with the *selective
durability guarantee* (§4.3.3 steps 6–8 / §5.3 "durability check first,
CRC only if needed"), and the two-stage log cleaner (§4.4).

The server is a composition of ``num_partitions`` independent partitions
(own pools, table segment, verifier, cleaner, scrubber — see
``repro.baselines.partition``), one by default; every RPC handler
routes by the key's fingerprint and runs under that partition's
dispatch budget.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseServer,
    ObjectLocation,
    Partition,
    RESPONSE_BYTES,
    busy_error,
)
from repro.core.background import BackgroundVerifier
from repro.core.scrub import Scrubber
from repro.core.config import EFactoryConfig, efactory_config
from repro.kv.objects import FLAG_VALID
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import ERR_NO_INTACT, ERR_NOT_FOUND, rpc_error
from repro.rdma.verbs import Message
from repro.sim.kernel import Environment, Event
from repro.util import sum_counters

__all__ = ["EFactoryServer"]


class EFactoryServer(BaseServer):
    store_name = "efactory"
    publish_on_alloc = True  # Figure 5 step 3: index updated at alloc

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        config: Optional[EFactoryConfig] = None,
        name: str = "server",
    ) -> None:
        super().__init__(env, fabric, config or efactory_config(), name=name)
        cfg: EFactoryConfig = self.config  # type: ignore[assignment]
        # Multiple receive regions -> cheaper per-message dispatch (§6.1).
        self.rpc.dispatch_ns = cfg.effective_dispatch_ns
        from repro.core.log_cleaning import LogCleaner  # import cycle

        for part in self.partitions:
            part.verifier = BackgroundVerifier(self, part)
            part.cleaner = LogCleaner(self, part)
            part.scrubber = Scrubber(self, part)
        #: Back-reference set by :class:`repro.cluster.ClusterNode` when
        #: this server is a member of a replicated cluster; None on
        #: standalone servers.
        self.cluster_node = None

    @property
    def cleaning_active(self) -> bool:
        """True while *any* partition runs a cleaning cycle."""
        return any(p.cleaning_active for p in self.partitions)

    @property
    def backlog(self) -> int:
        """Objects still queued for any partition's verifier."""
        return sum(p.verifier.backlog for p in self.partitions)

    @property
    def background(self) -> "EFactoryServer":
        """``background.backlog`` is :attr:`backlog`: the name the
        benchmark's settle loop (``bench/driver.py``) reads. Delete once
        that loop reads ``metrics()["verifier"]["backlog"]``."""
        return self

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        super().start()
        for part in self.partitions:
            part.verifier.start()
            if self.config.scrub_interval_ns > 0:
                part.scrubber.start()

    def stop(self) -> None:
        super().stop()
        for part in self.partitions:
            part.verifier.stop()
            part.cleaner.stop()
            part.scrubber.stop()

    def metrics(self) -> dict[str, dict[str, int]]:
        """Aggregated background-machinery counters (one dict per
        subsystem, partition-summed)."""
        parts = self.partitions
        fastpath = self.fabric.fastpath_ops
        total_ops = fastpath + self.fabric.fallback_ops
        processed = self.env.events_processed
        out = {
            "verifier": sum_counters(p.verifier.stats() for p in parts),
            "cleaner": sum_counters(p.cleaner.stats.as_dict() for p in parts),
            "scrubber": sum_counters(p.scrubber.stats() for p in parts),
            "sim": {
                "events_scheduled": self.env.events_scheduled,
                "events_processed": processed,
                "fastpath_ops": fastpath,
                "fallback_ops": self.fabric.fallback_ops,
                "events_per_op": processed / total_ops if total_ops else 0,
            },
        }
        if self.config.admission_watermark > 0:
            # Only present when the knob is on, so every legacy metrics
            # consumer sees an unchanged dict shape.
            out["admission"] = {
                "watermark": self.config.admission_watermark,
                "admitted": sum(p.admitted_requests for p in parts),
                "shed": sum(p.shed_requests for p in parts),
                "peak_inflight": max(p.peak_inflight for p in parts),
                "inflight": sum(p.inflight for p in parts),
            }
        if self.config.parity_stripe_kb > 0:
            out["integrity"] = sum_counters(p.integrity.stats() for p in parts)
        if self.cluster_node is not None:
            out["cluster"] = self.cluster_node.metrics()
        return out

    # -- handlers ----------------------------------------------------------------
    def _register_handlers(self) -> None:
        super()._register_handlers()
        self.rpc.register("get_loc", self._handle_get_loc)
        self.rpc.register("delete", self._handle_delete)
        self.rpc.register("cleaning_ack", self._handle_cleaning_ack)

    def on_allocated(
        self, part: Partition, loc: ObjectLocation, entry_off: int
    ) -> None:
        """Feed the partition's background thread; maybe trigger cleaning."""
        part.verifier.enqueue(loc)
        cfg: EFactoryConfig = self.config  # type: ignore[assignment]
        if (
            cfg.auto_clean
            and not part.cleaning_active
            and part.pools[part.write_pool_id].needs_cleaning()
        ):
            part.cleaner.trigger()

    def _handle_cleaning_ack(self, msg: Message) -> Generator[Event, Any, None]:
        part_id = msg.payload.get("part", 0)
        self.partitions[part_id].cleaner.note_ack()
        return None
        yield  # pragma: no cover - makes this a generator

    # -- the RPC read path (§4.3.3 steps 6-8) --------------------------------------
    def _handle_get_loc(self, msg: Message) -> Generator[Event, Any, tuple[Any, int]]:
        cfg = self.config
        key: bytes = msg.payload["key"]
        part = self.partition_for_key(key)
        if not part.try_admit():
            return busy_error(part), RESPONSE_BYTES
        budget = yield from part.acquire_budget()
        try:
            yield self.env.timeout(cfg.index_ns)
            found = part.lookup_slot(key)
            if found is None:
                return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
            _entry_off, cur, alt = found

            # Walk the version list from the latest version (step 7).
            loc = _loc(cur)
            while loc is not None:
                resolved = yield from self._resolve_version(part, loc, key)
                if resolved is not None:
                    return (
                        {"pool": resolved.pool, "offset": resolved.offset,
                         "size": resolved.size, "part": part.part_id},
                        RESPONSE_BYTES,
                    )
                loc = part.previous_location(loc)

            # Fall back to the log-cleaning copy (durable by construction).
            if alt is not None:
                loc = _loc(alt)
                img = part.read_object(loc)
                if img.well_formed and img.key == key and img.durable:
                    return (
                        {"pool": loc.pool, "offset": loc.offset,
                         "size": loc.size, "part": part.part_id},
                        RESPONSE_BYTES,
                    )
            return rpc_error(f"key {key!r}: no intact version", ERR_NO_INTACT), RESPONSE_BYTES
        finally:
            part.release_budget(budget)
            part.depart()

    def _resolve_version(
        self, part: Partition, loc: ObjectLocation, key: bytes
    ) -> Generator[Event, Any, Optional[ObjectLocation]]:
        """Selective durability guarantee for one version.

        Durability check first (cheap); CRC + persist only when the
        background thread has not gotten there yet — the difference from
        Forca, which CRCs every read.
        """
        cfg = self.config
        yield self.env.timeout(cfg.peek_ns)  # header peek
        img = part.read_object(loc)
        if not img.well_formed or img.key != key or not img.valid:
            return None
        if img.durable:
            return loc
        # Not yet durable: verify + persist on the request path so the
        # reader is never blocked behind the background thread's cursor.
        yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
        if part.object_value_ok(img):
            yield from part.settle_verified(loc, img)
            return loc
        return None

    # -- delete (API completeness; reclaimed by log cleaning) ------------------------
    def _handle_delete(self, msg: Message) -> Generator[Event, Any, tuple[Any, int]]:
        cfg = self.config
        key: bytes = msg.payload["key"]
        part = self.partition_for_key(key)
        if not part.try_admit():
            return busy_error(part), RESPONSE_BYTES
        budget = yield from part.acquire_budget()
        try:
            yield self.env.timeout(cfg.index_ns)
            found = part.lookup_slot(key)
            if found is None or found[1] is None:
                return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
            entry_off, cur, _alt = found
            loc = _loc(cur)
            img = part.read_object(loc)
            yield self.env.timeout(cfg.entry_update_ns)
            part.table.clear_cur(entry_off)
            part.table.clear_alt(entry_off)
            part.table.persist_entry(entry_off)
            if img.well_formed:
                part.set_object_flags(loc, img.flags & ~FLAG_VALID)
                # The VALID clear must be durable before the ack, or a
                # crash resurrects the object when the pool scan re-seeds
                # the index (same store+flush pairing as mark_durable;
                # the flush_cost timeout below already charges the time).
                part.device.flush(part.pools[loc.pool].abs_addr(loc.offset), 8)
            yield self.env.timeout(cfg.nvm_timing.flush_cost(32))
            return {"ok": True}, RESPONSE_BYTES
        finally:
            part.release_budget(budget)
            part.depart()

    # -- maintenance -----------------------------------------------------------------
    def trigger_cleaning(self, part_id: Optional[int] = None) -> Optional[Event]:
        """Manually start a log-cleaning cycle (benchmarks, tests).

        ``part_id`` selects one partition; with ``None`` the monolith
        triggers its single cleaner, a partitioned server triggers *all*
        idle cleaners and returns an event for their completion.
        """
        if part_id is not None:
            return self.partitions[part_id].cleaner.trigger()
        if len(self.partitions) == 1:
            return self.partitions[0].cleaner.trigger()
        procs = [p.cleaner.trigger() for p in self.partitions]
        procs = [proc for proc in procs if proc is not None]
        if not procs:
            return None
        return self.env.all_of(procs)


def _loc(slot) -> Optional[ObjectLocation]:
    if slot is None:
        return None
    return ObjectLocation(pool=slot.pool, offset=slot.offset, size=slot.size)
