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
routes by the key's fingerprint and runs inside that partition's
request lifecycle (``Partition.serve``: write fence, admission,
dispatch budget).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import BaseServer, Partition, RESPONSE_BYTES, _align
from repro.core.background import BackgroundVerifier
from repro.core.scrub import Scrubber
from repro.core.config import EFactoryConfig
from repro.crc.cost import CRC_COST
from repro.integrity import PartitionIntegrity, integrity_region_bytes
from repro.kv.hashtable import Slot
from repro.kv.objects import value_intact
from repro.mem.buffer import CACHELINE
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import ERR_NO_INTACT, ERR_NOT_FOUND, rpc_error
from repro.rdma.verbs import Message
from repro.sim.kernel import Environment, Event
from repro.util import sum_counters

__all__ = ["EFactoryServer"]


class EFactoryServer(BaseServer):
    store_name = "efactory"
    publish_on_alloc = True  # Figure 5 step 3: index updated at alloc
    #: §4.3.1: header and hash entry are persisted before the alloc ack.
    persist_meta = True
    #: §4.4: log cleaning copies live objects into the second pool.
    pools_per_partition = 2
    config_cls = EFactoryConfig
    #: §6.1 credits eFactory's PUT edge over Erda to "multiple receiving
    #: regions to optimize the simultaneous processing of a batch of
    #: packets": a multiplier (<1) on the per-message ``dispatch_ns``.
    recv_batching = 0.5

    # background verifier timings (ns)
    #: An idle verifier pass (``bg_batch == 1``) polls again after this;
    #: the scrubber never laps faster than it.
    bg_idle_poll_ns = 2_000.0
    #: An object whose value WRITE has not landed is revisited after this.
    bg_retry_delay_ns = 3_000.0

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        config: Optional[EFactoryConfig] = None,
        name: str = "server",
    ) -> None:
        super().__init__(env, fabric, config, name=name)
        stride = self._tier_bytes()
        if stride:  # the device's last bytes: no table or pool address moves
            base = self.device.buffer.size - stride * len(self.partitions)
            for part in self.partitions:
                part.integrity = PartitionIntegrity(self.device, env, self.config, part.pools, base)
                base += stride
        # Multiple receive regions -> cheaper per-message dispatch (§6.1).
        #: Per-message dispatch cost with no cleaner running; each
        #: running cleaning cycle raises ``rpc.dispatch_ns`` above it.
        self.dispatch_base = self.dispatch_ns * self.recv_batching
        self.active_cleaners = 0
        self.rpc.dispatch_ns = self.dispatch_base
        from repro.core.log_cleaning import LogCleaner  # import cycle

        for part in self.partitions:
            part.verifier = BackgroundVerifier(self, part)
            part.cleaner = LogCleaner(self, part)
            part.scrubber = Scrubber(self, part)
        #: Back-reference set by :class:`repro.cluster.ClusterNode` when
        #: this server is a member of a replicated cluster; None on
        #: standalone servers.
        self.cluster_node = None

    def _tier_bytes(self) -> int:
        """One partition's parity, ledger and root regions."""
        stripe = self.config.parity_stripe_kb * 1024
        if stripe == 0:
            return 0
        one_pool = integrity_region_bytes(self.config.pool_size, stripe, CACHELINE)
        return _align(self.pools_per_partition * one_pool, 4096)

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
        admission = self.admission_metrics()
        if admission is not None:
            # Only present when the knob is on, so every legacy metrics
            # consumer sees an unchanged dict shape.
            out["admission"] = admission
        if self.config.parity_stripe_kb > 0:
            out["integrity"] = sum_counters(p.integrity.stats() for p in parts)
        if self.cluster_node is not None:
            out["cluster"] = self.cluster_node.metrics()
        return out

    # -- handlers ----------------------------------------------------------------
    def _register_handlers(self) -> None:
        super()._register_handlers()
        self.register_keyed("get_loc", self._handle_get_loc)
        self.register_keyed("delete", self._handle_delete, write=True)
        self.rpc.register("cleaning_ack", self._handle_cleaning_ack)

    def on_allocated(
        self, part: Partition, loc: Slot, entry_off: int
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
    def _handle_get_loc(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        key: bytes = msg.payload["key"]
        yield self.env.timeout(self.index_ns)
        found = part.lookup_slot(key)
        if found is None:
            return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
        _entry_off, cur, alt = found

        # Walk the version list from the latest version (step 7).
        for loc in part.versions(cur):
            if (yield from self._resolve_version(part, loc, key)):
                return part.location_reply(loc)

        # Fall back to the log-cleaning copy (durable by construction).
        if alt is not None:
            img = part.read_object(alt)
            if img.well_formed and img.key == key and img.durable:
                return part.location_reply(alt)
        return rpc_error(f"key {key!r}: no intact version", ERR_NO_INTACT), RESPONSE_BYTES

    def _resolve_version(
        self, part: Partition, loc: Slot, key: bytes
    ) -> Generator[Event, Any, bool]:
        """Selective durability guarantee for one version.

        Durability check first (cheap); CRC + persist only when the
        background thread has not gotten there yet — the difference from
        Forca, which CRCs every read.
        """
        yield self.env.timeout(self.peek_ns)  # header peek
        img = part.read_object(loc)
        if not img.well_formed or img.key != key or not img.valid:
            return False
        if img.durable:
            return True
        # Not yet durable: verify + persist on the request path so the
        # reader is never blocked behind the background thread's cursor.
        yield self.env.timeout(CRC_COST.cost_ns(img.vlen))
        if value_intact(img):
            yield from part.settle_verified(loc, img)
            return True
        return False

    # -- delete (API completeness; reclaimed by log cleaning) ------------------------
    def _handle_delete(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        key: bytes = msg.payload["key"]
        if not (yield from part.delete(key)):
            return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
        return {"ok": True}, RESPONSE_BYTES

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
