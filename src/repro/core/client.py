"""The eFactory client: client-active PUT + hybrid read GET (§4.3).

GET (Figure 6): hash the key locally (step 1), READ the hash bucket
(step 2), READ the object (step 3), check the embedded durability flag
(step 4). If the object is durable, done — two one-sided READs, zero
CRC, zero server CPU. Otherwise fall back to the RPC+RDMA read: GET
request by SEND (step 5), server resolves a durable location (steps
6–8), client READs it (step 9).

The *location cache* (``loc_cache_size > 0``) amortizes step 2 away: a
bounded LRU of key → (partition, slot) lets a warm GET issue one READ
straight at the object. The object image itself is the staleness
detector — an overwritten version carries a set ``nxt_ptr`` (the
allocator links it forward before the new version is even visible), a
deleted version drops FLAG_VALID, and a version migrated by log
cleaning gains FLAG_TRANS. Any of these drops the entry and retries via
the two-READ path, so a hit can never return a superseded value.

During log cleaning the client obeys the server's notification and uses
only the RPC+RDMA path (§4.4) — but only for keys on the *cleaning
partition*; the other shards stay on the pure path. The location cache
is flushed per partition on the cleaning-start notice (migration moves
objects under the cache's feet) and when resilience demotes a
partition. :class:`EFactoryNoHrClient` takes the RPC+RDMA path on
every read (the "eFactory w/o hr" ablation of §6.1), counted separately
from genuine fallbacks.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import BaseClient, GET_REQUEST_OVERHEAD
from repro.core.config import EFactoryConfig
from repro.errors import OperationTimeout, QPError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import NULL_PTR, ObjectImage, parse_object
from repro.sim.kernel import Event
from repro.util import LruMap

__all__ = ["EFactoryClient", "EFactoryNoHrClient"]

#: Bound on the adaptive-read skip map (entries, LRU-evicted), so it
#: cannot grow without bound under churn.
ADAPTIVE_SKIP_CAP = 4096


class EFactoryClient(BaseClient):
    #: The §4.3.3 hybrid read: try the pure-RDMA path first.
    hybrid_read = True
    #: With ``adaptive_read`` on, how long (ns) a key skips the pure
    #: attempt after a fallback.
    adaptive_ttl_ns = 30_000.0

    def __init__(self, env, server, name: str) -> None:
        super().__init__(env, server, name)
        cfg: EFactoryConfig = self.config  # type: ignore[assignment]
        #: Counters for the factor analysis (§6.1): how often the pure
        #: RDMA path sufficed, fell back to RPC+RDMA, or never attempted
        #: the pure path at all (hybrid read disabled).
        self.pure_reads = 0
        self.fallback_reads = 0
        self.rpc_only_reads = 0
        #: Reads routed straight to RPC because resilience demoted the
        #: key's partition (graceful degradation under injected faults).
        self.degraded_reads = 0
        #: Location cache: key -> (partition, Slot).  Disabled (and
        #: stateless) at the default ``loc_cache_size = 0``.
        self._loc_cache: LruMap = LruMap(cfg.loc_cache_size)
        self.cache_hits = 0
        self.cache_misses = 0
        #: Integrity-tree mode: one-READ images rejected by the checksum
        #: ledger (misdirected / replayed / rotten bytes that still
        #: parsed as current) — each falls back to the RPC path.
        self.tree_rejects = 0
        #: adaptive-read extension: key -> time until which the pure
        #: attempt is skipped (set after a fallback on that key).
        #: Bounded: LRU-evicted past ``ADAPTIVE_SKIP_CAP`` entries, and
        #: expired entries are swept opportunistically on insert.
        self._skip_until: LruMap = LruMap(ADAPTIVE_SKIP_CAP)

    # -- PUT (Figure 5) ------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        yield from self.put_client_active(key, value, with_crc=True)

    def put_many(
        self, items: "list[tuple[bytes, bytes]]"
    ) -> Generator[Event, Any, None]:
        """Doorbell-batched PUT pipeline: one ``alloc_batch`` SEND per
        ``put_batch`` items, value WRITEs as one doorbell chain, up to
        ``put_window`` chains in flight."""
        yield from self.put_many_client_active(items, with_crc=True)

    def _note_alloc(self, key: bytes, resp: dict) -> None:
        """A fresh allocation is by construction the key's current
        location — warm the cache so the next GET goes straight there."""
        part = resp.get("part", 0)
        if not self.partition_cleaning(part):
            self._loc_cache.put(
                key,
                (part, Slot(pool=resp["pool"], size=resp["size"], offset=resp["obj_off"])),
            )

    # -- GET (Figure 6) ---------------------------------------------------------
    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        cfg: EFactoryConfig = self.config  # type: ignore[assignment]
        if not self.hybrid_read:
            # The ablation never attempts the pure path: not a fallback.
            self.rpc_only_reads += 1
            return (yield from self._rpc_read(key))
        part = self.partition_of(key_fingerprint(key))
        res = self.resilience
        degraded = res is not None and res.partition_degraded(part, self.env.now)
        if degraded:
            self.degraded_reads += 1
            self._flush_cache_partition(part)
        elif not self.partition_cleaning(part) and not self._skip(key, cfg):
            try:
                value = yield from self._try_pure_read(key, part)
            except (QPError, OperationTimeout):
                # Transport fault on the one-sided path: note it (enough
                # consecutive ones demote this partition to the RPC
                # path), heal the QP, and fall back for this read.
                if res is None:
                    raise
                res.note_pure_fault(part, self.env.now)
                if self.ep.in_error:
                    yield from self._reconnect(res)
                value = None
            else:
                if res is not None:
                    res.note_pure_ok(part)
            if value is not None:
                self.pure_reads += 1
                if cfg.adaptive_read:
                    self._skip_until.pop(key)
                return value
            if cfg.adaptive_read:
                self._skip_until.put(key, self.env.now + self.adaptive_ttl_ns)
                self._skip_until.evict_expired(
                    lambda _k, until: self.env.now >= until
                )
        self.fallback_reads += 1
        return (yield from self._rpc_read(key))

    def _skip(self, key: bytes, cfg: EFactoryConfig) -> bool:
        if not cfg.adaptive_read:
            return False
        until = self._skip_until.peek(key)
        if until is None:
            return False
        if self.env.now >= until:
            self._skip_until.pop(key)
            return False
        return True

    # -- the location cache ------------------------------------------------------
    @staticmethod
    def _img_current(img: ObjectImage, key: bytes) -> bool:
        """Is this image still the key's *current, in-place* version?
        An overwrite sets ``nxt_ptr`` on the old version, a delete
        clears FLAG_VALID, log cleaning sets FLAG_TRANS — each makes a
        cached location untrustworthy."""
        return (
            img.well_formed
            and img.key == key
            and img.valid
            and img.nxt_ptr == NULL_PTR
            and not img.transferred
        )

    def _flush_cache_partition(self, part: int) -> None:
        self._loc_cache.drop_where(lambda _k, v: v[0] == part)

    def _cleaning_started(self, part: int) -> None:
        """Migration is about to move this partition's objects: every
        cached location there is suspect."""
        self._flush_cache_partition(part)

    def _reconnected(self) -> None:
        """The QP was just re-established after a fault. If the server
        was failed over meanwhile, every cached (partition, slot) pair
        describes the *dead* node's layout — and unlike an overwrite or
        delete, the image-staleness check never runs because the READ
        itself faults. Drop everything cached."""
        self._loc_cache.clear()

    def _try_pure_read(
        self, key: bytes, part: int = 0
    ) -> Generator[Event, Any, Optional[bytes]]:
        """Steps 1-4: two one-sided READs + durability-flag check — or a
        single READ when the location cache still has the key."""
        cache = self._loc_cache
        cached = cache.get(key) if cache.capacity > 0 else None
        if cached is not None and cached[0] == part:
            slot = cached[1]
            self._note_part(part)
            raw = yield from self.ep.read(
                self._pool_rkey(part, slot.pool), slot.offset, slot.size
            )
            img = parse_object(raw)
            if self._img_current(img, key):
                self.cache_hits += 1
                if not img.durable:
                    # Current but not yet durable: the bucket would point
                    # at this same slot, so skip the re-probe and fall
                    # back.
                    return None
                integrity = self.server.partitions[part].integrity
                if not (yield from integrity.verify_read(slot, raw)):
                    # The image parsed as current but its bytes disagree
                    # with the checksum ledger under the pushed root —
                    # end-to-end detection on the 1-READ path. Let the
                    # server resolve (and the scrubber repair) it.
                    self.tree_rejects += 1
                    self._loc_cache.pop(key)
                    return None
                return img.value
            # Overwritten / deleted / migrated behind our back.
            self._loc_cache.pop(key)
        self.cache_misses += 1
        _fp, slots = yield from self.read_bucket(key)
        if slots is None:
            return None  # not in home bucket: let the server probe
        cur, alt = slots
        # Prefer the working-pool slot; during a cleaning race both may
        # be valid and either copy is consistent, but `cur` is current.
        slot = cur or alt
        if slot is None:
            return None
        img = yield from self.read_object_at(slot, part)
        if img.well_formed and img.key == key and img.valid and img.durable:
            if img.nxt_ptr == NULL_PTR and not img.transferred:
                self._loc_cache.put(key, (part, slot))
            return img.value
        return None  # incomplete / not yet durable: re-read via RPC

    # -- extensions -----------------------------------------------------------------
    def delete(self, key: bytes) -> Generator[Event, Any, None]:
        self._loc_cache.pop(key)
        yield from self.rpc.call(
            {"op": "delete", "key": key}, GET_REQUEST_OVERHEAD + len(key)
        )

    def read_stats(self) -> dict[str, int]:
        return {
            "pure": self.pure_reads,
            "fallback": self.fallback_reads,
            "rpc_only": self.rpc_only_reads,
            "degraded": self.degraded_reads,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "tree_rejects": self.tree_rejects,
        }


class EFactoryNoHrClient(EFactoryClient):
    """The "eFactory w/o hr" ablation (§6.1): every GET goes RPC+RDMA
    with the selective durability guarantee; the server is eFactory's."""

    hybrid_read = False
