"""Shared server/client machinery for every store in the comparison.

The paper implements SAW, IMM, Erda, Forca, and eFactory "on the same
code base" (§5.3) for an apples-to-apples comparison; this module is
that code base. It provides:

* :class:`StoreConfig` — capacity, geometry, partitioning and admission;
* :class:`BaseServer` — node + NVM carve-up (hash table region, one or
  two log pools per partition), the SEND-based-RPC dispatch loop, and
  session management. A scheme's own facts (whether it persists
  metadata before the alloc ack, how many pools a partition has, the
  extra metadata indirection it pays) are class attributes its server
  overrides, not config knobs.  The server is a composition of
  :class:`~repro.baselines.partition.Partition` objects behind a
  deterministic key→partition router, and ``server.partitions`` is the
  only way into table, pool and object state; the default
  ``num_partitions=1`` reproduces the paper's single-threaded server
  exactly;
* :class:`BaseClient` — connection setup (obtaining rkeys and geometry,
  §4.3), the client half of the client-active PUT, pure-RDMA GET
  helpers (partition-aware: the route is computed locally from the key
  fingerprint, so sharding costs no extra round trip), and the
  notification mailbox used by log cleaning.

Concrete stores subclass these and register/override handlers.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any, ClassVar, Optional

from repro.baselines.partition import RESPONSE_BYTES, Admission, Partition
from repro.crc.cost import CRC_COST
from repro.crc.crc32 import crc32_fast
from repro.errors import (
    ConfigError,
    KeyNotFoundError,
    OperationTimeout,
    QPError,
    StoreError,
)
from repro.kv.hashtable import (
    HashTableGeometry,
    NvmHashTable,
    Slot,
    client_lookup_bucket,
    key_fingerprint,
    partition_of_fp,
)
from repro.kv.logpool import LogPool
from repro.kv.objects import HEADER_SIZE, ObjectImage, parse_object
from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric, Node
from repro.rdma.mr import MemoryRegion
from repro.rdma.qp import Endpoint
from repro.rdma.rpc import (
    RpcClient,
    RpcFault,
    RpcServer,
    rpc_error_for,
)
from repro.rdma.verbs import Message
from repro.sim.kernel import Environment, Event
from repro.util import sum_counters

__all__ = [
    "StoreConfig",
    "Partition",
    "ClientSession",
    "BaseServer",
    "BaseClient",
    "PUT_REQUEST_OVERHEAD",
    "GET_REQUEST_OVERHEAD",
    "RESPONSE_BYTES",
    "PUT_BATCH_ITEM_OVERHEAD",
    "BATCH_RESPONSE_ITEM_BYTES",
]

#: Wire bytes of a PUT allocation request beyond the key itself
#: (op code, vlen, crc, ids).
PUT_REQUEST_OVERHEAD = 40
#: Wire bytes of a GET-by-RPC request beyond the key.
GET_REQUEST_OVERHEAD = 24
#: Extra wire bytes per additional item in a coalesced ``alloc_batch``
#: request (vlen, crc, alloc_id — the op code and framing are shared).
PUT_BATCH_ITEM_OVERHEAD = 16
#: Extra wire bytes per additional item in an ``alloc_batch`` response.
BATCH_RESPONSE_ITEM_BYTES = 24


@dataclass(frozen=True)
class StoreConfig:
    """Capacity, geometry, partitioning and admission of a store deployment.

    The modelled hardware is not configured here. The server's handler
    CPU costs and its NIC's DDIO setting are :class:`BaseServer` class
    attributes, shared so that differences between stores come from
    *which* costs sit on which path, not from tuning each store
    separately; NVM timing is the server device's
    (:attr:`repro.nvm.device.NVMDevice.timing`) and CRC time is
    :data:`repro.crc.cost.CRC_COST`.
    """

    # capacity / geometry
    pool_size: int = 32 << 20
    table_buckets: int = 8192
    slots_per_bucket: int = 4
    probe_limit: int = 4

    # partitioning (1 = the paper's single-threaded server, bit-for-bit)
    num_partitions: int = 1

    # server resources
    server_cores: int = 4

    # admission control (0 = disabled; see DESIGN.md §15)
    #: Per-partition concurrent-request watermark: a request that begins
    #: an operation, arriving while this many admitted requests are
    #: already in flight on its partition, is shed at the lifecycle's
    #: entry (``Partition.serve``) with retryable ``ERR_BUSY`` instead
    #: of queueing behind the dispatch budget. The
    #: client's retry backoff (PR 2 machinery) is the congestion-control
    #: loop. 0 keeps every request path bit-identical to the seed.
    admission_watermark: int = 0

    #: Each bounded field's least value (a scheme's config extends this).
    _minimums: ClassVar[tuple[tuple[str, int], ...]] = (
        ("server_cores", 1), ("num_partitions", 1), ("admission_watermark", 0),
    )

    def __post_init__(self) -> None:
        if self.pool_size <= 0:
            raise ConfigError("pool_size must be positive")
        for name, least in self._minimums:
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.table_buckets % self.num_partitions != 0:
            raise ConfigError(
                "table_buckets must be divisible by num_partitions "
                f"({self.table_buckets} % {self.num_partitions} != 0)"
            )

    @property
    def geometry(self) -> HashTableGeometry:
        return HashTableGeometry(
            n_buckets=self.table_buckets,
            slots_per_bucket=self.slots_per_bucket,
            probe_limit=self.probe_limit,
        )

    @property
    def partition_geometry(self) -> HashTableGeometry:
        """The geometry of one partition's table segment (== ``geometry``
        when unpartitioned)."""
        return HashTableGeometry(
            n_buckets=self.table_buckets // self.num_partitions,
            slots_per_bucket=self.slots_per_bucket,
            probe_limit=self.probe_limit,
        )


@dataclass
class ClientSession:
    """What a client learns at connection setup (§4.3): region rkeys,
    table geometry, the partition map, and a reply path for
    server-initiated notifications."""

    session_id: int
    table_rkey: int
    geometry: HashTableGeometry  # one partition's table segment
    server_ep: Endpoint  # server-side endpoint toward the client
    num_partitions: int = 1
    #: Table-MR-relative base offset of each partition's segment.
    partition_table_offsets: tuple[int, ...] = (0,)
    #: Per-partition pool rkeys: ``[part][pool]``.
    partition_pool_rkeys: tuple[tuple[int, ...], ...] = ()


class BaseServer:
    """Common server core: memory carve-up, RPC loop, partition router."""

    store_name = "base"
    #: Whether the alloc handler publishes the hash entry immediately
    #: (client-active schemes) or defers to durability (IMM/SAW).
    publish_on_alloc = True
    #: Whether this scheme's index can be sharded (Erda's hopscotch
    #: table displaces entries across the whole array and cannot).
    supports_partitions = True
    #: Whether the alloc handler flushes header and hash entry before it
    #: acks (eFactory, §4.3.1); the other schemes persist nothing there.
    persist_meta = False
    #: Log pools per partition (eFactory's cleaner copies into a second).
    pools_per_partition = 1
    #: Extra handler CPU (ns) per alloc and read lookup for a metadata
    #: layer between index and object (Forca, §6.1).
    meta_indirection_ns = 0.0
    #: The config type this scheme is built from.
    config_cls: type[StoreConfig] = StoreConfig

    #: Intel DDIO on the server NIC (True = inbound DMA is volatile).
    ddio = True

    # handler CPU costs (ns)
    #: Per-message RPC dispatch.
    dispatch_ns = 400.0
    #: Log-head bump of one allocation.
    alloc_ns = 80.0
    #: One index probe or insert.
    index_ns = 60.0
    #: Writing an object's header and key.
    header_write_ns = 60.0
    #: One atomic hash-entry store.
    entry_update_ns = 20.0
    #: Peeking an object's header/flags before deciding (the GET
    #: handler's version walk and the background verifier).
    peek_ns = 80.0

    #: How long (ns) an allocated object may wait for its value WRITE
    #: before the background verifier marks it invalid (§4.3.2); log
    #: cleaning, the replicator and a client cutting ``put_many`` chunks
    #: honour the same window.
    verify_timeout_ns = 50_000.0

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        config: StoreConfig | None = None,
        name: str = "server",
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.config = config or self.config_cls()
        cfg = self.config
        n_parts = cfg.num_partitions
        if n_parts > 1 and not self.supports_partitions:
            raise ConfigError(
                f"store {self.store_name!r} does not support num_partitions > 1"
            )

        table_bytes = self._table_bytes()
        n_pools = self.pools_per_partition
        device_size = _align(table_bytes, 4096) + n_parts * (
            n_pools * _align(cfg.pool_size, 4096) + self._tier_bytes()
        )
        self.device = NVMDevice(env, device_size, name=f"{name}.nvm")
        self.node: Node = fabric.create_node(
            name, device=self.device, cores=cfg.server_cores * n_parts, ddio=self.ddio
        )

        # -- memory carve-up ------------------------------------------------
        # One table MR covering every partition's segment (clients READ
        # any bucket through it); per-partition pools laid out after it.
        self.table_mr: MemoryRegion = self.node.register_memory(
            0, table_bytes, writable=False, name=f"{name}.table"
        )
        self.partitions: list[Partition] = []
        base = _align(table_bytes, 4096)
        budget = cfg.server_cores if n_parts > 1 else None
        for part_id in range(n_parts):
            pools: list[LogPool] = []
            pool_mrs: list[MemoryRegion] = []
            for pid in range(n_pools):
                pool = LogPool(self.device, base, cfg.pool_size, pool_id=pid)
                pools.append(pool)
                mr_name = (
                    f"{name}.pool{pid}"
                    if n_parts == 1
                    else f"{name}.p{part_id}.pool{pid}"
                )
                pool_mrs.append(
                    self.node.register_memory(
                        base, cfg.pool_size, writable=True, name=mr_name
                    )
                )
                base += _align(cfg.pool_size, 4096)
            self.partitions.append(
                Partition(
                    self,
                    part_id,
                    self._make_table(part_id),
                    pools,
                    pool_mrs,
                    cpu_budget=budget,
                )
            )

        if cfg.admission_watermark > 0:
            for part in self.partitions:
                part.admission = Admission(fabric, cfg.admission_watermark)

        self.rpc = RpcServer(
            env,
            self.node,
            dispatch_ns=self.dispatch_ns,
            concurrent_handlers=cfg.server_cores * n_parts,
        )
        self.sessions: list[ClientSession] = []
        self._session_ids = iter(range(1, 1 << 30))
        self._alloc_ids = iter(range(1, 1 << 62))
        #: Outstanding allocations (IMM/SAW persist-on-completion need
        #: them): alloc_id -> (loc, entry_off, klen, partition).
        self.pending_allocs: dict[int, tuple] = {}
        self._register_handlers()

    # -- index construction (Erda overrides with hopscotch) -----------------
    def _table_bytes(self) -> int:
        return self.config.geometry.table_bytes

    def _tier_bytes(self) -> int:
        """Device bytes one partition's integrity tier takes after every
        pool (eFactory carves it; no other scheme has one)."""
        return 0

    def _make_table(self, part: int = 0) -> Any:
        geom = self.config.partition_geometry
        return NvmHashTable(self.device, part * geom.table_bytes, geom)

    # -- the partition router -----------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_for_fp(self, fp: int) -> Partition:
        return self.partitions[partition_of_fp(fp, len(self.partitions))]

    def partition_for_key(self, key: bytes) -> Partition:
        return self.partition_for_fp(key_fingerprint(key))

    def lookup_slot(self, key: bytes) -> Optional[tuple[int, Optional[Slot], Optional[Slot]]]:
        """(entry_off, cur, alt) for ``key`` on its partition (state only)."""
        return self.partition_for_key(key).lookup_slot(key)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        self.rpc.start()

    def stop(self) -> None:
        self.rpc.stop()

    def connect_client(self, client_node: Node) -> tuple[Endpoint, ClientSession]:
        """Connection setup: returns the client-side endpoint and the
        session metadata (rkeys, geometry, partition map) the server
        hands over."""
        ep = self.fabric.connect(client_node, self.node)
        assert ep.peer is not None
        session = ClientSession(
            session_id=next(self._session_ids),
            table_rkey=self.table_mr.rkey,
            geometry=self.config.partition_geometry,
            server_ep=ep.peer,
            num_partitions=len(self.partitions),
            partition_table_offsets=tuple(
                getattr(p.table, "base", 0) for p in self.partitions
            ),
            partition_pool_rkeys=tuple(
                tuple(mr.rkey for mr in p.pool_mrs) for p in self.partitions
            ),
        )
        self.sessions.append(session)
        return ep, session

    # -- handler registry ------------------------------------------------------
    def _register_handlers(self) -> None:
        """Subclasses register their RPC handlers here."""
        self.register_keyed("alloc", self._handle_alloc, write=True)
        self.rpc.register("alloc_batch", self._handle_alloc_batch)

    def register_keyed(
        self,
        op: str,
        handler: Callable[[Partition, Message], Generator[Event, Any, Any]],
        *,
        write: bool = False,
    ) -> None:
        """Register ``handler(part, msg)`` for ``op``: it runs inside the
        request lifecycle (:meth:`Partition.serve`) of the partition that
        owns ``msg.payload["key"]``."""
        route = self.partition_for_key

        def dispatch(msg: Message) -> Generator[Event, Any, Any]:
            part = route(msg.payload["key"])
            return part.serve(handler(part, msg), write=write)

        self.rpc.register(op, dispatch)

    def admission_metrics(self) -> Optional[dict[str, int]]:
        """``metrics()["admission"]``: the partitions' admission counters
        summed (peak: the largest partition's), or None while the
        watermark is off."""
        if self.config.admission_watermark == 0:
            return None
        admissions = [p.admission for p in self.partitions]
        return {
            "watermark": self.config.admission_watermark,
            **sum_counters(a.stats() for a in admissions),
            "peak_inflight": max(a.peak_inflight for a in admissions),
        }

    # -- the shared allocation path (client-active PUT, steps 2-4) -------------
    def _handle_alloc(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        item = yield from self._alloc_item(part, msg.payload)
        return item, RESPONSE_BYTES

    def _alloc_item(
        self, part: Partition, r: dict, *, charge_alloc: bool = True
    ) -> Generator[Event, Any, dict]:
        """One allocation request: its response item, or its error."""
        try:
            loc, entry_off = yield from part.alloc_object(
                r["key"],
                r["vlen"],
                r.get("crc", 0),
                publish=self.publish_on_alloc,
                charge_alloc=charge_alloc,
            )
        except StoreError as exc:
            return rpc_error_for(exc)
        self.pending_allocs[r["alloc_id"]] = (loc, entry_off, len(r["key"]), part)
        return {
            "pool": loc.pool,
            "value_off": loc.offset + HEADER_SIZE + len(r["key"]),
            "obj_off": loc.offset,
            "size": loc.size,
            "part": part.part_id,
        }

    # -- the coalesced allocation path (put_many, one SEND for N allocs) -------
    def _handle_alloc_batch(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Serve N allocation requests from one ``alloc_batch`` SEND.

        Requests are grouped by partition and each group is served as
        one request of the partition's lifecycle, as a slab: the first
        allocation in a group pays the allocator's CPU cost, the rest
        ride the same log-head bump (``charge_alloc=False``). A refused
        group (fenced, or shed as one unit) answers every item in it
        with the refusal; per-item failures come back as per-item error
        payloads so one exhausted partition does not fail the whole
        batch.
        """
        reqs = msg.payload["reqs"]
        results: list[Any] = [None] * len(reqs)
        groups: dict[int, list[int]] = {}
        for idx, r in enumerate(reqs):
            part = self.partition_for_key(r["key"])
            groups.setdefault(part.part_id, []).append(idx)
        for part_id, indexes in groups.items():
            part = self.partitions[part_id]
            refused = yield from part.serve(
                self._alloc_group(part, reqs, indexes, results), write=True
            )
            if refused is not None:
                for idx in indexes:
                    results[idx] = refused[0]
        nbytes = RESPONSE_BYTES + BATCH_RESPONSE_ITEM_BYTES * max(0, len(reqs) - 1)
        return {"results": results}, nbytes

    def _alloc_group(
        self, part: Partition, reqs: list, indexes: list[int], results: list
    ) -> Generator[Event, Any, None]:
        first = True
        for idx in indexes:
            item = yield from self._alloc_item(part, reqs[idx], charge_alloc=first)
            results[idx] = item
            first = first and "error" in item

    def on_allocated(self, part: Partition, loc: Slot, entry_off: int) -> None:
        """Subclass hook (eFactory feeds its background verifier)."""


class BaseClient:
    """Common client core: session setup, client-active PUT, GET helpers."""

    # batched PUT pipeline (put_many)
    #: Alloc requests coalesced into one ``alloc_batch`` SEND and value
    #: WRITEs chained per doorbell batch.
    put_batch = 16
    #: Doorbell batches allowed in flight concurrently: while batch i's
    #: WRITEs are on the wire the client already issues batch i+1's
    #: alloc RPC, so independent PUTs overlap instead of serializing.
    put_window = 2

    def __init__(self, env: Environment, server: BaseServer, name: str) -> None:
        self.env = env
        self.server = server
        self.name = name
        self.node: Node = server.fabric.create_node(name)
        self.ep, self.session = server.connect_client(self.node)
        self.rpc = RpcClient(self.ep)
        self.config = server.config
        self._alloc_counter = 0
        #: Optional :class:`~repro.faults.policy.ClientResilience`
        #: attached via :meth:`enable_resilience`; None keeps every
        #: operation single-attempt, bit-for-bit as before.
        self.resilience = None
        #: Partitions currently running log cleaning (notifications).
        self._cleaning_parts: set[int] = set()
        #: Dedicated notification listener — the client library "thread"
        #: that reacts to log-cleaning notices even while the app is
        #: idle, and acks promptly so the cleaner is never stalled.
        self._listener = self.env.process(
            self._notification_loop(), name=f"{name}-notify"
        )

    def _next_alloc_id(self) -> int:
        """Globally unique allocation id that still fits IMM's 32-bit
        immediate field: session id (8 bits) + per-client counter."""
        self._alloc_counter += 1
        return ((self.session.session_id & 0xFF) << 24) | (
            self._alloc_counter & 0xFFFFFF
        )

    # -- the client half of the partition router --------------------------------
    def partition_of(self, fp: int) -> int:
        """Route a fingerprint locally — no server round trip."""
        return partition_of_fp(fp, self.session.num_partitions)

    def _pool_rkey(self, part: int, pool: int) -> int:
        return self.session.partition_pool_rkeys[part][pool]

    def _note_part(self, part: int) -> None:
        """Tag the next verb with its partition for fault injection
        (one-shot; consumed at the verb's injection point in the same
        kernel step)."""
        inj = self.server.fabric.injector
        if inj is not None:
            inj.set_context_partition(part)

    # -- resilience (opt-in; see repro.faults.policy) ------------------------
    def enable_resilience(self, policy, rng, tracer=None):
        """Attach a :class:`~repro.faults.policy.RetryPolicy`: operations
        issued through :meth:`call_resilient` gain per-attempt timeouts,
        bounded retries with seeded backoff jitter, and QP re-connect."""
        from repro.faults.policy import ClientResilience

        self.resilience = ClientResilience(policy, rng, tracer=tracer, name=self.name)
        return self.resilience

    def call_resilient(
        self, make_op, *, label: str = "op"
    ) -> Generator[Event, Any, Any]:
        """Run ``make_op()`` (a fresh operation generator per attempt)
        under the attached resilience policy.

        Each attempt races the policy timeout; a transport fault
        (:class:`QPError`), a retryable :class:`RpcFault`, or a timeout
        triggers backoff and a retry — re-establishing the QP first when
        it sits in the error state. Non-retryable faults and exhausted
        budgets propagate to the caller. With no policy attached this
        delegates directly, adding no events.
        """
        res = self.resilience
        if res is None:
            return (yield from make_op())
        p = res.policy
        attempt = 0
        while True:
            try:
                if p.timeout_ns > 0:
                    proc = self.env.process(make_op(), name=f"{self.name}:{label}")
                    timer = self.env.timeout(p.timeout_ns)
                    outcome = yield (proc | timer)
                    if proc in outcome:
                        return proc.value
                    # Deadline expired first (e.g. the server's reply was
                    # dropped and nothing will ever wake us): abandon the
                    # attempt and treat it as a transport fault.
                    if proc.is_alive:
                        proc.interrupt("timeout")
                    res.note_timeout()
                    fault = OperationTimeout(
                        f"{self.name} {label} missed its "
                        f"{p.timeout_ns:.0f}ns deadline"
                    )
                else:
                    return (yield from make_op())
            except (QPError, RpcFault) as exc:
                fault = exc
            if isinstance(fault, RpcFault) and not fault.retryable:
                res.note_gave_up(label)
                raise fault
            if attempt >= p.max_retries:
                res.note_gave_up(label)
                raise fault
            attempt += 1
            if self.ep.in_error or isinstance(fault, OperationTimeout):
                yield from self._reconnect(res)
            res.note_retry(label, attempt, type(fault).__name__)
            yield self.env.timeout(res.backoff_ns(attempt))

    def _reconnect(self, res) -> Generator[Event, Any, None]:
        """Re-establish the QP after a fault: wait the policy's
        ``reconnect_ns``, reset the endpoint, count it, run the hook."""
        yield self.env.timeout(res.policy.reconnect_ns)
        self.ep.reset()
        res.note_reconnect()
        self._reconnected()

    def reset_endpoints(self) -> None:
        """Heal the client's QP (the chaos harness's end-of-run heal)."""
        self.ep.reset()

    def _reconnected(self) -> None:
        """Hook: the QP was just re-established after a fault. Subclasses
        drop connection-scoped state here (e.g. the location cache —
        after a failover the cached slots may describe a dead node)."""

    # -- notifications (log cleaning, §4.4) --------------------------------------
    @property
    def cleaning_mode(self) -> bool:
        """True while *any* partition is cleaning (partition-aware code
        should test membership in ``_cleaning_parts`` instead)."""
        return bool(self._cleaning_parts)

    def partition_cleaning(self, part: int) -> bool:
        return part in self._cleaning_parts

    @staticmethod
    def _is_cleaning_notice(msg: Message) -> bool:
        return (
            isinstance(msg.payload, dict)
            and msg.payload.get("op") == "cleaning"
        )

    def _notification_loop(self) -> Generator[Event, Any, None]:
        while True:
            msg = yield self.node.srq.get(self._is_cleaning_notice)
            yield from self._handle_cleaning_notice(msg)

    def _handle_cleaning_notice(self, msg: Message) -> Generator[Event, Any, None]:
        state = msg.payload["state"]
        part = msg.payload.get("part", 0)
        if state == "start":
            self._cleaning_parts.add(part)
            self._cleaning_started(part)
            yield from self.ep.send(
                {"op": "cleaning_ack", "part": part}, 24, in_reply_to=msg.req_id
            )
        elif state == "finish":
            self._cleaning_parts.discard(part)
            self._cleaning_finished(part)

    def _cleaning_started(self, part: int) -> None:
        """Subclass hook: a partition entered log cleaning (eFactory
        flushes its location cache for that partition here)."""

    def _cleaning_finished(self, part: int) -> None:
        """Subclass hook: a partition finished log cleaning."""

    # -- client-active PUT (§4.3.1) ----------------------------------------------
    def put_client_active(
        self, key: bytes, value: bytes, *, with_crc: bool
    ) -> Generator[Event, Any, None]:
        """Steps 1–5 of Figure 5: alloc RPC, then one-sided WRITE of the
        value. Returns when the WRITE acks (durability NOT implied).

        The client overlaps its CRC computation with the allocation
        round trip (the CPU is otherwise idle waiting for the response),
        so only the CRC time exceeding the RTT lands on the critical
        path — without this, large-value PUTs would pay the full CRC
        serially, which no competent implementation does.
        """
        crc = crc32_fast(value) if with_crc else 0
        # Retry at whole-PUT granularity: after a transport fault the
        # first allocation's slot may already have been invalidated by
        # the server's verify timeout (§4.3.2 treats a write that missed
        # its window as never-completed), so re-WRITing it would ack into
        # a dead slot. A fresh alloc gets a fresh slot and a fresh
        # verification window.
        yield from self.call_resilient(
            lambda: self._put_attempt(key, value, crc, with_crc), label="put"
        )

    def _put_attempt(
        self, key: bytes, value: bytes, crc: int, with_crc: bool
    ) -> Generator[Event, Any, None]:
        t0 = self.env.now
        resp = yield from self.alloc_rpc(key, len(value), crc)
        if with_crc:
            crc_ns = CRC_COST.cost_ns(len(value))
            overlap = self.env.now - t0
            if crc_ns > overlap:
                yield self.env.timeout(crc_ns - overlap)
        self._note_alloc(key, resp)
        yield from self.write_value(resp, value)

    def _note_alloc(self, key: bytes, resp: dict) -> None:
        """Subclass hook: the server granted ``key`` a fresh location
        (eFactory refreshes its client-side location cache here)."""

    # -- batched client-active PUT (the doorbell pipeline) -----------------------
    def put_many_client_active(
        self, items: "list[tuple[bytes, bytes]]", *, with_crc: bool
    ) -> Generator[Event, Any, None]:
        """PUT many key/value pairs through the amortized pipeline.

        Per chunk of ``put_batch`` items (fewer for large values,
        :meth:`_put_chunks`): one ``alloc_batch``
        SEND replaces N alloc round trips, then the value WRITEs are
        posted as one doorbell batch with selective signaling
        (:meth:`Endpoint.write_many`). Up to ``put_window``
        doorbell batches stay in flight while the client issues the next
        chunk's alloc RPC, so independent PUTs overlap instead of
        serializing. Durability semantics per item are identical to
        :meth:`put_client_active` (ack ≠ durable; the server's
        background verifier persists each object).

        With resilience attached, each chunk runs serially under the
        whole-chunk retry policy (fresh allocations per attempt, same
        rationale as the whole-PUT retry).
        """
        if not items:
            return
        chunks = self._put_chunks(items, with_crc)
        if self.resilience is not None:
            for chunk in chunks:
                yield from self.call_resilient(
                    lambda c=chunk: self._put_chunk(c, with_crc),
                    label="put_many",
                )
            return
        outstanding: list = []
        failures: list[BaseException] = []
        for chunk in chunks:
            resps = yield from self._alloc_chunk(chunk, with_crc)
            proc = self.env.process(
                self._write_batch_guarded(resps, [v for _, v in chunk], failures),
                name=f"{self.name}-doorbell",
            )
            outstanding.append(proc)
            # Completion window: block only when put_window batches are
            # already on the wire.
            live = [p for p in outstanding if p.is_alive]
            while len(live) >= self.put_window:
                yield self.env.any_of(live)
                live = [p for p in outstanding if p.is_alive]
            outstanding = live
        for proc in outstanding:
            if proc.is_alive:
                yield proc
        if failures:
            raise failures[0]

    def _put_chunks(
        self, items: "list[tuple[bytes, bytes]]", with_crc: bool
    ) -> "list[list[tuple[bytes, bytes]]]":
        """Cut ``items`` into ``alloc_batch`` chunks of ``put_batch``
        items — fewer (never none) when the chunk's client CRCs, which run
        between the grant and the WRITEs, would pass half of
        the server's ``verify_timeout_ns``: a grant the verifier times out
        first is an acked PUT lost."""
        budget = self.server.verify_timeout_ns / 2 if with_crc else float("inf")
        chunks: "list[list[tuple[bytes, bytes]]]" = [[]]
        cost = 0.0
        for item in items:
            item_cost = CRC_COST.cost_ns(len(item[1]))
            full = len(chunks[-1]) >= self.put_batch or cost + item_cost > budget
            if chunks[-1] and full:
                chunks.append([])
                cost = 0.0
            chunks[-1].append(item)
            cost += item_cost
        return chunks

    def _put_chunk(
        self, chunk: "list[tuple[bytes, bytes]]", with_crc: bool
    ) -> Generator[Event, Any, None]:
        """One chunk, serially: alloc_batch then the doorbell WRITEs
        (the resilient path retries this whole generator)."""
        resps = yield from self._alloc_chunk(chunk, with_crc)
        yield from self._write_batch(resps, [v for _, v in chunk])

    def _alloc_chunk(
        self, chunk: "list[tuple[bytes, bytes]]", with_crc: bool
    ) -> Generator[Event, Any, list]:
        """One ``alloc_batch`` round trip with the chunk's CRCs computed
        under it: only the CRC time exceeding the RTT is waited out
        (the overlap of :meth:`put_client_active`, per chunk)."""
        crcs = [crc32_fast(v) if with_crc else 0 for _, v in chunk]
        t0 = self.env.now
        resps = yield from self.alloc_batch_rpc(chunk, crcs)
        if with_crc:
            crc_ns = sum(CRC_COST.cost_ns(len(v)) for _, v in chunk)
            overlap = self.env.now - t0
            if crc_ns > overlap:
                yield self.env.timeout(crc_ns - overlap)
        return resps

    def alloc_batch_rpc(
        self, chunk: "list[tuple[bytes, bytes]]", crcs: "list[int]"
    ) -> Generator[Event, Any, list]:
        """One SEND carrying N allocation requests; returns N grants.

        Raises :class:`RpcFault` on the first per-item error (same
        surface as N individual :meth:`alloc_rpc` calls).
        """
        reqs = []
        for (key, value), crc in zip(chunk, crcs):
            reqs.append(
                {
                    "key": key,
                    "vlen": len(value),
                    "crc": crc,
                    "alloc_id": self._next_alloc_id(),
                }
            )
        nbytes = (
            PUT_REQUEST_OVERHEAD
            + sum(len(k) for k, _ in chunk)
            + PUT_BATCH_ITEM_OVERHEAD * max(0, len(chunk) - 1)
        )
        resp = yield from self.rpc.call(
            {"op": "alloc_batch", "reqs": reqs}, nbytes
        )
        results = resp["results"]
        for r, req, (key, _v) in zip(results, reqs, chunk):
            if isinstance(r, dict) and "error" in r:
                raise RpcFault(
                    r["error"], code=r.get("code", "unknown"), op="alloc_batch"
                )
            r["alloc_id"] = req["alloc_id"]
            self._note_alloc(key, r)
        return results

    def _write_batch(
        self, resps: list, values: "list[bytes]"
    ) -> Generator[Event, Any, None]:
        """Post one chunk's value WRITEs as a doorbell batch."""
        writes = []
        for resp, value in zip(resps, values):
            part = resp.get("part", 0)
            writes.append(
                (self._pool_rkey(part, resp["pool"]), resp["value_off"], value)
            )
        if writes:
            self._note_part(resps[0].get("part", 0))
            yield from self.ep.write_many(writes)

    def _write_batch_guarded(
        self, resps: list, values: "list[bytes]", failures: "list[BaseException]"
    ) -> Generator[Event, Any, None]:
        """Window wrapper: capture faults instead of letting an
        unwaited process escalate them through the kernel."""
        try:
            yield from self._write_batch(resps, values)
        except (QPError, RpcFault, StoreError) as exc:
            failures.append(exc)

    def alloc_rpc(
        self, key: bytes, vlen: int, crc: int
    ) -> Generator[Event, Any, dict]:
        alloc_id = self._next_alloc_id()
        resp = yield from self.rpc.call(
            {"op": "alloc", "key": key, "vlen": vlen, "crc": crc, "alloc_id": alloc_id},
            PUT_REQUEST_OVERHEAD + len(key),
        )
        resp["alloc_id"] = alloc_id
        return resp

    def write_value(self, alloc_resp: dict, value: bytes) -> Generator[Event, Any, None]:
        part = alloc_resp.get("part", 0)
        rkey = self._pool_rkey(part, alloc_resp["pool"])
        self._note_part(part)
        yield from self.ep.write(rkey, alloc_resp["value_off"], value)

    # -- pure-RDMA GET helpers (steps 1-4 of Figure 6) ---------------------------
    def read_bucket(self, key: bytes) -> Generator[Event, Any, tuple[int, Optional[tuple]]]:
        """READ the home bucket (on the key's partition segment);
        returns (fp, (cur, alt) or None)."""
        fp = key_fingerprint(key)
        part = self.partition_of(fp)
        geom = self.session.geometry
        self._note_part(part)
        raw = yield from self.ep.read(
            self.session.table_rkey,
            self.session.partition_table_offsets[part]
            + geom.bucket_offset(geom.bucket_of(fp)),
            geom.bucket_bytes,
        )
        return fp, client_lookup_bucket(raw, fp, geom)

    def read_object_at(
        self, slot: Slot, part: int = 0
    ) -> Generator[Event, Any, ObjectImage]:
        self._note_part(part)
        raw = yield from self.ep.read(
            self._pool_rkey(part, slot.pool), slot.offset, slot.size
        )
        return parse_object(raw)

    def _rpc_read(self, key: bytes) -> Generator[Event, Any, bytes]:
        """A server-resolved GET (eFactory's steps 5-9, Forca's every
        read), retried under the resilience policy when attached."""
        return (
            yield from self.call_resilient(
                lambda: self._rpc_read_once(key), label="get.rpc"
            )
        )

    def _rpc_read_once(self, key: bytes) -> Generator[Event, Any, bytes]:
        """A ``get_loc`` RPC answers with a verified location, then one
        READ fetches the object."""
        resp = yield from self.rpc.call(
            {"op": "get_loc", "key": key}, GET_REQUEST_OVERHEAD + len(key)
        )
        img = yield from self.read_object_at(
            Slot(pool=resp["pool"], offset=resp["offset"], size=resp["size"]),
            resp.get("part", 0),
        )
        self._check_found(img, key)
        return img.value

    # -- interface -------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def put_many(
        self, items: "list[tuple[bytes, bytes]]"
    ) -> Generator[Event, Any, None]:
        """PUT many pairs.  Default: sequential :meth:`put` calls — the
        client-active stores override this with the doorbell-batched
        pipeline (:meth:`put_many_client_active`)."""
        for key, value in items:
            yield from self.put(key, value)

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        raise NotImplementedError

    @staticmethod
    def _check_found(img: ObjectImage, key: bytes) -> None:
        if not img.well_formed or img.key != key:
            raise KeyNotFoundError(f"key {key!r} not found at indexed location")


def _align(n: int, a: int) -> int:
    return (n + a - 1) & ~(a - 1)
