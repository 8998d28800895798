"""Cluster membership: N eFactory servers on one fabric.

Every node runs a *full* :class:`~repro.core.server.EFactoryServer` with
identical geometry — same partition count, same pool layout, same table
segments. The cluster layer assigns each partition a primary (which
serves client ops exactly as a standalone server would) and
``replication_factor - 1`` backups (whose copy of the partition is fed
purely by shipped log records — their table segments stay empty until a
promotion rebuilds them from the log, see
:func:`repro.core.recovery.seed_index_from_pools`).

:class:`ClusterNode` wraps one server with the cluster-internal RPC
handlers (ping / repl_commit / repl_reset / repl_wait / mig_alloc /
mig_commit / mig_drop) and the per-partition
:class:`~repro.cluster.replicator.LogShipper` instances;
:class:`Cluster` owns the router, the failure detector, and the
whole-node-kill fault hook; :class:`ClusterSetup` mirrors
:class:`repro.stores.StoreSetup` so the chaos harness drives a cluster
through the same surface as a standalone store.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import RESPONSE_BYTES
from repro.cluster.config import ClusterConfig
from repro.cluster.replicator import PING_BYTES, LogShipper, repl_wait_loop
from repro.cluster.router import ClusterRouter
from repro.core import EFactoryConfig, EFactoryServer
from repro.errors import ConfigError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import parse_object
from repro.rdma.fabric import Fabric
from repro.rdma.qp import Endpoint
from repro.rdma.rpc import (
    ERR_NOT_FOUND,
    ERR_POOL_EXHAUSTED,
    ERR_REPL_LAG,
    RpcClient,
    rpc_error,
)
from repro.rdma.verbs import Message
from repro.sim.kernel import Environment, Event, Interrupt
from repro.util import sum_counters

__all__ = ["Cluster", "ClusterNode", "ClusterSetup", "build_cluster"]


class ClusterNode:
    """One server plus its cluster-facing plumbing."""

    def __init__(self, cluster: "Cluster", node_id: int, server: EFactoryServer) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.server = server
        self.env: Environment = server.env
        self.name = f"node{node_id}"
        self.alive = True
        server.cluster_node = self
        #: Cached fabric links / RPC clients to the other nodes.
        self._links: dict[int, Endpoint] = {}
        self._rpcs: dict[int, RpcClient] = {}
        #: Shippers for partitions this node is primary of.
        self.shippers: dict[int, LogShipper] = {}
        #: Backup-side watermark per partition: (pool, gen, end).
        self.replica_state: dict[int, tuple[int, int, int]] = {}
        #: Dirty-byte extent per (partition, pool) — how far shipped or
        #: migrated records reach, so repl_reset knows what to zero.
        self.replica_extent: dict[tuple[int, int], int] = {}
        rpc = server.rpc
        rpc.register("ping", self._handle_ping)
        rpc.register("repl_commit", self._handle_repl_commit)
        rpc.register("repl_reset", self._handle_repl_reset)
        rpc.register("repl_wait", self._handle_repl_wait)
        rpc.register("mig_alloc", self._handle_mig_alloc)
        rpc.register("mig_commit", self._handle_mig_commit)
        rpc.register("mig_drop", self._handle_mig_drop)
        rpc.register("repair_fetch", self._handle_repair_fetch)

    # -- inter-node transport ----------------------------------------------
    def link(self, other_id: int) -> Endpoint:
        ep = self._links.get(other_id)
        if ep is None:
            ep = self.cluster.fabric.connect(
                self.server.node, self.cluster.nodes[other_id].server.node
            )
            self._links[other_id] = ep
        return ep

    def call(
        self, other_id: int, payload: dict, nbytes: int
    ) -> Generator[Event, Any, Any]:
        rpc = self._rpcs.get(other_id)
        if rpc is None:
            rpc = self._rpcs[other_id] = RpcClient(self.link(other_id))
        return (yield from rpc.call(payload, nbytes))

    # -- lifecycle ----------------------------------------------------------
    def start_shipper(self, part_id: int) -> None:
        if self.cluster.cfg.replication_factor < 2:
            return
        if part_id not in self.shippers:
            shipper = LogShipper(self, part_id)
            self.shippers[part_id] = shipper
            shipper.start()

    def stop_shippers(self) -> None:
        for shipper in self.shippers.values():
            shipper.stop()
        self.shippers.clear()

    def kill(self) -> None:
        """Whole-node failure: the NIC goes dark (in-flight RDMA to this
        node is dropped, new verbs fail with ``target_down``) and every
        server process stops. NVM contents survive — a promoted backup
        does not read them; they model the dead machine's disk."""
        if not self.alive:
            return
        self.alive = False
        self.server.node.alive = False
        self.stop_shippers()
        self.server.stop()

    # -- cluster-internal RPC handlers --------------------------------------
    def _handle_ping(self, msg: Message) -> Generator[Event, Any, tuple[Any, int]]:
        return {"ok": 1}, PING_BYTES
        yield  # pragma: no cover - generator form required by RpcServer

    def _handle_repl_commit(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Backup side of a ship round: persist the written ranges and
        advance the watermark the primary will report to repl_wait."""
        p = msg.payload
        part = self.server.partitions[p["part"]]
        pool = part.pools[p["pool"]]
        total = 0
        for off, size in p["ranges"]:
            yield from self.server.device.persist(pool.abs_addr(off), size)
            total += size
        # Validate-then-cover: a record the shipping persist itself
        # corrupted stays uncovered here; this backup's scrubber
        # re-fetches it from the primary on its next lap.
        for off, size in p["ranges"]:
            part.integrity.cover_from_media(
                Slot(pool=p["pool"], offset=off, size=size)
            )
        yield from part.integrity.flush()
        self.replica_state[p["part"]] = (p["pool"], p["gen"], p["end"])
        key = (p["part"], p["pool"])
        self.replica_extent[key] = max(self.replica_extent.get(key, 0), p["end"])
        return {"ok": total}, RESPONSE_BYTES

    def _handle_repl_reset(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Zero this partition's shipped/migrated extents.

        Ran before a new shipping generation (pool switch) and before a
        migration starts filling this node. Plain ``LogPool.reset()`` is
        not enough: it rewinds the head but leaves old record *bytes*,
        and the promotion scan trusts any parseable header — stale
        records from a dead generation would be resurrected.
        """
        p = msg.payload
        part = self.server.partitions[p["part"]]
        t = self.server.device.timing
        dev = self.server.device
        total = 0
        for pid, pool in enumerate(part.pools):
            extent = max(
                self.replica_extent.pop((p["part"], pid), 0), pool.head
            )
            if extent <= 0:
                continue
            extent = min(pool.size, extent + pool.align)
            pool.write(0, bytes(extent))
            dev.flush(pool.abs_addr(0), extent)
            pool.reset()
            part.integrity.reset_pool(pid)
            total += extent
        self.replica_state.pop(p["part"], None)
        if total:
            yield self.env.timeout(t.copy_cost(total) + t.flush_cost(total))
        return {"ok": total}, RESPONSE_BYTES

    def _handle_repl_wait(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Primary side of the ack gate: block until the record's pool
        prefix is durable on every live backup (see replicator docs)."""
        p = msg.payload
        covered = yield from repl_wait_loop(self, p["part"], p["pool"], p["end"])
        if not covered:
            return (
                rpc_error(
                    f"partition {p['part']} replication watermark behind "
                    f"{p['end']} (pool {p['pool']})",
                    code=ERR_REPL_LAG,
                ),
                RESPONSE_BYTES,
            )
        return {"ok": 1}, RESPONSE_BYTES

    def _handle_mig_alloc(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Migration destination: reserve compacted log space for a
        batch of incoming records (offsets are *not* preserved across a
        migration — unlike shipping, the destination's pool may hold
        other partitions' history, so records are re-packed from 0)."""
        p = msg.payload
        part = self.server.partitions[p["part"]]
        pool_id = part.write_pool_id
        pool = part.pools[pool_id]
        yield self.env.timeout(self.server.alloc_ns)
        offs: list[int] = []
        for size in p["sizes"]:
            if not pool.can_fit(size):
                return (
                    rpc_error(
                        f"migration target pool full on {self.name}",
                        code=ERR_POOL_EXHAUSTED,
                    ),
                    RESPONSE_BYTES,
                )
            offs.append(pool.allocate(size))
        if offs:
            key = (p["part"], pool_id)
            self.replica_extent[key] = max(
                self.replica_extent.get(key, 0), pool.head
            )
        return {"pool": pool_id, "offs": offs}, RESPONSE_BYTES + 8 * len(offs)

    def _handle_mig_commit(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Migration destination: persist landed records, mark them
        durable, and index them. A record copied twice (copy pass then
        delta pass) simply re-points the entry — last write wins."""
        p = msg.payload
        part = self.server.partitions[p["part"]]
        pool = part.pools[p["pool"]]
        done = 0
        for off, size in p["items"]:
            yield from self.server.device.persist(pool.abs_addr(off), size)
            img = parse_object(pool.read(off, size))
            if not img.well_formed:
                continue  # torn in flight; source will see no ack for it
            loc = Slot(pool=p["pool"], offset=off, size=size)
            part.mark_durable(loc, img)
            yield self.env.timeout(self.server.index_ns)
            entry_off = part.table.find_or_create(key_fingerprint(img.key))
            part.table.set_cur(entry_off, loc)
            yield from part.persist_entry_timed(entry_off)
            done += 1
            part.integrity.cover_from_media(loc)
        if done:
            yield from part.integrity.flush()
        return {"ok": done}, RESPONSE_BYTES

    def _handle_mig_drop(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Migration destination: delete keys the source deleted after
        the copy pass shipped them."""
        p = msg.payload
        part = self.server.partitions[p["part"]]
        done = 0
        for key in p["keys"]:
            done += yield from part.delete(key)
        return {"ok": done}, RESPONSE_BYTES

    def _handle_repair_fetch(
        self, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        """Serve raw pool bytes to a peer's scrubber (replica-assisted
        repair). Shipping keeps replicas at identical pool offsets, so
        the requested (pool, offset, size) names the same record here;
        the *requester* validates the bytes (parse, fingerprint, value
        CRC) before installing them — this side just reads the media."""
        p = msg.payload
        part = self.server.partitions[p["part"]]
        pool_id, off, size = p["pool"], p["off"], p["size"]
        if pool_id >= len(part.pools):
            return rpc_error("repair_fetch: no such pool", ERR_NOT_FOUND), RESPONSE_BYTES
        pool = part.pools[pool_id]
        if off < 0 or size <= 0 or off + size > pool.size:
            return (
                rpc_error("repair_fetch: range outside pool", ERR_NOT_FOUND),
                RESPONSE_BYTES,
            )
        yield self.env.timeout(self.server.device.timing.read_cost(size))
        return {"data": bytes(pool.read(off, size))}, RESPONSE_BYTES + size

    # -- metrics -------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        c = self.cluster
        return {
            "node": self.node_id,
            "alive": self.alive,
            "primary_of": [
                r.part_id
                for r in c.router.routes
                if r.replicas and r.replicas[0] == self.node_id
            ],
            "shipped_records": sum(
                s.shipped_records for s in self.shippers.values()
            ),
            "shipped_bytes": sum(s.shipped_bytes for s in self.shippers.values()),
            "repl_lag_bytes": sum(s.lag_bytes for s in self.shippers.values()),
            "scrub": sum_counters(p.scrubber.stats() for p in self.server.partitions),
            "failovers": c.failovers,
            "promotions": c.promotions,
            "migrations": c.migrations,
            "migrations_aborted": c.migrations_aborted,
        }


class Cluster:
    """The whole deployment: nodes + router + detector + fault hook."""

    #: Poll period of the node-kill injection tick (armed chaos only).
    kill_poll_ns = 10_000.0

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        cfg: ClusterConfig,
        store_config,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.cfg = cfg
        self.store_config = store_config
        self.nodes = [
            ClusterNode(
                self, i, EFactoryServer(env, fabric, store_config, name=f"node{i}")
            )
            for i in range(cfg.n_nodes)
        ]
        self.router = ClusterRouter(
            cfg.n_nodes, store_config.num_partitions, cfg.replication_factor
        )
        from repro.cluster.failover import FailureDetector  # import cycle

        self.detector: Optional[FailureDetector] = (
            FailureDetector(self) if cfg.n_nodes > 1 else None
        )
        self.failovers = 0
        self.promotions = 0
        self.migrations = 0
        self.migrations_aborted = 0
        #: Result of each promotion's byte-identical idempotence check
        #: (only populated with ``cfg.verify_promotion``).
        self.promotion_idempotent: list[bool] = []
        self._dead_handled: set[int] = set()
        self._promotions_active = 0
        self._injector = None
        self._kill_proc = None

    # -- queries -------------------------------------------------------------
    def alive(self, node_id: int) -> bool:
        return self.nodes[node_id].alive

    def pool_rkey(self, node_id: int, part: int, pool: int) -> int:
        return self.nodes[node_id].server.partitions[part].pool_mrs[pool].rkey

    @property
    def servers(self) -> list[EFactoryServer]:
        return [n.server for n in self.nodes]

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Cluster":
        for node in self.nodes:
            node.server.start()
        if self.cfg.replication_factor > 1:
            for route in self.router.routes:
                self.nodes[route.replicas[0]].start_shipper(route.part_id)
        if self.detector is not None:
            self.detector.start()
        return self

    def stop(self) -> None:
        if self.detector is not None:
            self.detector.stop()
        self.disarm()
        for node in self.nodes:
            if node.alive:
                node.stop_shippers()
                node.server.stop()

    # -- failure handling ------------------------------------------------------
    def kill_node(self, node_id: int) -> None:
        """The fault: power off a node. Detection and failover follow
        through the seeded failure detector, like production would."""
        self.nodes[node_id].kill()

    def on_node_dead(self, node_id: int) -> None:
        """Detector verdict: reroute and promote. Idempotent."""
        if node_id in self._dead_handled:
            return
        self._dead_handled.add(node_id)
        self.nodes[node_id].kill()
        orphans = self.router.mark_failed(node_id)
        self.failovers += 1
        from repro.cluster.failover import promote_partition  # import cycle

        for part_id in orphans:
            self._promotions_active += 1
            self.env.process(
                self._promote_tracked(promote_partition(self, part_id)),
                name=f"promote:p{part_id}",
            )

    def _promote_tracked(self, gen) -> Generator[Event, Any, None]:
        try:
            yield from gen
        finally:
            self._promotions_active -= 1

    # -- migration -------------------------------------------------------------
    def migrate(self, part_id: int, dst_id: int) -> Generator[Event, Any, dict]:
        from repro.cluster.migration import migrate_partition  # import cycle

        return (yield from migrate_partition(self, part_id, dst_id))

    # -- settling (used by harnesses) ------------------------------------------
    def stable(self) -> bool:
        if self._promotions_active:
            return False
        for route in self.router.routes:
            if route.state in ("promoting", "draining", "migrating"):
                return False
        return True

    def await_stable(
        self, timeout_ns: float = 5_000_000.0
    ) -> Generator[Event, Any, bool]:
        """Wait until no promotion/migration is in flight (or timeout)."""
        deadline = self.env.now + timeout_ns
        while not self.stable():
            if self.env.now >= deadline:
                return False
            yield self.env.timeout(10_000.0)
        return True

    # -- fault-injection hook ---------------------------------------------------
    def arm(self, injector) -> None:
        """Attach an armed injector and start the node-kill tick: every
        ``kill_poll_ns`` each live node's ``cluster.node{id}`` site gets
        one ``fire`` poll, so plans schedule whole-node kills with the
        same after_op/max_fires machinery as every other fault kind."""
        self._injector = injector
        if self._kill_proc is None or not self._kill_proc.is_alive:
            self._kill_proc = self.env.process(
                self._kill_tick(), name="cluster-kill-tick"
            )

    def disarm(self) -> None:
        self._injector = None
        if self._kill_proc is not None and self._kill_proc.is_alive:
            if self._kill_proc is not self.env.active_process:
                self._kill_proc.interrupt("disarm")
        self._kill_proc = None

    def _kill_tick(self) -> Generator[Event, Any, None]:
        try:
            while True:
                inj = self._injector
                if inj is None:
                    return
                for node in self.nodes:
                    if not node.alive:
                        continue
                    act = inj.fire(
                        f"cluster.{node.name}", partition=node.node_id
                    )
                    if act is not None and act.kind == "node_kill":
                        self.kill_node(node.node_id)
                yield self.env.timeout(self.kill_poll_ns)
        except Interrupt:
            return

    # -- metrics -----------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        return {
            "nodes": [n.metrics() for n in self.nodes],
            "router": self.router.as_dict(),
            "failovers": self.failovers,
            "promotions": self.promotions,
            "migrations": self.migrations,
            "migrations_aborted": self.migrations_aborted,
            "promotion_idempotent": list(self.promotion_idempotent),
            "shipped_records": sum(
                s.shipped_records for n in self.nodes for s in n.shippers.values()
            ),
            "repl_lag_bytes": sum(
                s.lag_bytes
                for n in self.nodes
                if n.alive
                for s in n.shippers.values()
            ),
        }


class ClusterSetup:
    """StoreSetup-shaped wrapper so harnesses drive a cluster through
    the same attributes they use for a standalone store."""

    def __init__(self, env, fabric, cluster: Cluster, clients) -> None:
        self.env = env
        self.fabric = fabric
        self.cluster = cluster
        self.clients = clients
        from repro.stores import STORES

        self.spec = STORES["efactory"]

    @property
    def server(self) -> EFactoryServer:
        """Node 0's server (compatibility view for single-server code)."""
        return self.cluster.nodes[0].server

    @property
    def servers(self) -> list[EFactoryServer]:
        return self.cluster.servers

    def client(self, i: int = 0):
        return self.clients[i]

    def start(self) -> "ClusterSetup":
        self.cluster.start()
        return self

    def stop(self) -> None:
        self.cluster.stop()


def build_cluster(
    env: Environment,
    *,
    nodes: int = 3,
    replication: int = 2,
    config_overrides: Optional[dict[str, Any]] = None,
    cluster_overrides: Optional[dict[str, Any]] = None,
    n_clients: int = 1,
) -> ClusterSetup:
    """Deploy an N-node replicated eFactory cluster.

    ``nodes=1, replication=1`` degenerates to a standalone server plus
    plain clients — no shippers, no detector, no extra events.
    """
    if n_clients < 0:
        raise ConfigError("n_clients must be >= 0")
    overrides = dict(config_overrides or {})
    if "num_partitions" not in overrides:
        # Enough shards that every node owns some, and a power of two so
        # the default table geometry still divides evenly.
        n_parts = 4
        while n_parts < nodes:
            n_parts *= 2
        overrides["num_partitions"] = n_parts
    # Event-driven verifier wakeups: N nodes of idle 2µs polling would
    # dominate the event count. Cluster runs are new — no bit-compat
    # constraint — so default to the batched mode.
    overrides.setdefault("bg_batch", 8)
    cluster_cfg = ClusterConfig(
        n_nodes=nodes,
        replication_factor=replication,
        **(cluster_overrides or {}),
    )
    store_config = EFactoryConfig(**overrides)
    fabric = Fabric(env)
    cluster = Cluster(env, fabric, cluster_cfg, store_config)
    from repro.cluster.client import ClusterClient  # import cycle

    clients = [
        ClusterClient(env, cluster, name=f"cluster-client{i}")
        for i in range(n_clients)
    ]
    return ClusterSetup(env, fabric, cluster, clients)
