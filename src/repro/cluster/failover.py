"""Failure detection and backup promotion.

The :class:`FailureDetector` is a tiny monitor host on the same fabric:
it pings every live node each ``heartbeat_interval_ns`` and counts
consecutive misses (a miss is a ping that faults — dead NIC — or blows
its ``heartbeat_timeout_ns`` deadline, the same proc-vs-timer race the
client resilience layer uses). ``miss_threshold`` misses declare the
node dead, which fences it, repoints the routing map, and starts one
promotion process per orphaned partition.

Promotion is deliberately *not* new machinery: the backup's partition
holds a byte-identical prefix of the dead primary's log (shipped at
identical offsets), so promoting is exactly crash recovery —

1. :func:`~repro.core.recovery.seed_index_from_pools` rebuilds the
   backup's empty table segment from the shipped log (scan, newest
   version per fingerprint), because unlike a crashed *primary* the
   backup never had index entries to repair;
2. :func:`~repro.core.recovery.recover_partition` then runs the
   standard pass — durability-flag / CRC verification with pre_ptr
   rollback — so exactly the versions a local restart would trust
   survive the promotion.

With ``verify_promotion`` the pass is run a second time and the
partition's image (pools + table segment, durable and visible) is
snapshotted before and byte-compared after — the crash matrix's idiom
(:meth:`repro.mem.buffer.PersistentBuffer.snapshot` / ``same_image``),
over this partition's ranges: recovery must be byte-identical-idempotent
on a promoted replica, the same property the matrix pins for
single-node recovery.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.replicator import PING_BYTES
from repro.core.recovery import recover_partition, seed_index_from_pools
from repro.errors import RDMAError, StoreError
from repro.rdma.rpc import RpcClient
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Cluster

__all__ = [
    "FailureDetector", "partition_digest", "partition_ranges", "promote_partition",
]


#: Settling delay between declaring a node dead and starting the
#: promotions (lets in-flight writes to the dead node resolve).
_FAILOVER_GRACE_NS = 10_000.0


class FailureDetector:
    """Seeded, deterministic heartbeat monitor."""

    #: Period between ping sweeps.
    heartbeat_interval_ns = 100_000.0
    #: Per-ping deadline before it counts as a miss.
    heartbeat_timeout_ns = 40_000.0
    #: Consecutive misses before a node is declared dead.
    miss_threshold = 3

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.node = cluster.fabric.create_node("cluster-monitor")
        self._rpcs: dict[int, RpcClient] = {}
        self.misses: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
        self.probes = 0
        self.deaths_declared = 0
        self._proc: Optional[Process] = None

    def _rpc(self, node_id: int) -> RpcClient:
        rpc = self._rpcs.get(node_id)
        if rpc is None:
            ep = self.cluster.fabric.connect(
                self.node, self.cluster.nodes[node_id].server.node
            )
            rpc = self._rpcs[node_id] = RpcClient(ep)
        return rpc

    def start(self) -> None:
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="failure-detector")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            if self._proc is not self.env.active_process:
                self._proc.interrupt("stop")
        self._proc = None

    def _ping(self, node_id: int) -> Generator[Event, Any, bool]:
        try:
            yield from self._rpc(node_id).call({"op": "ping"}, PING_BYTES)
        except (RDMAError, StoreError):
            return False
        return True

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        try:
            while True:
                yield env.timeout(self.heartbeat_interval_ns)
                # Probe sequentially in node order: deterministic event
                # sequence for a given seed/topology.
                for node in self.cluster.nodes:
                    nid = node.node_id
                    if nid in self.cluster._dead_handled:
                        continue
                    self.probes += 1
                    proc = env.process(
                        self._ping(nid), name=f"ping:node{nid}"
                    )
                    timer = env.timeout(self.heartbeat_timeout_ns)
                    outcome = yield (proc | timer)
                    ok = bool(proc in outcome and proc.value)
                    if proc.is_alive:
                        proc.interrupt("deadline")
                    if ok:
                        self.misses[nid] = 0
                        continue
                    self.misses[nid] += 1
                    if self.misses[nid] >= self.miss_threshold:
                        self.deaths_declared += 1
                        self.cluster.on_node_dead(nid)
        except Interrupt:
            return


def partition_ranges(server, part) -> tuple[tuple[int, int], ...]:
    """Where one partition lives on its node's device: both pools plus
    its table segment."""
    geom = server.config.partition_geometry
    table = (getattr(part.table, "base", 0), geom.table_bytes)
    return (*((pool.base, pool.size) for pool in part.pools), table)


def partition_digest(server, part) -> str:
    """Printable fingerprint of one partition's image (pools + table
    segment, durable and visible). For a report or a log line; to
    *compare* two instants use ``device.snapshot(...)`` / ``same_image``
    as :func:`promote_partition` does — no hash needed."""
    return server.device.fingerprint(*partition_ranges(server, part))


def promote_partition(
    cluster: "Cluster", part_id: int
) -> Generator[Event, Any, None]:
    """Promote the first surviving backup of an orphaned partition."""
    env = cluster.env
    cfg = cluster.cfg
    route = cluster.router.routes[part_id]
    if not route.replicas:
        return
    node = cluster.nodes[route.replicas[0]]
    if not node.alive:
        return
    # Let straggler in-flight WRITEs aimed at the dead primary resolve
    # (they tear against the dead node, never against us).
    yield env.timeout(_FAILOVER_GRACE_NS)
    server = node.server
    part = server.partitions[part_id]
    yield from seed_index_from_pools(server, part)
    yield from recover_partition(server, part)
    if cfg.verify_promotion:
        # Other partitions on this node keep serving while the second
        # pass runs, so the judgement covers this partition's bytes only.
        before = server.device.snapshot(*partition_ranges(server, part))
        yield from recover_partition(server, part)
        cluster.promotion_idempotent.append(server.device.same_image(before))
    cluster.router.mark_ready(part_id)
    # Resume shipping to whatever backups the route still lists.
    node.start_shipper(part_id)
    cluster.promotions += 1
