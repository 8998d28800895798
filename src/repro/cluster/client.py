"""The cluster-aware client: route, retry, re-route.

A :class:`ClusterClient` holds one ordinary
:class:`~repro.core.client.EFactoryClient` per node (each with its own
QP, session, and notification listener — exactly what a real client
library keeps per server connection) and routes every op by the cluster
routing map:

* **Epoch sync** — before each op the client compares the router epoch
  with the last one it saw; on a bump (failover, migration flip) every
  sub-client's location cache is dropped: cached (partition, slot)
  pairs may describe a node that no longer owns the data. This is the
  cluster-wide companion of the per-reconnect flush in
  ``EFactoryClient._reconnected``.
* **Ack gating** — with ``replication_factor > 1`` a put only returns
  after a ``repl_wait`` RPC confirms the record's log prefix is durable
  on every live backup (see :mod:`repro.cluster.replicator`). A put
  that fails *after* its WRITE landed retries with identical version
  bytes — at-least-once, never lost-ack.
* **Re-routing** — transport faults (dead primary), write fences
  (draining migration), and retryable server conditions send the op
  back through the routing map after :attr:`ClusterClient.route_retry_ns`,
  up to a :attr:`ClusterClient.route_timeout_ns` deadline that
  comfortably covers a detection + promotion cycle. Non-retryable
  faults (not_found, protocol errors) propagate immediately.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.replicator import REPL_WAIT_BYTES
from repro.core.client import EFactoryClient
from repro.errors import OperationTimeout, QPError
from repro.kv.hashtable import key_fingerprint, partition_of_fp
from repro.rdma.rpc import ERR_FENCED, RpcFault
from repro.sim.kernel import Environment, Event
from repro.util import sum_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Cluster

__all__ = ["ClusterClient"]


class _SubClient(EFactoryClient):
    """Per-node connection; remembers its last alloc for the ack gate."""

    def __init__(self, env, server, name: str) -> None:
        super().__init__(env, server, name)
        #: (partition, pool, end_offset) of the most recent allocation.
        self.last_alloc: Optional[tuple[int, int, int]] = None

    def _note_alloc(self, key: bytes, resp: dict) -> None:
        super()._note_alloc(key, resp)
        self.last_alloc = (
            resp.get("part", 0),
            resp["pool"],
            resp["obj_off"] + resp["size"],
        )


class ClusterClient:
    """Routing front-end over one sub-client per node."""

    #: Pause between route-refresh retries after a routing failure.
    route_retry_ns = 20_000.0
    #: Total deadline for one client op across re-routes (covers a full
    #: detection + promotion cycle with slack).
    route_timeout_ns = 10_000_000.0

    def __init__(self, env: Environment, cluster: "Cluster", name: str) -> None:
        self.env = env
        self.cluster = cluster
        self.router = cluster.router
        self.name = name
        self.config = cluster.store_config
        self.subs = [
            _SubClient(env, node.server, name=f"{name}.n{node.node_id}")
            for node in cluster.nodes
        ]
        self._epoch_seen = self.router.epoch
        self.resilience = None
        #: Ops that had to leave their first-choice node.
        self.rerouted_ops = 0
        #: Waits spent on a partition with no routable primary.
        self.route_waits = 0

    # -- resilience (shared across sub-clients: one budget, one log) --------
    def enable_resilience(self, policy, rng, tracer=None):
        from repro.faults.policy import ClientResilience

        self.resilience = ClientResilience(
            policy, rng, tracer=tracer, name=self.name
        )
        for sub in self.subs:
            sub.resilience = self.resilience
        return self.resilience

    def reset_endpoints(self) -> None:
        """Heal every per-node QP (the chaos harness's end-of-run heal)."""
        for sub in self.subs:
            sub.ep.reset()

    # -- routing helpers -----------------------------------------------------
    def _part_of(self, key: bytes) -> int:
        return partition_of_fp(
            key_fingerprint(key), self.config.num_partitions
        )

    def _sync_epoch(self) -> None:
        if self.router.epoch != self._epoch_seen:
            self._epoch_seen = self.router.epoch
            for sub in self.subs:
                sub._loc_cache.clear()

    def _route(self, part: int) -> Optional[int]:
        """Current primary when the partition is serviceable, else None."""
        self._sync_epoch()
        if not self.router.routable(part):
            return None
        nid = self.router.primary(part)
        if nid is None or not self.cluster.alive(nid):
            return None
        return nid

    def _routed_op(
        self, part: int, attempt, label: str
    ) -> Generator[Event, Any, Any]:
        """Run ``attempt(sub)`` against the partition's primary,
        re-routing on transport faults / fences until the deadline."""
        env = self.env
        deadline = env.now + self.route_timeout_ns
        last: Optional[Exception] = None
        while True:
            nid = self._route(part)
            if nid is None:
                self.route_waits += 1
            else:
                try:
                    return (yield from attempt(self.subs[nid]))
                except (QPError, OperationTimeout) as exc:
                    last = exc
                except RpcFault as exc:
                    # Fences and transient conditions re-route; real
                    # errors (not_found, protocol) are the answer.
                    if exc.code != ERR_FENCED and not exc.retryable:
                        raise
                    last = exc
                self.rerouted_ops += 1
            if env.now >= deadline:
                if last is not None:
                    raise last
                raise OperationTimeout(
                    f"{self.name} {label}: partition {part} had no routable "
                    f"primary within {self.route_timeout_ns:.0f}ns"
                )
            yield env.timeout(self.route_retry_ns)

    # -- ops -----------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        part = self._part_of(key)

        def attempt(sub: _SubClient) -> Generator[Event, Any, None]:
            yield from sub.put(key, value)
            if self.cluster.cfg.replication_factor > 1:
                alloc = sub.last_alloc
                if alloc is not None and alloc[0] == part:
                    yield from self._repl_wait(sub, part, alloc)

        return (yield from self._routed_op(part, attempt, "put"))

    def _repl_wait(
        self, sub: _SubClient, part: int, alloc: tuple[int, int, int]
    ) -> Generator[Event, Any, None]:
        _part, pool, end = alloc
        payload = {"op": "repl_wait", "part": part, "pool": pool, "end": end}
        yield from sub.call_resilient(
            lambda: sub.rpc.call(payload, REPL_WAIT_BYTES), label="repl_wait"
        )

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        part = self._part_of(key)

        def attempt(sub: _SubClient) -> Generator[Event, Any, bytes]:
            return (yield from sub.get(key, size_hint))

        return (yield from self._routed_op(part, attempt, "get"))

    def put_many(
        self, items: "list[tuple[bytes, bytes]]"
    ) -> Generator[Event, Any, None]:
        """Sequential puts: cross-node batching would need per-node
        chunk regrouping under route churn — future work; the ack gate
        per item is the semantics that matter here."""
        for key, value in items:
            yield from self.put(key, value)

    def delete(self, key: bytes) -> Generator[Event, Any, None]:
        part = self._part_of(key)

        def attempt(sub: _SubClient) -> Generator[Event, Any, None]:
            return (yield from sub.delete(key))

        return (yield from self._routed_op(part, attempt, "delete"))

    # -- surface shared with BaseClient (harness compatibility) --------------
    @property
    def degraded_reads(self) -> int:
        return sum(sub.degraded_reads for sub in self.subs)

    def read_stats(self) -> dict[str, int]:
        out = sum_counters(sub.read_stats() for sub in self.subs)
        out["rerouted"] = self.rerouted_ops
        out["route_waits"] = self.route_waits
        return out
