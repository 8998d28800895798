"""The cluster routing map: which node owns which partition.

Every partition has an ordered replica list (primary first). The map is
versioned by a single ``epoch`` counter bumped on every visible change —
clients compare epochs instead of diffing routes, and a stale client
flushes its connection-scoped caches the moment it notices a bump.

States:

* ``normal``     — primary serving, backups receiving shipped log.
* ``migrating``  — copy stage of a live migration; the primary still
  serves reads *and* writes (stage 1 is concurrent).
* ``draining``   — the short fenced window before the ownership flip:
  writes are rejected at the source (``ERR_FENCED``), clients wait.
* ``promoting``  — primary died; a backup is replaying its shipped log.
  Not routable until recovery finishes.
* ``dead``       — no replicas left. Ops fail until the deadline.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError

__all__ = ["ClusterRouter", "PartitionRoute"]

NORMAL = "normal"
MIGRATING = "migrating"
DRAINING = "draining"
PROMOTING = "promoting"
DEAD = "dead"


class PartitionRoute:
    """Mutable routing state of one partition."""

    __slots__ = ("part_id", "replicas", "state", "migrating_to")

    def __init__(self, part_id: int, replicas: list[int]) -> None:
        self.part_id = part_id
        #: Node ids, primary first.
        self.replicas = replicas
        self.state = NORMAL
        #: Destination node of an in-flight migration, or None.
        self.migrating_to: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "part": self.part_id,
            "replicas": list(self.replicas),
            "state": self.state,
            "migrating_to": self.migrating_to,
        }


class ClusterRouter:
    """Owns the partition → replica-list map and its epoch."""

    def __init__(self, n_nodes: int, n_partitions: int, replication_factor: int) -> None:
        if replication_factor > n_nodes:
            raise ConfigError("replication_factor exceeds node count")
        self.n_nodes = n_nodes
        self.epoch = 0
        #: Round-robin placement: partition p's primary is node
        #: p % n_nodes, its backups the next rf-1 nodes — every node is
        #: primary for ~P/N partitions and backup for the neighbours'.
        self.routes = [
            PartitionRoute(
                p, [(p + i) % n_nodes for i in range(replication_factor)]
            )
            for p in range(n_partitions)
        ]
        self.alive = list(range(n_nodes))

    # -- queries ------------------------------------------------------------
    def primary(self, part: int) -> Optional[int]:
        r = self.routes[part].replicas
        return r[0] if r else None

    def backups(self, part: int) -> list[int]:
        return [n for n in self.routes[part].replicas[1:] if n in self.alive]

    def routable(self, part: int) -> bool:
        """Can a client usefully send ops at this partition right now?"""
        route = self.routes[part]
        return (
            route.state in (NORMAL, MIGRATING)
            and bool(route.replicas)
            and route.replicas[0] in self.alive
        )

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "alive": list(self.alive),
            "routes": [r.as_dict() for r in self.routes],
        }

    # -- failure ------------------------------------------------------------
    def mark_failed(self, node_id: int) -> list[int]:
        """Remove a dead node from every replica list.

        Returns the partitions orphaned by the failure (the dead node
        was their primary): each flips to ``promoting`` when a backup
        remains, ``dead`` when none does. Partitions that only lost a
        backup shrink their replica list in place — the shipper simply
        stops targeting it (degraded redundancy, not unavailability).
        """
        if node_id in self.alive:
            self.alive.remove(node_id)
        orphans: list[int] = []
        for route in self.routes:
            if node_id not in route.replicas:
                continue
            was_primary = route.replicas[0] == node_id
            route.replicas.remove(node_id)
            if was_primary:
                if route.replicas:
                    route.state = PROMOTING
                    orphans.append(route.part_id)
                else:
                    route.state = DEAD
                route.migrating_to = None
        self.epoch += 1
        return orphans

    def mark_ready(self, part: int) -> None:
        """Promotion finished: the first surviving replica is primary."""
        self.routes[part].state = NORMAL
        self.epoch += 1

    # -- migration ----------------------------------------------------------
    def begin_migration(self, part: int, dst: int) -> None:
        route = self.routes[part]
        if route.state != NORMAL:
            raise ConfigError(
                f"partition {part} is {route.state}; cannot migrate"
            )
        route.state = MIGRATING
        route.migrating_to = dst
        self.epoch += 1

    def drain(self, part: int) -> None:
        self.routes[part].state = DRAINING
        self.epoch += 1

    def finish_migration(self, part: int) -> None:
        """Ownership flip: the destination becomes primary; surviving
        old replicas (minus the old primary) stay as backups."""
        route = self.routes[part]
        dst = route.migrating_to
        if dst is None:
            raise ConfigError(f"partition {part} has no migration target")
        survivors = [
            n for n in route.replicas[1:] if n in self.alive and n != dst
        ]
        route.replicas = [dst] + survivors
        route.state = NORMAL
        route.migrating_to = None
        self.epoch += 1

    def abort_migration(self, part: int) -> None:
        """Roll the route back to the source-owned normal state."""
        route = self.routes[part]
        if route.state in (MIGRATING, DRAINING):
            route.state = NORMAL
        route.migrating_to = None
        self.epoch += 1
