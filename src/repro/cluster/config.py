"""Cluster-level configuration.

Separate from :class:`~repro.core.config.EFactoryConfig` on purpose: the
per-node store config describes *one* server's geometry and timing and
is shared byte-for-byte by every replica (shipped log records land at
identical offsets only because the pool layout is identical), while this
dataclass describes the topology layered on top, plus the two protocol
settings a deployment chooses.

The protocol's fixed timings live with the code that runs them: the
shipping batch and poll periods on
:class:`~repro.cluster.replicator.LogShipper`, the ack gate's wait in
:mod:`repro.cluster.replicator`, heartbeats on
:class:`~repro.cluster.failover.FailureDetector`, the promotion grace in
:mod:`repro.cluster.failover`, the migration batch in
:mod:`repro.cluster.migration`, re-routing on
:class:`~repro.cluster.client.ClusterClient` and the node-kill tick on
:class:`~repro.cluster.node.Cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    #: Number of server nodes. 1 degenerates to a standalone server (no
    #: shippers, no detector) — the bit-identical baseline.
    n_nodes: int = 3
    #: Copies per partition, primary included. 1 disables replication:
    #: puts ack exactly as on a standalone server.
    replication_factor: int = 2
    #: Re-run recovery after promoting and assert the second pass is a
    #: no-op on the partition image (byte-identical idempotence). Costs
    #: a full extra pass; chaos tests switch it on.
    verify_promotion: bool = False
    #: Drain window: how long a migration's source stays write-fenced
    #: before the delta pass (in-flight client WRITEs land within it).
    drain_grace_ns: float = 30_000.0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if not 1 <= self.replication_factor <= self.n_nodes:
            raise ConfigError(
                "replication_factor must be in [1, n_nodes] "
                f"(got {self.replication_factor} with {self.n_nodes} nodes)"
            )
