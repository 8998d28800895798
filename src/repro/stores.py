"""Store registry and one-call deployment.

The benchmarks and examples build every system through this registry so
that a comparison is always apples-to-apples: same fabric, same NVM
timing, same geometry; only the scheme differs.

>>> from repro.sim import Environment
>>> from repro.stores import build_store
>>> env = Environment()
>>> setup = build_store("efactory", env, n_clients=2)
>>> setup.server.start()
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any, Optional

from repro.baselines import (
    BaseClient,
    BaseServer,
    CAClient,
    CAServer,
    ErdaClient,
    ErdaServer,
    ForcaClient,
    ForcaServer,
    IMMClient,
    IMMServer,
    RpcStoreClient,
    RpcStoreServer,
    SAWClient,
    SAWServer,
    StoreConfig,
)
from repro.core import (
    EFactoryClient,
    EFactoryNoHrClient,
    EFactoryServer,
    RecoveryReport,
    recover_bucketized,
    recover_erda,
)
from repro.errors import ConfigError
from repro.rdma.fabric import Fabric
from repro.rdma.latency import FabricTiming
from repro.sim.kernel import Environment, Event

__all__ = ["StoreSpec", "StoreSetup", "STORES", "build_store", "store_names"]

Recovery = Callable[[BaseServer], Generator[Event, Any, RecoveryReport]]


@dataclass(frozen=True)
class StoreSpec:
    """How to construct one store flavour: its scheme, costs included,
    is its server and client classes."""

    name: str
    label: str  # display name used in reports (matches the paper)
    server_cls: type[BaseServer]
    client_cls: type[BaseClient]
    #: Whether PUT acknowledgement implies durability.
    durable_put: bool
    #: Whether GET guarantees an intact (untorn) value.
    consistent_get: bool
    #: Whether a version a GET returned is never lost again, even across
    #: a crash (§5.3: eFactory "refrains from non-monotonic reads").
    monotonic_reads: bool
    #: The full recovery pass after a crash; None where nothing is
    #: persisted to recover from (CA).
    recover: Optional[Recovery]

    def config(self, **overrides: Any) -> StoreConfig:
        """The server's config type with ``overrides`` applied."""
        return self.server_cls.config_cls(**overrides)


STORES: dict[str, StoreSpec] = {
    "efactory": StoreSpec(
        "efactory", "eFactory", EFactoryServer, EFactoryClient,
        durable_put=False, consistent_get=True, monotonic_reads=True,
        recover=recover_bucketized,
    ),
    "efactory_nohr": StoreSpec(
        "efactory_nohr", "eFactory w/o hr", EFactoryServer, EFactoryNoHrClient,
        durable_put=False, consistent_get=True, monotonic_reads=True,
        recover=recover_bucketized,
    ),
    "ca": StoreSpec(
        "ca", "CA w/o persistence", CAServer, CAClient,
        durable_put=False, consistent_get=False, monotonic_reads=False,
        recover=None,
    ),
    "rpc": StoreSpec(
        "rpc", "RPC", RpcStoreServer, RpcStoreClient,
        durable_put=True, consistent_get=True, monotonic_reads=False,
        recover=recover_bucketized,
    ),
    "saw": StoreSpec(
        "saw", "SAW", SAWServer, SAWClient,
        durable_put=True, consistent_get=True, monotonic_reads=False,
        recover=recover_bucketized,
    ),
    "imm": StoreSpec(
        "imm", "IMM", IMMServer, IMMClient,
        durable_put=True, consistent_get=True, monotonic_reads=False,
        recover=recover_bucketized,
    ),
    "erda": StoreSpec(
        "erda", "Erda", ErdaServer, ErdaClient,
        durable_put=False, consistent_get=True, monotonic_reads=False,
        recover=recover_erda,
    ),
    "forca": StoreSpec(
        "forca", "Forca", ForcaServer, ForcaClient,
        durable_put=False, consistent_get=True, monotonic_reads=False,
        recover=recover_bucketized,
    ),
}


def store_names() -> list[str]:
    return list(STORES)


@dataclass
class StoreSetup:
    """A deployed store: one server plus its connected clients.

    ``servers``, ``cluster`` and ``stop`` give it the shape of a
    :class:`~repro.cluster.node.ClusterSetup`, so a harness drives both
    through one surface."""

    spec: StoreSpec
    env: Environment
    fabric: Fabric
    server: BaseServer
    clients: list[BaseClient]
    #: A standalone store is no cluster.
    cluster = None

    @property
    def servers(self) -> list[BaseServer]:
        return [self.server]

    def client(self, i: int = 0) -> BaseClient:
        return self.clients[i]

    def start(self) -> "StoreSetup":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()


def build_store(
    name: str,
    env: Environment,
    *,
    fabric: Optional[Fabric] = None,
    fabric_timing: Optional[FabricTiming] = None,
    config_overrides: Optional[dict[str, Any]] = None,
    n_clients: int = 1,
) -> StoreSetup:
    """Deploy a store by registry name with ``n_clients`` clients."""
    spec = STORES.get(name)
    if spec is None:
        raise ConfigError(f"unknown store {name!r}; known: {store_names()}")
    if n_clients < 0:
        raise ConfigError("n_clients must be >= 0")
    fabric = fabric or Fabric(env, timing=fabric_timing)
    config = spec.config(**(config_overrides or {}))
    server = spec.server_cls(env, fabric, config, name=f"{name}-server")
    clients = [
        spec.client_cls(env, server, name=f"{name}-client{i}")
        for i in range(n_clients)
    ]
    return StoreSetup(spec=spec, env=env, fabric=fabric, server=server, clients=clients)
