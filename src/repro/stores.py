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

from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    ca_config,
    erda_config,
    forca_config,
    imm_config,
    rpc_store_config,
    saw_config,
)
from repro.core import EFactoryClient, EFactoryServer, efactory_config
from repro.errors import ConfigError
from repro.rdma.fabric import Fabric
from repro.rdma.latency import FabricTiming
from repro.sim.kernel import Environment

__all__ = ["StoreSpec", "StoreSetup", "STORES", "build_store", "store_names"]


@dataclass(frozen=True)
class StoreSpec:
    """How to construct one store flavour."""

    name: str
    label: str  # display name used in reports (matches the paper)
    server_cls: type
    client_cls: type
    config_factory: Callable[..., StoreConfig]
    #: Whether PUT acknowledgement implies durability.
    durable_put: bool
    #: Whether GET guarantees an intact (untorn) value.
    consistent_get: bool
    #: Whether a version a GET returned is never lost again, even across
    #: a crash (§5.3: eFactory "refrains from non-monotonic reads").
    monotonic_reads: bool


def _efactory_nohr_config(**overrides: Any):
    overrides.setdefault("hybrid_read", False)
    return efactory_config(**overrides)


STORES: dict[str, StoreSpec] = {
    "efactory": StoreSpec(
        "efactory", "eFactory", EFactoryServer, EFactoryClient, efactory_config,
        durable_put=False, consistent_get=True, monotonic_reads=True,
    ),
    "efactory_nohr": StoreSpec(
        "efactory_nohr", "eFactory w/o hr", EFactoryServer, EFactoryClient,
        _efactory_nohr_config,
        durable_put=False, consistent_get=True, monotonic_reads=True,
    ),
    "ca": StoreSpec(
        "ca", "CA w/o persistence", CAServer, CAClient, ca_config,
        durable_put=False, consistent_get=False, monotonic_reads=False,
    ),
    "rpc": StoreSpec(
        "rpc", "RPC", RpcStoreServer, RpcStoreClient, rpc_store_config,
        durable_put=True, consistent_get=True, monotonic_reads=False,
    ),
    "saw": StoreSpec(
        "saw", "SAW", SAWServer, SAWClient, saw_config,
        durable_put=True, consistent_get=True, monotonic_reads=False,
    ),
    "imm": StoreSpec(
        "imm", "IMM", IMMServer, IMMClient, imm_config,
        durable_put=True, consistent_get=True, monotonic_reads=False,
    ),
    "erda": StoreSpec(
        "erda", "Erda", ErdaServer, ErdaClient, erda_config,
        durable_put=False, consistent_get=True, monotonic_reads=False,
    ),
    "forca": StoreSpec(
        "forca", "Forca", ForcaServer, ForcaClient, forca_config,
        durable_put=False, consistent_get=True, monotonic_reads=False,
    ),
}


def store_names() -> list[str]:
    return list(STORES)


@dataclass
class StoreSetup:
    """A deployed store: one server plus its connected clients."""

    spec: StoreSpec
    env: Environment
    fabric: Fabric
    server: BaseServer
    clients: list[BaseClient]

    def client(self, i: int = 0) -> BaseClient:
        return self.clients[i]

    def start(self) -> "StoreSetup":
        self.server.start()
        return self


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
    config = spec.config_factory(**(config_overrides or {}))
    server = spec.server_cls(env, fabric, config, name=f"{name}-server")
    clients = [
        spec.client_cls(env, server, name=f"{name}-client{i}")
        for i in range(n_clients)
    ]
    return StoreSetup(spec=spec, env=env, fabric=fabric, server=server, clients=clients)
