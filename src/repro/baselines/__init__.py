"""The comparison systems of §5.3, implemented on the shared code base."""

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    ClientSession,
    Partition,
    StoreConfig,
)
from repro.baselines.ca import CAClient, CAServer
from repro.baselines.erda import ErdaClient, ErdaServer
from repro.baselines.forca import ForcaClient, ForcaServer
from repro.baselines.imm import IMMClient, IMMServer
from repro.baselines.rpc_store import RpcStoreClient, RpcStoreServer
from repro.baselines.saw import SAWClient, SAWServer

__all__ = [
    "BaseClient",
    "BaseServer",
    "CAClient",
    "CAServer",
    "ClientSession",
    "ErdaClient",
    "ErdaServer",
    "ForcaClient",
    "ForcaServer",
    "IMMClient",
    "IMMServer",
    "Partition",
    "RpcStoreClient",
    "RpcStoreServer",
    "SAWClient",
    "SAWServer",
    "StoreConfig",
]
