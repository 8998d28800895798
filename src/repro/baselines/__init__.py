"""The comparison systems of §5.3, implemented on the shared code base."""

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    ClientSession,
    Partition,
    StoreConfig,
)
from repro.baselines.ca import CAClient, CAServer, ca_config
from repro.baselines.erda import ErdaClient, ErdaServer, erda_config
from repro.baselines.forca import ForcaClient, ForcaServer, forca_config
from repro.baselines.imm import IMMClient, IMMServer, imm_config
from repro.baselines.rpc_store import (
    RpcStoreClient,
    RpcStoreServer,
    rpc_store_config,
)
from repro.baselines.saw import SAWClient, SAWServer, saw_config

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
    "ca_config",
    "erda_config",
    "forca_config",
    "imm_config",
    "rpc_store_config",
    "saw_config",
]
