"""eFactory configuration.

Extends the shared :class:`~repro.baselines.base.StoreConfig` with the
knobs specific to the paper's design and its ablations:

* ``hybrid_read`` — the §4.3.3 hybrid read scheme; ``False`` gives the
  "eFactory w/o hr" variant of the §6.1 factor analysis (every GET goes
  RPC+RDMA with the selective durability guarantee).
* ``recv_batching`` — §6.1 attributes eFactory's PUT edge over Erda to
  "multiple receiving regions to optimize the simultaneous processing of
  a batch of packets"; modelled as a multiplier (<1) on the per-message
  dispatch cost.
* ``persist_meta`` defaults True: §4.3.1 persists object metadata and
  the hash entry before acking the allocation.
* ``dual_pools`` defaults True: log cleaning needs the second pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.base import StoreConfig
from repro.errors import ConfigError

__all__ = ["EFactoryConfig", "efactory_config", "integrity_overrides"]

#: Default stripe size (KiB) the harnesses use when turning the parity
#: tier on (``repro chaos --parity``, the integrity bench suite).
DEFAULT_PARITY_STRIPE_KB = 4


def integrity_overrides(
    *, stripe_kb: int = DEFAULT_PARITY_STRIPE_KB, tree: bool = True
) -> dict[str, Any]:
    """Config overrides that enable the self-healing integrity tier:
    XOR parity + checksum ledger, and (by default) the Merkle-over-
    ledger tree checked on cache-warm one-READ GETs."""
    return {"parity_stripe_kb": stripe_kb, "integrity_tree": tree}


@dataclass(frozen=True)
class EFactoryConfig(StoreConfig):
    hybrid_read: bool = True
    recv_batching: float = 0.5
    #: Automatically run log cleaning when the reserve threshold trips.
    auto_clean: bool = True
    #: Extension (not in the paper): after a GET falls back, skip the
    #: optimistic pure-RDMA attempt for that key for ``adaptive_ttl_ns``.
    #: Under write-heavy zipfian load at high concurrency, hot objects
    #: outrun the single background verifier and the optimistic read is
    #: nearly always wasted; this recovers that regime (see the
    #: adaptive-read ablation bench).
    adaptive_read: bool = False
    adaptive_ttl_ns: float = 30_000.0
    #: Client-side location cache capacity (key → (partition, slot)).
    #: A hit turns the pure-RDMA GET's two READs into one; the object
    #: image itself is the staleness detector (an overwritten version
    #: carries a set ``nxt_ptr``, a deleted one drops FLAG_VALID, and a
    #: migrated one gains FLAG_TRANS — any of these falls back to the
    #: two-READ path and drops the entry).  0 (default) disables the
    #: cache, preserving the seed's event sequence bit-for-bit.
    loc_cache_size: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.recv_batching <= 1.0:
            raise ConfigError("recv_batching must be in (0, 1]")
        if self.loc_cache_size < 0:
            raise ConfigError("loc_cache_size must be >= 0")

    @property
    def effective_dispatch_ns(self) -> float:
        return self.dispatch_ns * self.recv_batching


def efactory_config(**overrides: Any) -> EFactoryConfig:
    """The paper's defaults: client-active + async durability, hybrid
    reads, metadata persisted at allocation, dual pools for cleaning."""
    base = dict(
        persist_meta=True,
        crc_on_put=True,
        dual_pools=True,
    )
    base.update(overrides)
    return EFactoryConfig(**base)
