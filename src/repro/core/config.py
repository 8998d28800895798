"""eFactory configuration.

Extends the shared :class:`~repro.baselines.base.StoreConfig` with the
switches of the paper's design and its extensions that a caller turns
on: automatic log cleaning, the adaptive read, the location cache, the
verifier's batch, the online scrubber and the integrity tier.

The scheme itself is not configured here: persisting metadata before
the alloc ack (§4.3.1), the second pool log cleaning needs (§4.4), the
receive batching of §6.1, the background verifier's timings and the
handler CPU costs are :class:`~repro.core.server.EFactoryServer` class
attributes; the adaptive read's skip window is
:attr:`~repro.core.client.EFactoryClient.adaptive_ttl_ns`, and
"eFactory w/o hr" (§6.1) is :class:`~repro.core.client.EFactoryNoHrClient`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import StoreConfig

__all__ = ["DEFAULT_PARITY_STRIPE_KB", "EFactoryConfig"]

#: Default stripe size (KiB) the harnesses use when turning the parity
#: tier on (``repro chaos --parity``, the integrity bench suite).
DEFAULT_PARITY_STRIPE_KB = 4


@dataclass(frozen=True)
class EFactoryConfig(StoreConfig):
    #: Automatically run log cleaning when the reserve threshold trips.
    auto_clean: bool = True
    #: Extension (not in the paper): after a GET falls back, skip the
    #: optimistic pure-RDMA attempt for that key for
    #: ``EFactoryClient.adaptive_ttl_ns``.
    #: Under write-heavy zipfian load at high concurrency, hot objects
    #: outrun the single background verifier and the optimistic read is
    #: nearly always wasted; this recovers that regime (see the
    #: adaptive-read ablation bench).
    adaptive_read: bool = False
    #: Client-side location cache capacity (key → (partition, slot)).
    #: A hit turns the pure-RDMA GET's two READs into one; the object
    #: image itself is the staleness detector (an overwritten version
    #: carries a set ``nxt_ptr``, a deleted one drops FLAG_VALID, and a
    #: migrated one gains FLAG_TRANS — any of these falls back to the
    #: two-READ path and drops the entry).  0 (default) disables the
    #: cache, preserving the seed's event sequence bit-for-bit.
    loc_cache_size: int = 0
    #: Objects the background verifier drains per pass. At 1 an empty
    #: pass polls again after ``EFactoryServer.bg_idle_poll_ns`` (the
    #: paper's thread); > 1 sleeps until new work arrives and coalesces
    #: adjacent flushes.
    bg_batch: int = 1
    #: Online media scrubber pacing (0 = disabled; see repro.core.scrub).
    scrub_interval_ns: float = 0.0
    #: XOR-parity stripe size in KiB over each log pool, with a
    #: checksum ledger and a Merkle-over-ledger root the cache-warm
    #: one-READ GET verifies against; 0 leaves the tier absent (see
    #: repro.integrity).
    parity_stripe_kb: int = 0

    _minimums = StoreConfig._minimums + (
        ("loc_cache_size", 0), ("bg_batch", 1), ("scrub_interval_ns", 0),
        ("parity_stripe_kb", 0),
    )
