"""eFactory configuration.

Extends the shared :class:`~repro.baselines.base.StoreConfig` with the
switches of the paper's design and its extensions that a deployment
turns on: automatic log cleaning, the verifier's batch, the online
scrubber and the integrity tier.

The scheme itself is not configured here: persisting metadata before
the alloc ack (§4.3.1), the second pool log cleaning needs (§4.4), the
receive batching of §6.1, the background verifier's timings and the
handler CPU costs are :class:`~repro.core.server.EFactoryServer` class
attributes; the client's read extensions (the location cache and the
adaptive read, with its skip window) are
:class:`~repro.core.client.EFactoryClient` class attributes, and
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
        ("bg_batch", 1), ("scrub_interval_ns", 0), ("parity_stripe_kb", 0),
    )
