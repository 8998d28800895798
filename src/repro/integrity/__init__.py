"""Self-healing integrity tier (Pangolin-style, beyond the paper).

Per-partition XOR parity over log-pool stripes plus a per-object
checksum ledger, maintained incrementally by the background verifier,
with a coalesced Merkle-over-ledger root for end-to-end verification on
the GET fast path. Without parity a partition holds the stateless
:data:`ABSENT_TIER`. See :mod:`repro.integrity.tier`.
"""

from repro.integrity.tier import (
    ABSENT_TIER,
    LEDGER_SLOT,
    PARITY_PAGE,
    PartitionIntegrity,
    PoolIntegrity,
    integrity_region_bytes,
)

__all__ = [
    "ABSENT_TIER",
    "LEDGER_SLOT",
    "PARITY_PAGE",
    "PartitionIntegrity",
    "PoolIntegrity",
    "integrity_region_bytes",
]
