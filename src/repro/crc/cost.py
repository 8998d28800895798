"""Simulated-time cost of CRC computation.

Calibrated directly against the paper's own measurement (§3): verifying
a 4 KiB object takes ≈4.4 µs on their Xeon E5-2640 v4, "which accounts
for 45% and 35% of the read latency for Erda and Forca respectively".
With ``base_ns = 60`` and ``ns_per_byte = 1.06``:

>>> CRC_COST.cost_ns(4096)
4401.76

Every place a store computes a CRC in simulation charges this cost to
whoever runs it — the client (Erda), the server request handler (Forca,
eFactory's RPC-read fallback), or the background thread (eFactory),
which is exactly the placement argument the paper makes. The model is
one module constant, :data:`CRC_COST`: like the CPU it stands for, no
store deployment configures it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["CRC_COST", "CrcCostModel"]


@dataclass(frozen=True)
class CrcCostModel:
    """Affine CRC time model: ``base_ns + ns_per_byte * nbytes``."""

    base_ns: float = 60.0
    ns_per_byte: float = 1.06

    def __post_init__(self) -> None:
        if self.base_ns < 0 or self.ns_per_byte < 0:
            raise ConfigError("CrcCostModel parameters must be >= 0")

    def cost_ns(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ConfigError(f"nbytes must be >= 0, got {nbytes}")
        return self.base_ns + self.ns_per_byte * nbytes


#: The CRC time every simulated checksum is charged.
CRC_COST = CrcCostModel()
