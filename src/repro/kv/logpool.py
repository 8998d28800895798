"""Log-structured data pool (paper §4.2.1).

Objects are allocated strictly append-only ("data are updated
out-of-place"), which (a) makes concurrent allocation a pointer bump,
(b) guarantees a torn write can never damage an *older* version, and
(c) naturally retains multiple versions per object until log cleaning
reclaims them.

The pool is a window of an NVM device. The allocator state (head) is
server-volatile; recovery re-derives it by scanning (the scan order is
reconstructable because allocation is monotone). A DRAM-side allocation
journal (``allocations``) mirrors what a real server would keep in its
volatile index and is what the log cleaner and background verifier walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PoolExhaustedError
from repro.mem.buffer import CACHELINE
from repro.nvm.device import NVMDevice

__all__ = ["Allocation", "LogPool"]


@dataclass
class Allocation:
    """DRAM-side record of one allocated object slot."""

    offset: int  # pool-relative
    size: int


class LogPool:
    """Append-only allocator over ``[base, base+size)`` of a device.

    Parameters
    ----------
    device, base, size:
        The NVM window backing the pool.
    pool_id:
        0 or 1 — version pointers embed this (two pools exist during log
        cleaning).
    align:
        Allocation alignment; defaults to the cacheline so objects never
        share a crash-atomicity unit.
    reserve_fraction:
        Fraction of capacity kept as the log-cleaning trigger threshold
        (§4.4: "triggered when the reserved space reaches a pre-defined
        threshold").
    """

    __slots__ = (
        "device",
        "base",
        "size",
        "pool_id",
        "align",
        "reserve_fraction",
        "head",
        "allocations",
        "garbage_bytes",
    )

    def __init__(
        self,
        device: NVMDevice,
        base: int,
        size: int,
        *,
        pool_id: int = 0,
        align: int = CACHELINE,
        reserve_fraction: float = 0.1,
    ) -> None:
        if align <= 0 or align & (align - 1):
            raise PoolExhaustedError(f"align must be a power of two, got {align}")
        if not 0.0 <= reserve_fraction < 1.0:
            raise PoolExhaustedError(
                f"reserve_fraction must be in [0,1), got {reserve_fraction}"
            )
        self.device = device
        self.base = base
        self.size = size
        self.pool_id = pool_id
        self.align = align
        self.reserve_fraction = reserve_fraction
        self.head = 0
        self.allocations: list[Allocation] = []
        #: Dead bytes known reclaimable by a cleaning pass (retired rot,
        #: invalidated writes) — a *trigger* input, not allocator state.
        self.garbage_bytes = 0

    # -- capacity ------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.head

    @property
    def free(self) -> int:
        return self.size - self.head

    def needs_cleaning(self) -> bool:
        """True once free space has fallen into the reserve threshold,
        or enough known-dead bytes have piled up to fill the reserve
        (retired rot used to sit outside this trigger forever)."""
        threshold = self.size * self.reserve_fraction
        return self.free <= threshold or self.garbage_bytes >= threshold

    def add_garbage(self, nbytes: int) -> None:
        """Charge a retired/invalidated object's footprint as garbage."""
        self.garbage_bytes += (nbytes + self.align - 1) & ~(self.align - 1)

    # -- allocation -------------------------------------------------------------
    def allocate(self, nbytes: int) -> int:
        """Bump-allocate ``nbytes``; returns the pool-relative offset."""
        if nbytes <= 0:
            raise PoolExhaustedError(f"allocation size must be > 0, got {nbytes}")
        rounded = (nbytes + self.align - 1) & ~(self.align - 1)
        if self.head + rounded > self.size:
            raise PoolExhaustedError(
                f"pool {self.pool_id}: need {rounded} bytes, {self.free} free"
            )
        offset = self.head
        self.head += rounded
        self.allocations.append(Allocation(offset, nbytes))
        return offset

    def can_fit(self, nbytes: int) -> bool:
        rounded = (nbytes + self.align - 1) & ~(self.align - 1)
        return self.head + rounded <= self.size

    # -- addressing ---------------------------------------------------------------
    def abs_addr(self, offset: int) -> int:
        """Device-absolute address of a pool-relative offset."""
        if not 0 <= offset < self.size:
            raise PoolExhaustedError(
                f"pool {self.pool_id}: offset {offset} outside [0, {self.size})"
            )
        return self.base + offset

    # -- raw access (timing charged by callers) --------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        return self.device.buffer.read(self.abs_addr(offset), length)

    def write(self, offset: int, data: bytes) -> None:
        self.device.buffer.write(self.abs_addr(offset), data)

    def reset(self) -> None:
        """Recycle the pool (log cleaning retires and reuses it)."""
        self.head = 0
        self.allocations.clear()
        self.garbage_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LogPool id={self.pool_id} used={self.used}/{self.size} "
            f"objects={len(self.allocations)}>"
        )
