"""Memory registration: regions and rkeys.

A :class:`MemoryRegion` pins a byte range of a node's NVM (or DRAM)
device and grants remote access under an *rkey*. Clients address remote
memory as ``(rkey, offset)`` — offsets are region-relative, exactly as
the stores in this library hand out "offset addresses" to clients.

Registration is per-node (:class:`ProtectionDomain` lives on the node in
:mod:`repro.rdma.fabric`); deregistering a region invalidates its rkey,
which the log-cleaning flow uses when retiring an old data pool.
"""

from __future__ import annotations

import itertools

from repro.errors import ProtectionError
from repro.nvm.device import NVMDevice

__all__ = ["MemoryRegion", "ProtectionDomain"]

_rkey_counter = itertools.count(0x1000)


class MemoryRegion:
    """A registered, remotely accessible window onto a device."""

    __slots__ = ("rkey", "device", "base", "size", "writable", "name", "valid")

    def __init__(
        self,
        device: NVMDevice,
        base: int,
        size: int,
        *,
        writable: bool = True,
        name: str = "",
    ) -> None:
        end = device.buffer.size
        if base < 0 or size <= 0 or base + size > end:
            raise ProtectionError(
                f"region [{base}, {base + size}) outside device of size {end}"
            )
        self.rkey = next(_rkey_counter)
        self.device = device
        self.base = base
        self.size = size
        self.writable = writable
        self.name = name or f"mr{self.rkey:#x}"
        self.valid = True

    def check(self, offset: int, length: int, *, write: bool) -> int:
        """Validate an access; returns the absolute device address."""
        if not self.valid:
            raise ProtectionError(f"{self.name}: rkey {self.rkey:#x} invalidated")
        if write and not self.writable:
            raise ProtectionError(f"{self.name}: region is read-only")
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ProtectionError(
                f"{self.name}: access [{offset}, {offset + length}) outside "
                f"region of size {self.size}"
            )
        return self.base + offset

    def invalidate(self) -> None:
        """Deregister: subsequent remote access raises ProtectionError."""
        self.valid = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemoryRegion {self.name} rkey={self.rkey:#x} "
            f"base={self.base} size={self.size} "
            f"{'rw' if self.writable else 'ro'}{'' if self.valid else ' INVALID'}>"
        )


class ProtectionDomain:
    """Registry of a node's memory regions, keyed by rkey."""

    __slots__ = ("_regions",)

    def __init__(self) -> None:
        self._regions: dict[int, MemoryRegion] = {}

    def register(
        self,
        device: NVMDevice,
        base: int,
        size: int,
        *,
        writable: bool = True,
        name: str = "",
    ) -> MemoryRegion:
        mr = MemoryRegion(device, base, size, writable=writable, name=name)
        self._regions[mr.rkey] = mr
        return mr

    def lookup(self, rkey: int) -> MemoryRegion:
        mr = self._regions.get(rkey)
        if mr is None or not mr.valid:
            raise ProtectionError(f"unknown or invalidated rkey {rkey:#x}")
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        mr.invalidate()
        self._regions.pop(mr.rkey, None)

    def __len__(self) -> int:
        return len(self._regions)
