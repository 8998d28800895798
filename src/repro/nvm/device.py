"""Non-volatile main-memory device: timing and fault sites over a buffer.

:class:`NVMDevice` binds a :class:`~repro.mem.buffer.PersistentBuffer`
(state, crash semantics) to an :class:`NVMTiming` cost model and a
simulation environment, and adds only what the buffer lacks: *timed*
operations as generators to ``yield from`` inside simulated processes,

* :meth:`copy_in` — CPU memcpy into NVM (the RPC server's staging copy);
* :meth:`persist` — CLWB over a range + SFENCE drain;

and the fault injection sites. Every other access — reads, writes,
crashes, corruption, whole-image snapshots and captures — goes to
:attr:`buffer` directly; its timing, where there is one, is charged by
the caller (e.g. inbound RDMA DMA, whose time lives in the fabric model).

Every persist boundary and atomic metadata store is a fault *injection
site*: :meth:`persist` fires ``nvm.persist``, :meth:`flush` fires
``nvm.flush`` (the state-level writeback used where timing is charged
by the caller), and :meth:`write_atomic64` fires ``nvm.store64``. These
sites carry the media-fault kinds (``nvm_bitrot``, ``nvm_torn_store``)
and double as the crash points the crash-point matrix
(:mod:`repro.harness.crashmatrix`) enumerates. Writebacks that are not
persist boundaries (the fabric's DDIO-off DMA landing, a crash's torn
DMA chunks) call ``buffer.flush`` and visit no site.

Default constants approximate Optane DC PMM behind a DDR bus and are
recorded (with their calibration rationale) in DESIGN.md §6.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mem.buffer import CACHELINE, PersistentBuffer
from repro.sim.kernel import Environment, Event

__all__ = ["NVMTiming", "NVMDevice"]


@dataclass(frozen=True)
class NVMTiming:
    """Latency model for NVM operations (nanoseconds).

    Attributes
    ----------
    store_ns:
        Fixed cost of a small CPU store + pipeline effects.
    copy_ns_per_byte:
        Marginal memcpy cost into NVM (single-thread NVM write bandwidth ~1.1 GB/s).
    read_ns_per_byte:
        Marginal media read cost (used for recovery scans).
    read_base_ns:
        Base media-read latency for a random read.
    flush_line_ns:
        Cost of issuing one CLWB.
    fence_ns:
        SFENCE drain: waiting for queued write-backs to reach the media
        power-fail domain.
    """

    store_ns: float = 15.0
    copy_ns_per_byte: float = 0.9
    read_ns_per_byte: float = 0.15
    read_base_ns: float = 170.0
    flush_line_ns: float = 20.0
    fence_ns: float = 150.0

    def __post_init__(self) -> None:
        for name in (
            "store_ns",
            "copy_ns_per_byte",
            "read_ns_per_byte",
            "read_base_ns",
            "flush_line_ns",
            "fence_ns",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"NVMTiming.{name} must be >= 0")

    # -- cost functions ------------------------------------------------------
    def copy_cost(self, nbytes: int) -> float:
        return self.store_ns + self.copy_ns_per_byte * nbytes

    def read_cost(self, nbytes: int) -> float:
        return self.read_base_ns + self.read_ns_per_byte * nbytes

    def flush_cost(self, nbytes: int) -> float:
        """Issue CLWBs over the whole range and drain with one fence."""
        lines = (nbytes + CACHELINE - 1) // CACHELINE
        return self.flush_line_ns * lines + self.fence_ns


class NVMDevice:
    """A simulated NVMM DIMM-set (see module docstring)."""

    __slots__ = ("env", "name", "timing", "buffer", "injector", "media_faults")

    def __init__(
        self,
        env: Environment,
        size: int,
        timing: NVMTiming | None = None,
        name: str = "nvm0",
    ) -> None:
        self.env = env
        self.name = name
        self.timing = timing or NVMTiming()
        self.buffer = PersistentBuffer(size)
        #: Armed fault injector (:mod:`repro.faults`), or None; the
        #: persist path checks this one attribute per flush.
        self.injector = None
        #: Media-fault events actually resolved against this device
        #: (bitrot flips + torn writebacks) — the denominator for the
        #: chaos harness's repair-outcome accounting.
        self.media_faults = 0

    def write_atomic64(self, addr: int, data: bytes) -> None:
        if self.injector is not None:
            self.injector.fire("nvm.store64")
        self.buffer.write_atomic64(addr, data)

    def flush(self, addr: int, length: int) -> int:
        """State-level writeback through the ``nvm.flush`` injection site.

        Timing is charged by the caller (paths that fold the CLWB+fence
        cost into their own timeouts); the site still exists so the
        crash matrix can pull the plug at, and media faults can target,
        every persist boundary — not just the timed :meth:`persist`.
        """
        if self.injector is not None:
            act = self.injector.fire("nvm.flush")
            if act is not None:
                return self._faulted_flush(act, addr, length)
        return self.buffer.flush(addr, length)

    # -- timed operations -----------------------------------------------------
    def copy_in(self, addr: int, data: bytes) -> Generator[Event, None, None]:
        """Timed CPU memcpy of ``data`` into NVM at ``addr``."""
        yield self.env.timeout(self.timing.copy_cost(len(data)))
        self.buffer.write(addr, data)

    def persist(self, addr: int, length: int) -> Generator[Event, None, int]:
        """Timed CLWB sweep + SFENCE; returns lines actually written back.

        The time charged covers issuing CLWB over the *whole* range
        (real code cannot skip clean lines it does not know about) plus
        one fence; the state transition only copies dirty lines.
        """
        cost = self.timing.flush_cost(length)
        act = None
        if self.injector is not None:
            act = self.injector.fire("nvm.persist")
            if act is not None and act.kind == "nvm_spike":
                # Media congestion / write-pressure throttling spike.
                cost = cost * act.factor + act.delay_ns
        yield self.env.timeout(cost)
        if act is not None and act.kind in ("nvm_bitrot", "nvm_torn_store"):
            return self._faulted_flush(act, addr, length)
        return self.buffer.flush(addr, length)

    def _faulted_flush(self, act, addr: int, length: int) -> int:
        """Resolve a media-fault action on one writeback."""
        rng = getattr(self.injector, "media_rng", None)
        if act.kind == "nvm_torn_store" and rng is not None:
            self.media_faults += 1
            return self.buffer.flush_torn(addr, length, rng)
        n = self.buffer.flush(addr, length)
        if act.kind == "nvm_bitrot" and rng is not None and length > 0:
            self.media_faults += 1
            off = int(rng.integers(length))
            self.buffer.corrupt(addr + off, "bitflip", rng=rng)
        return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NVMDevice {self.name} size={self.buffer.size}>"
