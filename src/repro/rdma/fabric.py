"""Fabric topology: nodes, connections, and crash orchestration.

A :class:`Node` is one machine: a NIC TX engine (bandwidth/message-rate
bound), a CPU resource (request-processing threads), an optional NVM
device, a protection domain of registered memory, and a shared receive
queue for two-sided deliveries.

The :class:`Fabric` wires nodes together, owns the
:class:`~repro.rdma.latency.FabricTiming` model, and tracks **in-flight
one-sided writes** so a crash can apply a partial, reordered subset of
a transfer's cachelines — the exact failure the paper's CRC/version-list
machinery exists to detect (data "in NIC caches, PCIe buffers, or CPU
caches, rather than in non-volatile memory", §3).
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from typing import Optional

import numpy as np

from repro.errors import QPError, SimulationError
from repro.mem.buffer import CACHELINE
from repro.nvm.device import NVMDevice
from repro.rdma.latency import FabricTiming
from repro.rdma.mr import MemoryRegion, ProtectionDomain
from repro.sim.kernel import Environment
from repro.sim.resources import FilterStore, Resource

__all__ = ["Node", "InflightWrite", "Fabric"]


class Node:
    """One machine on the fabric."""

    __slots__ = (
        "env", "name", "device", "alive", "tx", "cpu", "pd", "srq", "ddio",
        "tx_reserved_until", "tx_turns",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        device: Optional[NVMDevice] = None,
        cores: int = 1,
        ddio: bool = True,
    ) -> None:
        self.env = env
        self.name = name
        self.device = device
        self.alive = True
        #: Intel DDIO: inbound DMA lands in the LLC (volatile). With
        #: DDIO disabled, inbound RDMA writes go through the memory
        #: controller into the ADR power-fail domain — durable on
        #: arrival (the configuration study of Kashyap et al. the
        #: paper's §7 discusses).
        self.ddio = ddio
        #: NIC transmit engine: serialization occupancy bounds bandwidth.
        #: Held only by the walk (``fabric.fastpath = False``).
        self.tx = Resource(env, capacity=1)
        #: Analytic fast-path reservation on the TX engine: the engine is
        #: busy (without a simulated occupancy event) until this time.
        #: Queued turns honour it by their wake instants, and the walk by
        #: waiting out the remainder after acquiring ``tx``.
        self.tx_reserved_until = 0.0
        #: Claims queued on the fast path for the busy TX engine: a FIFO
        #: of the events their claimants yield (see :mod:`repro.rdma.qp`),
        #: created on the node's first turn.
        self.tx_turns: Optional[deque] = None
        #: Request-processing threads (RPC handlers contend here).
        self.cpu = Resource(env, capacity=cores)
        self.pd = ProtectionDomain()
        #: Two-sided deliveries (SRQ-style, shared across connections).
        self.srq = FilterStore(env)

    def register_memory(
        self, base: int, size: int, *, writable: bool = True, name: str = ""
    ) -> MemoryRegion:
        """Register a window of this node's device for remote access."""
        if self.device is None:
            raise SimulationError(f"node {self.name} has no memory device")
        return self.pd.register(
            self.device, base, size, writable=writable, name=name or f"{self.name}.mr"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Node {self.name}{'' if self.alive else ' DOWN'}>"


class InflightWrite:
    """A one-sided WRITE whose payload is between the initiator NIC and
    the target's memory."""

    __slots__ = ("uid", "target", "addr", "data", "t_start", "t_apply", "state")

    _uids = itertools.count(1)

    def __init__(
        self, target: Node, addr: int, data: bytes, t_start: float, t_apply: float
    ) -> None:
        self.uid = next(self._uids)
        self.target = target
        self.addr = addr
        self.data = data
        self.t_start = t_start
        self.t_apply = t_apply
        #: "flying" -> "applied" (made it) | "torn" (crashed mid-flight)
        self.state = "flying"

    def progress(self, now: float) -> float:
        """Fraction of the transfer elapsed at time ``now`` in [0, 1]."""
        span = self.t_apply - self.t_start
        if span <= 0:
            return 1.0
        return min(1.0, max(0.0, (now - self.t_start) / span))


class Fabric:
    """The switch + links connecting all nodes."""

    def __init__(
        self,
        env: Environment,
        timing: FabricTiming | None = None,
        jitter_ns: float = 60.0,
        jitter_seed: int = 0x5EED,
    ) -> None:
        self.env = env
        self.timing = timing or FabricTiming()
        self.nodes: list[Node] = []
        self._inflight: dict[int, InflightWrite] = {}
        #: Mean of the exponential per-WR latency jitter (0 disables).
        #: Models queueing/arbitration noise so tail percentiles are
        #: meaningful; deterministic given ``jitter_seed``.
        self.jitter_ns = jitter_ns
        self._jitter_rng = np.random.default_rng(jitter_seed)
        # Pre-drawn *standard* exponential samples, scaled by jitter_ns
        # at use time. Batch draws consume the generator's bit stream
        # exactly like repeated single draws, so the jitter sequence is
        # identical to the seed implementation — including under mid-run
        # jitter_ns changes (scale applies per call, not per draw).
        self._jitter_buf: np.ndarray = np.empty(0)
        self._jitter_idx = 0
        #: Armed fault injector (:mod:`repro.faults`), or None. Verb
        #: hooks check this one attribute, so an unarmed fabric costs
        #: nothing (the :mod:`repro.sim.trace` pattern).
        self.injector = None
        #: Take TX legs in closed form: idle claims and queued turns
        #: (:mod:`repro.rdma.qp`). Every experiment, fault harness
        #: included, runs with it set; clearing it selects the walk, the
        #: event-by-event reference the closed forms are held to. Change
        #: it only while every TX engine is idle.
        self.fastpath = True
        #: Verbs completed with every TX leg claimed idle / idle claims
        #: that found their engine busy and queued a turn instead.
        self.fastpath_ops = 0
        self.fallback_ops = 0
        #: Payload bytes -> how long one WR of that size occupies a TX
        #: engine (``nic_tx_occupancy_ns + timing.serialize_ns(nbytes)``),
        #: filled by the closed-form legs as sizes first occur.
        self.tx_busy_ns: dict[int, float] = {}
        #: Cross-client completion batcher
        #: (:class:`repro.rdma.batch.CompletionBatcher`), or None. When
        #: armed, fast-path verbs coalesce their completion wake-ups onto
        #: a shared time grid — one kernel event resumes every client
        #: whose completion lands in the same grid tick, at the price of
        #: an upward latency quantization < ``bucket_ns``. Default-off;
        #: only the open-loop load engine arms it.
        self.batcher = None

    def jitter(self) -> float:
        """One sample of per-work-request latency noise."""
        if self.jitter_ns <= 0:
            return 0.0
        i = self._jitter_idx
        buf = self._jitter_buf
        if i >= len(buf):
            buf = self._jitter_buf = self._jitter_rng.standard_exponential(1024)
            i = 0
        self._jitter_idx = i + 1
        return float(buf[i]) * self.jitter_ns

    def enable_completion_batching(self, bucket_ns: float = 128.0):
        """Arm cross-client completion batching (idempotent); returns the
        batcher so callers can read its counters."""
        if self.batcher is None:
            from repro.rdma.batch import CompletionBatcher

            self.batcher = CompletionBatcher(self.env, bucket_ns)
        return self.batcher

    # -- topology ------------------------------------------------------------
    def create_node(
        self,
        name: str,
        device: Optional[NVMDevice] = None,
        cores: int = 1,
        ddio: bool = True,
    ) -> Node:
        node = Node(self.env, name, device=device, cores=cores, ddio=ddio)
        self.nodes.append(node)
        return node

    def connect(self, initiator: Node, target: Node) -> "Endpoint":
        """Create a reliable connection; returns the initiator-side
        endpoint (its :attr:`~repro.rdma.qp.Endpoint.peer` is the
        target-side endpoint)."""
        from repro.rdma.qp import Endpoint  # cycle: qp imports fabric types

        a = Endpoint(self, initiator, target)
        b = Endpoint(self, target, initiator)
        a._peer = b
        b._peer_ref = weakref.ref(a)
        return a

    # -- in-flight write tracking ----------------------------------------------
    def register_inflight(
        self, target: Node, addr: int, data: bytes, apply_at: float, t_start: float
    ) -> InflightWrite:
        """Track a WRITE payload in flight from its wire-entry time
        ``t_start`` (in the future when the TX leg was claimed in closed
        form: the payload registers before the occupancy has elapsed)."""
        fl = InflightWrite(target, addr, data, t_start, apply_at)
        self._inflight[fl.uid] = fl
        return fl

    def apply_inflight(self, fl: InflightWrite) -> bool:
        """Complete a transfer: apply payload to target memory.

        Returns False when a crash already resolved this transfer (the
        initiator must treat the WR as flushed/errored).
        """
        self._inflight.pop(fl.uid, None)
        if fl.state != "flying":
            return False
        if not fl.target.alive:
            fl.state = "torn"
            return False
        assert fl.target.device is not None
        fl.target.device.buffer.write(fl.addr, fl.data)
        if not fl.target.ddio:
            # DDIO off: the DMA went through the memory controller into
            # the ADR domain — durable the moment it lands.
            fl.target.device.buffer.flush(fl.addr, len(fl.data))
        fl.state = "applied"
        return True

    def withdraw_unsent(self, *flights: InflightWrite) -> None:
        """Their verb was interrupted: a payload not on the wire yet is
        never sent (nor is an interrupted walk's); a sent one flies on."""
        for fl in flights:
            if fl.t_start > self.env.now:
                self._inflight.pop(fl.uid, None)

    def inflight_to(self, target: Node) -> tuple[tuple[int, bytes, float, float], ...]:
        """The WRITEs flying to ``target``, in the order :meth:`crash_node`
        meets them, as ``(addr, data, t_start, t_apply)`` — what
        :meth:`adopt_inflight` puts in flight on another fabric."""
        return tuple(
            (fl.addr, bytes(fl.data), fl.t_start, fl.t_apply)
            for fl in self._inflight.values()
            if fl.target is target and fl.state == "flying"
        )

    def adopt_inflight(
        self, target: Node, writes: tuple[tuple[int, bytes, float, float], ...]
    ) -> None:
        """Put another fabric's :meth:`inflight_to` in flight to ``target``
        here, after whatever already flies: a crash of ``target`` now tears
        them as it would have there. Nothing applies them otherwise."""
        for addr, data, t_start, t_apply in writes:
            self.register_inflight(target, addr, data, t_apply, t_start)

    def inflight_count(self, target: Optional[Node] = None) -> int:
        if target is None:
            return len(self._inflight)
        return sum(1 for fl in self._inflight.values() if fl.target is target)

    # -- crash -------------------------------------------------------------------
    def crash_node(
        self,
        node: Node,
        rng: np.random.Generator,
        evict_probability: float = 0.5,
        *,
        tear_words: bool = False,
    ) -> dict:
        """Power-fail ``node``: tear in-flight writes, then crash its device.

        Each in-flight write targeting the node lands a random *subset*
        of its cachelines, biased by transfer progress — NICs and PCIe
        may reorder, so the surviving subset is not a prefix. The
        device's own dirty lines are then resolved by natural-eviction
        coin flips (:meth:`repro.mem.buffer.PersistentBuffer.crash`);
        ``tear_words`` selects the word-granular crash model there.
        A write not on the wire yet (a closed-form TX leg registers it
        with ``t_start`` ahead) has no byte to leave: it keeps flying and
        costs no draw, as a walked leg would not have registered it.
        """
        if not node.alive:
            raise SimulationError(f"{node.name} already crashed")
        node.alive = False
        torn = 0
        now = self.env.now
        for fl in list(self._inflight.values()):
            if fl.target is not node or fl.state != "flying" or fl.t_start > now:
                continue
            frac = fl.progress(now)
            n = len(fl.data)
            n_chunks = (n + CACHELINE - 1) // CACHELINE
            landed = np.flatnonzero(rng.random(n_chunks) < frac)
            assert node.device is not None
            for chunk in landed:
                start = int(chunk) * CACHELINE
                end = min(start + CACHELINE, n)
                node.device.buffer.write(fl.addr + start, fl.data[start:end])
                if not node.ddio:
                    node.device.buffer.flush(fl.addr + start, end - start)
            fl.state = "torn"
            self._inflight.pop(fl.uid, None)
            torn += 1
        summary = {"torn_writes": torn}
        if node.device is not None:
            summary.update(
                node.device.buffer.crash(rng, evict_probability, tear_words=tear_words)
            )
        return summary

    def restart_node(self, node: Node) -> None:
        """Bring a crashed node back (fresh volatile state; recovery code
        then rebuilds from the durable image)."""
        if node.alive:
            raise SimulationError(f"{node.name} is not down")
        node.alive = True
        # Volatile receive state is gone.
        node.srq.items.clear()

    # -- helpers ---------------------------------------------------------------
    def check_target(self, node: Node) -> None:
        if not node.alive:
            raise QPError(f"target node {node.name} is down", code="target_down")
