"""Queue-pair endpoints: the verb API used by clients and servers.

An :class:`Endpoint` is one side of a reliable connection. Its verb
methods are generators designed for ``yield from`` composition inside
simulated processes::

    data = yield from ep.read(rkey, offset, 4096)
    yield from ep.write(rkey, offset, payload)
    rid  = yield from ep.send({"op": "put"}, wire_bytes=64)
    msg  = yield from ep.recv_response(rid)

One description per verb, two ways to take a leg (see DESIGN.md §11)
---------------------------------------------------------------------
Every verb is one straight-line generator that states, once: its
prologue (QP usable → fault injection → target and MR validation →
stats), its TX leg, the delay to its remote-side instant with the side
effect that happens there, and its ACK leg (terms: :mod:`repro.rdma.latency`):

* ``write``  — TX leg → propagation + target DMA (into DDIO/LLC, i.e.
  *volatile*; until then the payload is tracked in flight for crash
  tearing) → ACK (propagation + nic_rx).
* ``read``   — request TX leg → propagation + DMA, the target NIC
  snapshots memory → response TX leg on the *target's* engine →
  propagation + nic_rx.
* ``send``   — TX leg → propagation + nic_rx + target recv processing
  (``two_sided_rx_cost``) → delivered to the target node's SRQ.
* ``write_with_imm`` — ``write`` whose arrival also consumes a recv WQE
  and delivers an imm-tagged message (the server notices immediately —
  the property IMM-style durability relies on).
* ``cas``/``faa`` — 8-byte target-NIC read-modify-write.
* ``write_many`` — ``write`` of a doorbell chain: one TX leg, one ACK.

How a leg is simulated is decided in the leg primitives, not in the
verbs. The TX leg passes a WR through a TX engine and yields the instant
it enters the wire, in closed form — fault harnesses and armed
injectors included — in one of two modes:

* **idle claim** (:meth:`Endpoint._claim_tx`) — on an idle engine the
  leg is taken at once (:meth:`Endpoint._reserve_tx`: the engine
  reserved via ``Node.tx_reserved_until``, same terms, same ``jitter()``
  draw). No event; the leg is *analytic*.
* **queued turn** (:meth:`Endpoint._tx_leg`) — a claim on a busy engine
  joins the node's FIFO of turns (``Node.tx_turns``). It is woken once,
  when the walk would start serving it, takes the leg in the same closed
  form and hands the engine on when its occupancy ends: one event, where
  the walk costs three or four plus one per doorbell-chained WR.

The **walk** (:meth:`Endpoint._tx_walk`, every step an event while
holding ``Node.tx``) is only the reference the closed forms are held
to: ``fabric.fastpath = False`` selects it, while every engine is idle.
READ decides again for its response leg, at arrival time. Every instant
accumulates in the walk's float association order and every jitter draw
happens at the instant the walk makes it, so a verb completes at
bit-identical times whichever mode took its legs. A closed-form leg
registers a WRITE in flight before it reaches the wire: a crash leaves
it alone (:meth:`Fabric.crash_node`) and an interrupted verb withdraws
it (:meth:`Fabric.withdraw_unsent`), as the walk has not sent it yet.

**Grid rule.** With a completion batcher armed, the waits of an analytic
READ, WRITE, CAS, FAA or SEND ride its grid (one kernel event per tick
for every client); ``write_many``, ``write_with_imm`` and posted writes
(:meth:`Endpoint.write_async`) always wait exactly, as does any verb
whose TX leg was not claimed idle.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Callable, Generator, Sequence
from functools import partial
from typing import Any, Optional

from repro.errors import MemoryAccessError, QPError
from repro.rdma.fabric import Fabric, InflightWrite, Node
from repro.rdma.verbs import Message, Opcode, WorkCompletion, next_wr_id
from repro.sim.kernel import Event, Interrupt

__all__ = ["Endpoint"]

# Pre-resolved stats keys (the per-op `.value` attribute lookups on the
# Opcode enum showed up in profiles).
_OP_WRITE = Opcode.WRITE.value
_OP_READ = Opcode.READ.value
_OP_CAS = Opcode.CAS.value
_OP_FAA = Opcode.FAA.value
_OP_SEND = Opcode.SEND.value
_OP_WRITE_IMM = Opcode.WRITE_WITH_IMM.value


def _call_at(env, when: float, callback: Callable[[Event], None]) -> None:
    """Run ``callback`` at absolute time ``when`` without a process."""
    ev = Event(env)
    ev._value = None
    ev.callbacks.append(callback)
    env.schedule_at(ev, when)


# -- the line of turns at a busy TX engine (Node.tx_turns) -----------------------
# An entry is the event its claimant yields. Only the head's is scheduled:
# its wake is the walk's grant, reservation wait included.


def _join_turns(node: Node) -> Event:
    """Queue a claim for ``node``'s busy engine; returns the event the
    claimant yields. The first in line is woken when the engine frees, at
    exactly ``tx_reserved_until``; the rest when their predecessor hands
    the engine on."""
    turns = node.tx_turns
    if turns is None:
        turns = node.tx_turns = deque()
    ev = Event(node.env)
    turns.append(ev)
    if len(turns) == 1:
        _wake_turn(node, ev, node.tx_reserved_until)
    else:
        ev.on_abandon = partial(turns.remove, ev)
    return ev


def _wake_turn(node: Node, ev: Event, when: float) -> None:
    """Make ``ev`` the head of the line, woken at ``when``, the instant the
    engine frees."""
    ev._value = None
    node.env.schedule_at(ev, when)
    ev.on_abandon = partial(_leave_line, node, when)


def _pass_turn(node: Node, ev: Event) -> None:
    """The head's claimant has taken its leg: ``ev`` leaves the line and
    the next turn is woken when the engine frees, at the end of this WR's
    occupancy."""
    ev.on_abandon = None
    turns = node.tx_turns
    turns.popleft()
    if turns:
        _wake_turn(node, turns[0], node.tx_reserved_until)


def _leave_line(node: Node, when: float) -> None:
    """The head's claimant was interrupted before its wake at ``when``: it
    leaves the line, and the next turn is woken in its place, at ``when``,
    as the walk grants the engine at the instant it frees."""
    turns = node.tx_turns
    turns.popleft()
    if turns:
        _wake_turn(node, turns[0], when)


class Endpoint:
    """One side of a reliable connection (see module docstring)."""

    __slots__ = (
        "fabric", "local", "remote", "_peer", "_peer_ref", "stats", "_error",
        "fastpath_ops", "__weakref__",
    )

    def __init__(self, fabric: Fabric, local: Node, remote: Node) -> None:
        self.fabric = fabric
        self.local = local
        self.remote = remote
        # The opposite endpoint (set by Fabric.connect): the initiator
        # side owns the target side (_peer); the target side only refers
        # back (_peer_ref), so a dropped connection is freed by refcount
        # — with it the node, its device and the NVM image — rather than
        # waiting for the cycle collector.
        self._peer: Optional["Endpoint"] = None
        self._peer_ref: Optional["weakref.ref[Endpoint]"] = None
        #: Per-opcode counters.
        self.stats: dict[str, int] = {}
        #: Verbs this endpoint completed via the analytic fast path.
        self.fastpath_ops = 0
        #: True while the QP sits in the error state (after an injected
        #: qp_error / completion_drop fault): every verb fails until
        #: :meth:`reset` re-establishes the connection.
        self._error = False

    @property
    def peer(self) -> Optional["Endpoint"]:
        """The opposite endpoint (``None`` before :meth:`Fabric.connect`,
        and on the target side once the initiator side is gone)."""
        ref = self._peer_ref
        return self._peer if ref is None else ref()

    # -- QP state (fault injection / resilience) ----------------------------
    @property
    def in_error(self) -> bool:
        return self._error

    def reset(self) -> None:
        """Re-establish the connection: both directions leave the error
        state (models tearing down the QP pair and reconnecting)."""
        self._error = False
        peer = self.peer
        if peer is not None:
            peer._error = False

    def _check_usable(self) -> None:
        if self._error:
            raise QPError(
                f"QP {self.local.name}->{self.remote.name} is in the error state",
                code="qp_error",
            )

    def _inject(self, site: str) -> Generator[Event, Any, None]:
        """Fault-injection point at the head of every verb. Only called
        when an injector is armed; an empty plan yields nothing, so
        timings are untouched."""
        inj = self.fabric.injector
        act = inj.fire(site, partition=inj.pop_context_partition())
        if act is None:
            return
        env = self.local.env
        if act.kind == "completion_delay":
            yield env.timeout(act.delay_ns)
        elif act.kind == "qp_error":
            self._error = True
            raise QPError(
                f"QP {self.local.name}->{self.remote.name} transitioned to "
                f"error state (injected: {act.rule})",
                code="qp_error",
            )
        elif act.kind == "completion_drop":
            # The WR is lost; the initiator spends the detection time in
            # transport retries before the QP gives up and errors out.
            if act.delay_ns > 0:
                yield env.timeout(act.delay_ns)
            self._error = True
            raise QPError(
                f"completion lost on {self.local.name}->{self.remote.name} "
                f"(injected: {act.rule})",
                code="completion_lost",
            )

    def _bump(self, key: str) -> None:
        stats = self.stats
        stats[key] = stats.get(key, 0) + 1

    def _fast_done(self) -> None:
        self.fastpath_ops += 1
        self.fabric.fastpath_ops += 1

    # -- the leg primitives ------------------------------------------------
    def _tx_idle(self, node: Node) -> bool:
        """True when nobody holds, awaits or is queued for ``node``'s TX
        engine and no reservation on it is outstanding."""
        tx = node.tx
        return not (
            tx._users
            or tx._waiting
            or node.tx_turns
            or node.tx_reserved_until > node.env.now
        )

    def _claim_tx(
        self, node: Node, nbytes: int, fast: bool, chain: Sequence[int] = ()
    ) -> Optional[float]:
        """The TX leg of one WR of ``nbytes``, claimed idle: returns the
        instant the WR enters the wire (:meth:`_reserve_tx`). Returns
        None — the caller must :meth:`_tx_leg` — unless ``fast`` and the
        engine is idle; a busy engine counts ``fabric.fallback_ops``."""
        if not fast:
            return None
        if not self._tx_idle(node):
            self.fabric.fallback_ops += 1
            return None
        return self._reserve_tx(node, nbytes, chain)

    def _reserve_tx(self, node: Node, nbytes: int, chain: Sequence[int]) -> float:
        """Take ``node``'s engine from now in closed form: reserve it and
        return the instant the WR enters the wire.

        The engine is *occupied* for ``nic_tx_occupancy_ns`` plus the
        payload serialization (this bounds message rate and bandwidth);
        the remaining per-WR processing latency is pipelined and charged
        without holding the engine. ``chain`` holds the payload sizes of
        further WRs behind the same doorbell: the doorbell/WQE-fetch
        latency and the jitter are paid once, on the first WR; later
        ones pay the (much smaller) per-WQE decode cost.
        """
        fabric = self.fabric
        t = fabric.timing
        t_wire = node.env.now + (
            t.nic_tx_occupancy_ns + t.serialize_ns(nbytes) + fabric.jitter()
        )
        for n in chain:
            t_wire = t_wire + (t.doorbell_wr_ns + t.serialize_ns(n))
        node.tx_reserved_until = t_wire
        pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
        if pipelined > 0:
            t_wire = t_wire + pipelined
        return t_wire

    def _tx_leg(
        self, node: Node, nbytes: int, chain: Sequence[int] = ()
    ) -> Generator[Event, Any, float]:
        """A TX leg that was not claimed idle: a queued turn — or, on an
        idle engine (READ's response after a queued request leg), the
        closed form at once. With ``fabric.fastpath`` off, the walk."""
        if not self.fabric.fastpath:
            return (yield from self._tx_walk(node, nbytes, chain))
        if node.tx_turns or node.tx_reserved_until > node.env.now:
            turn = _join_turns(node)
            yield turn
            t_wire = self._reserve_tx(node, nbytes, chain)
            _pass_turn(node, turn)
            return t_wire
        return self._reserve_tx(node, nbytes, chain)

    def _tx_walk(
        self, node: Node, nbytes: int, chain: Sequence[int] = ()
    ) -> Generator[Event, Any, float]:
        """The TX leg event by event: the terms of :meth:`_reserve_tx` as
        sequential timeouts while holding the engine."""
        fabric = self.fabric
        t = fabric.timing
        env = node.env
        req = yield from node.tx.acquire()
        try:
            # Wait out a closed-form reservation (it does not hold the
            # Resource) to the instant it ends; jitter is drawn then, when
            # the engine starts serving this WR.
            if node.tx_reserved_until > env.now:
                yield env.timeout_at(node.tx_reserved_until)
            yield env.timeout(
                t.nic_tx_occupancy_ns + t.serialize_ns(nbytes) + fabric.jitter()
            )
            for n in chain:
                yield env.timeout(t.doorbell_wr_ns + t.serialize_ns(n))
        finally:
            node.tx.release(req)
        pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
        if pipelined > 0:
            yield env.timeout(pipelined)
        return env.now

    def _wait(self, when: float, on_grid: bool) -> Event:
        """The event a verb yields to resume at absolute time ``when``:
        on the completion batcher's grid when ``on_grid`` and a batcher
        is armed (grid rule: module docstring), else at exactly ``when``."""
        batcher = self.fabric.batcher
        if on_grid and batcher is not None:
            return batcher.wait_until(when)
        return self.local.env.timeout_at(when)

    # -- WRITE payloads in flight -------------------------------------------
    def _fly(self, addr: int, data: bytes, t_wire: float) -> InflightWrite:
        """Track a WRITE payload from its wire-entry time until the
        target DMA: a crash in between lands a torn subset of it."""
        t = self.fabric.timing
        return self.fabric.register_inflight(
            self.remote, addr, data,
            apply_at=t_wire + t.propagation_ns + t.dma_ns,
            t_start=t_wire,
        )

    def _land(self, fl: InflightWrite, what: str) -> None:
        """Target DMA of an in-flight payload; a transfer that a crash
        already resolved errors the WR instead."""
        if not self.fabric.apply_inflight(fl):
            raise QPError(
                f"{what} to {self.remote.name} flushed (target down)",
                code="target_down",
            )

    # -- one-sided verbs ------------------------------------------------------
    def write(
        self, rkey: int, offset: int, data: bytes | bytearray | memoryview
    ) -> Generator[Event, Any, WorkCompletion]:
        """One-sided RDMA WRITE; completes when the ACK returns.

        On completion the payload is *visible* at the target but NOT
        durable (DDIO lands it in the LLC) — the central hazard of §3.
        """
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.write")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        data = bytes(data)
        addr = mr.check(offset, len(data), write=True)
        wr_id = next_wr_id()
        self._bump(_OP_WRITE)

        t_wire = self._claim_tx(self.local, len(data), fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, len(data))
        fl = self._fly(addr, data, t_wire)
        try:
            yield self._wait(t_wire + (t.propagation_ns + t.dma_ns), analytic)
        except Interrupt:
            fabric.withdraw_unsent(fl)
            raise
        self._land(fl, "WRITE")
        yield self._wait(env.now + (t.propagation_ns + t.nic_rx_ns), analytic)
        if analytic:
            self._fast_done()
        return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)

    def write_async(self, cq, rkey: int, offset: int, data, wr_id: int) -> bool:
        """A *posted* WRITE without a driver process: the legs of
        :meth:`write` as two scheduled callbacks, completing on ``cq``.

        Returns False (with no side effects) when the TX leg cannot be
        analytic, an injector is armed (its rule indices count visits to
        ``qp.write``) or validation would raise; the caller then drives
        :meth:`write` itself from a process (an exception is captured in
        an ``ok=False`` CQE).
        """
        fabric = self.fabric
        if (
            self._error
            or not fabric.fastpath
            or fabric.injector is not None
            or not self._tx_idle(self.local)
            or not self.remote.alive
        ):
            return False
        try:
            mr = self.remote.pd.lookup(rkey)
            payload = bytes(data)
            addr = mr.check(offset, len(payload), write=True)
        except (MemoryAccessError, TypeError):
            # bad rkey/range (ProtectionError et al.) or an un-bytes-able
            # payload: fall back to the slow path, which raises properly
            return False
        env = self.local.env
        t = fabric.timing
        self._bump(_OP_WRITE)
        t_wire = self._claim_tx(self.local, len(payload), True)
        fl = self._fly(addr, payload, t_wire)

        def at_apply(_ev: Event) -> None:
            try:
                self._land(fl, "WRITE")
            except QPError as exc:
                cq._push(
                    WorkCompletion(
                        wr_id, Opcode.WRITE, ok=False, result=exc, completed_at=env.now
                    )
                )
                return
            _call_at(env, env.now + (t.propagation_ns + t.nic_rx_ns), at_ack)

        def at_ack(_ev: Event) -> None:
            self._fast_done()
            cq._push(WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now))

        _call_at(env, t_wire + (t.propagation_ns + t.dma_ns), at_apply)
        return True

    def write_many(
        self, writes: "list[tuple[int, int, bytes | bytearray | memoryview]]"
    ) -> Generator[Event, Any, WorkCompletion]:
        """Doorbell-batched one-sided WRITEs with selective signaling.

        ``writes`` is a list of ``(rkey, offset, data)`` work requests
        posted as one chain: a single MMIO doorbell rings the NIC, the
        WQEs are fetched in one go, and only the *last* WR is signaled —
        so the per-WR initiator latency (``nic_tx_ns``) and the
        completion path (ACK propagation + ``nic_rx_ns``) are paid once
        per batch instead of once per WRITE. Each WR still occupies the
        TX engine for its serialization time (bandwidth is conserved)
        and every payload is tracked in-flight for crash tearing,
        exactly like :meth:`write`.

        Completes when the final WR's ACK returns. A batch of one is
        timing-identical to a plain :meth:`write`.
        """
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if not writes:
            raise QPError("write_many needs at least one work request")
        if fabric.injector is not None:
            yield from self._inject("qp.write_many")
        fabric.check_target(self.remote)
        # Validate the whole chain before posting anything: a doorbell
        # batch is all-or-nothing at the WQE level.
        pinned = []
        for rkey, offset, data in writes:
            mr = self.remote.pd.lookup(rkey)
            data = bytes(data)
            pinned.append((mr.check(offset, len(data), write=True), data))
        wr_id = next_wr_id()
        for _ in writes:
            self._bump(_OP_WRITE)
        self._bump("doorbell_batches")

        first, *chain = [len(data) for _addr, data in pinned]
        t_wire = self._claim_tx(self.local, first, fabric.fastpath, chain)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, first, chain)
        inflight = [self._fly(addr, data, t_wire) for addr, data in pinned]
        try:
            yield env.timeout_at(t_wire + (t.propagation_ns + t.dma_ns))
        except Interrupt:
            fabric.withdraw_unsent(*inflight)
            raise
        for fl in inflight:
            self._land(fl, "doorbell WRITE")
        # Selective signaling: one ACK/CQE for the whole chain.
        yield env.timeout_at(env.now + (t.propagation_ns + t.nic_rx_ns))
        if analytic:
            self._fast_done()
        return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)

    def read(
        self, rkey: int, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """One-sided RDMA READ; returns the bytes (visible image)."""
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.read")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, length, write=False)
        self._bump(_OP_READ)

        # Request leg: header-only WR through the local engine.
        t_wire = self._claim_tx(self.local, 0, fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, 0)
        yield self._wait(t_wire + (t.propagation_ns + t.dma_ns), analytic)
        fabric.check_target(self.remote)
        # Target NIC snapshots memory now, then streams the response.
        data = mr.device.read(addr, length)
        # Response leg: claimed at arrival time (never in advance, so
        # FIFO order on the remote engine is preserved); a busy engine
        # takes the rest of the verb off the analytic path.
        t_wire = self._claim_tx(self.remote, length, analytic)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.remote, length)
        yield self._wait(t_wire + (t.propagation_ns + t.nic_rx_ns), analytic)
        if analytic:
            self._fast_done()
        return data

    def cas(
        self, rkey: int, offset: int, expected: bytes, desired: bytes
    ) -> Generator[Event, Any, bytes]:
        """8-byte compare-and-swap at the target; returns the old value."""
        if len(expected) != 8 or len(desired) != 8:
            raise QPError("CAS operands must be 8 bytes")
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.cas")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, 8, write=True)
        self._bump(_OP_CAS)

        t_wire = self._claim_tx(self.local, 16, fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, 16)
        yield self._wait(
            t_wire + (t.propagation_ns + t.dma_ns + t.atomic_extra_ns), analytic
        )
        fabric.check_target(self.remote)
        old = mr.device.read(addr, 8)
        if old == expected:
            mr.device.write_atomic64(addr, desired)
        yield self._wait(env.now + (t.propagation_ns + t.nic_rx_ns), analytic)
        if analytic:
            self._fast_done()
        return old

    def faa(
        self, rkey: int, offset: int, delta: int
    ) -> Generator[Event, Any, int]:
        """8-byte fetch-and-add; returns the prior value."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.faa")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, 8, write=True)
        self._bump(_OP_FAA)

        t_wire = self._claim_tx(self.local, 16, fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, 16)
        yield self._wait(
            t_wire + (t.propagation_ns + t.dma_ns + t.atomic_extra_ns), analytic
        )
        fabric.check_target(self.remote)
        old = int.from_bytes(mr.device.read(addr, 8), "little")
        new = (old + delta) & 0xFFFFFFFFFFFFFFFF
        mr.device.write_atomic64(addr, new.to_bytes(8, "little"))
        yield self._wait(env.now + (t.propagation_ns + t.nic_rx_ns), analytic)
        if analytic:
            self._fast_done()
        return old

    # -- two-sided verbs ----------------------------------------------------------
    def send(
        self,
        payload: Any,
        wire_bytes: int,
        *,
        imm: Optional[int] = None,
        in_reply_to: Optional[int] = None,
    ) -> Generator[Event, Any, int]:
        """SEND a message; returns its req_id once delivered to the
        target's receive queue."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.send")
        fabric.check_target(self.remote)
        self._bump(_OP_SEND)

        t_wire = self._claim_tx(self.local, wire_bytes, fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, wire_bytes)
        yield self._wait(
            t_wire
            + (t.propagation_ns + t.nic_rx_ns + t.two_sided_rx_cost(wire_bytes)),
            analytic,
        )
        fabric.check_target(self.remote)
        msg = Message(
            Opcode.SEND,
            payload,
            wire_bytes,
            imm=imm,
            reply_to=self.peer,
            in_reply_to=in_reply_to,
            arrived_at=env.now,
        )
        self.remote.srq.put(msg)
        if analytic:
            self._fast_done()
        return msg.req_id

    def write_with_imm(
        self,
        rkey: int,
        offset: int,
        data: bytes | bytearray | memoryview,
        imm: int,
        payload: Any = None,
    ) -> Generator[Event, Any, WorkCompletion]:
        """RDMA WRITE_WITH_IMM: data lands like a WRITE *and* the target
        application is notified immediately with ``imm``."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.write_imm")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        data = bytes(data)
        addr = mr.check(offset, len(data), write=True)
        wr_id = next_wr_id()
        self._bump(_OP_WRITE_IMM)

        t_wire = self._claim_tx(self.local, len(data), fabric.fastpath)
        analytic = t_wire is not None
        if not analytic:
            t_wire = yield from self._tx_leg(self.local, len(data))
        fl = self._fly(addr, data, t_wire)
        # imm notification only; data went one-sided
        try:
            yield env.timeout_at(
                t_wire + (t.propagation_ns + t.dma_ns + t.two_sided_rx_ns)
            )
        except Interrupt:
            fabric.withdraw_unsent(fl)
            raise
        self._land(fl, "WRITE_WITH_IMM")
        msg = Message(
            Opcode.WRITE_WITH_IMM,
            payload,
            len(data),
            imm=imm,
            reply_to=self.peer,
            arrived_at=env.now,
        )
        self.remote.srq.put(msg)
        yield env.timeout_at(env.now + (t.propagation_ns + t.nic_rx_ns))
        if analytic:
            self._fast_done()
        return WorkCompletion(wr_id, Opcode.WRITE_WITH_IMM, completed_at=env.now)

    # -- receive helpers --------------------------------------------------------
    def recv_response(self, req_id: int) -> Generator[Event, Any, Message]:
        """Wait for the response to a request this endpoint sent."""
        msg = yield self.local.srq.get(lambda m: m.in_reply_to == req_id)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Endpoint {self.local.name}->{self.remote.name}>"
