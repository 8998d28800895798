"""Completion queues and asynchronous work-request posting.

The blocking verb methods on :class:`~repro.rdma.qp.Endpoint` model a
client that waits out each operation — fine for closed-loop workloads.
Real RDMA applications *post* work requests and harvest completions
from a CQ later, keeping many WRs in flight; this module adds that
layer:

    cq = CompletionQueue(env)
    ep.post_write(cq, rkey, offset, data, wr_id=1)
    ep.post_read(cq, rkey, offset, length, wr_id=2)
    completions = yield from cq.wait(2)      # or cq.poll() to spin

Posted WRs from one endpoint enter the TX engine in post order (the
engine is a FIFO resource), so ordering matches an RC queue pair.
Failed WRs (flushed by a target crash, protection errors) complete with
``ok=False`` and the exception in ``result`` — they never blow up the
posting process, exactly like error CQEs.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.errors import MemoryAccessError, RDMAError
from repro.rdma.qp import Endpoint
from repro.rdma.verbs import Opcode, WorkCompletion, next_wr_id
from repro.sim.kernel import Environment, Event
from repro.sim.resources import Store

__all__ = ["CompletionQueue", "post_write", "post_read"]


class CompletionQueue:
    """Collects :class:`WorkCompletion` records from posted WRs."""

    __slots__ = ("env", "_store", "outstanding", "completed")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._store = Store(env)
        #: WRs posted but not yet completed.
        self.outstanding = 0
        #: Total completions ever delivered.
        self.completed = 0

    def _push(self, wc: WorkCompletion) -> None:
        self.outstanding -= 1
        self.completed += 1
        self._store.put_nowait(wc)  # CQ store is unbounded: never fails

    def poll(self, max_n: int = 16) -> list[WorkCompletion]:
        """Non-blocking harvest of up to ``max_n`` completions."""
        out: list[WorkCompletion] = []
        while len(out) < max_n:
            ok, wc = self._store.try_get()
            if not ok:
                break
            out.append(wc)
        return out

    def wait(self, n: int = 1) -> Generator[Event, Any, list[WorkCompletion]]:
        """Block until ``n`` completions are available; returns them."""
        out: list[WorkCompletion] = []
        for _ in range(n):
            wc = yield self._store.get()
            out.append(wc)
        return out

    def __len__(self) -> int:
        return len(self._store)


def _driver(
    ep: Endpoint,
    cq: CompletionQueue,
    wr_id: int,
    opcode: Opcode,
    op_gen,
) -> Generator[Event, Any, None]:
    env = ep.local.env
    try:
        result = yield from op_gen
    except (RDMAError, MemoryAccessError) as exc:
        cq._push(
            WorkCompletion(
                wr_id, opcode, ok=False, result=exc, completed_at=env.now
            )
        )
        return
    if isinstance(result, WorkCompletion):
        result.wr_id = wr_id
        result.completed_at = env.now
        cq._push(result)
    else:
        cq._push(
            WorkCompletion(wr_id, opcode, result=result, completed_at=env.now)
        )


def post_write(
    ep: Endpoint,
    cq: CompletionQueue,
    rkey: int,
    offset: int,
    data: bytes,
    wr_id: Optional[int] = None,
) -> int:
    """Post a one-sided WRITE; its completion lands on ``cq``."""
    wr_id = wr_id if wr_id is not None else next_wr_id()
    cq.outstanding += 1
    # Uncontended WRs complete analytically via scheduled callbacks
    # (same nanoseconds, no driver process); anything else — armed
    # injector, busy engine, QP error, validation failure — runs
    # Endpoint.write in a driver process below.
    if ep.write_async(cq, rkey, offset, data, wr_id):
        return wr_id
    ep.local.env.process(
        _driver(ep, cq, wr_id, Opcode.WRITE, ep.write(rkey, offset, data)),
        name=f"wr{wr_id}",
    )
    return wr_id


def post_read(
    ep: Endpoint,
    cq: CompletionQueue,
    rkey: int,
    offset: int,
    length: int,
    wr_id: Optional[int] = None,
) -> int:
    """Post a one-sided READ; ``wc.result`` carries the bytes."""
    wr_id = wr_id if wr_id is not None else next_wr_id()
    cq.outstanding += 1
    ep.local.env.process(
        _driver(ep, cq, wr_id, Opcode.READ, ep.read(rkey, offset, length)),
        name=f"rd{wr_id}",
    )
    return wr_id
