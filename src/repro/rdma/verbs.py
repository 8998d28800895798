"""Verb/work-request vocabulary shared across the fabric model."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Opcode", "Message", "WorkCompletion", "next_wr_id"]

_wr_counter = itertools.count(1)


def next_wr_id() -> int:
    """Monotonic work-request id (diagnostics and in-flight tracking)."""
    return next(_wr_counter)


class Opcode(enum.Enum):
    """RDMA operation kinds modelled by the fabric."""

    SEND = "send"
    RECV = "recv"
    WRITE = "write"
    WRITE_WITH_IMM = "write_with_imm"
    READ = "read"
    CAS = "cas"
    FAA = "faa"


@dataclass(slots=True)
class Message:
    """A two-sided delivery (SEND or the notification half of
    WRITE_WITH_IMM) as seen by the receiving application.

    ``payload`` is an arbitrary Python object — the simulation models the
    *size* of what crosses the wire explicitly via ``wire_bytes`` rather
    than literally serialising; this keeps handlers readable while the
    timing stays honest.
    """

    opcode: Opcode
    payload: Any
    wire_bytes: int
    imm: Optional[int] = None
    #: Endpoint the receiver can use to reply (the peer's endpoint).
    reply_to: Any = None
    #: Correlation id for RPC request/response matching.
    req_id: int = field(default_factory=next_wr_id)
    #: For responses: the req_id of the request being answered.
    in_reply_to: Optional[int] = None
    #: Simulated arrival time (set by the fabric).
    arrived_at: float = 0.0


@dataclass(slots=True)
class WorkCompletion:
    """Completion record returned to the initiator of a verb."""

    wr_id: int
    opcode: Opcode
    ok: bool = True
    #: READ: bytes fetched. CAS/FAA: prior 8-byte value.
    result: Any = None
    completed_at: float = 0.0
