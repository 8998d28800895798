"""SEND-based RPC on top of the verb layer.

The paper's "SEND-based RPC" (§5.3.1): the client SENDs a request, the
server's polling thread dispatches it to a handler, and the handler
SENDs a response. :class:`RpcClient` packages the request/response
matching; :class:`RpcServer` provides the dispatch loop used by every
store server in this library (handlers contend for the node's CPU
resource, which is what saturates RPC-bound designs in Fig 10).

Handler lifecycle: the loop starts each handler with
:meth:`Environment.spawn`, so its first step runs inside the loop's own
step, with no ``Initialize`` event. A handler takes a free core with
:meth:`Resource.try_acquire` and no grant event; only a contended CPU
queues FIFO on a ``Request``. A handler that returns is marked processed
without a completion event. Every event left is a step the model times.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Callable, Optional

from repro.errors import QPError, StoreError
from repro.rdma.qp import Endpoint
from repro.rdma.verbs import Message
from repro.sim.kernel import Environment, Event, Interrupt, Process

__all__ = [
    "RpcClient",
    "RpcServer",
    "rpc_error",
    "rpc_error_for",
    "RpcFault",
    "ERR_NOT_FOUND",
    "ERR_POOL_EXHAUSTED",
    "ERR_NO_INTACT",
    "ERR_UNKNOWN_ALLOC",
    "ERR_STORE",
    "ERR_UNKNOWN",
    "ERR_REPL_LAG",
    "ERR_FENCED",
    "ERR_BUSY",
    "RETRYABLE_CODES",
]

#: Structured error codes carried in RPC error responses, so clients can
#: distinguish faults worth retrying from fatal protocol errors without
#: parsing messages.
ERR_NOT_FOUND = "not_found"
ERR_POOL_EXHAUSTED = "pool_exhausted"
ERR_NO_INTACT = "no_intact_version"
ERR_UNKNOWN_ALLOC = "unknown_alloc"
ERR_STORE = "store_error"
ERR_UNKNOWN = "unknown"
#: Replication watermark has not covered the requested record yet: the
#: log shipper is behind, the same wait will succeed once it catches up.
ERR_REPL_LAG = "replication_lag"
#: The partition is write-fenced (draining for migration). NOT
#: retryable on the same node: the client must refresh its route and
#: resend to the new owner.
ERR_FENCED = "write_fenced"
#: Admission control shed this request: the partition's queue depth is
#: over its watermark. Retryable — the client's backoff *is* the
#: congestion-control loop (see DESIGN.md §15).
ERR_BUSY = "server_busy"

#: Codes that describe *transient* server-side conditions: the same
#: request may succeed after cleaning/verification catches up.
RETRYABLE_CODES = frozenset(
    {ERR_POOL_EXHAUSTED, ERR_NO_INTACT, ERR_REPL_LAG, ERR_BUSY}
)


class RpcFault(StoreError):
    """A handler returned an error response.

    Attributes
    ----------
    code:
        Structured error code (one of the ``ERR_*`` constants, or
        whatever the handler put in the payload's ``"code"`` field).
    op:
        The ``op`` field of the originating request, when known.
    """

    def __init__(
        self, message: str = "", *, code: str = ERR_UNKNOWN, op: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.code = code
        self.op = op

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES


def rpc_error(message: str, code: str = ERR_STORE, **extra: Any) -> dict:
    """Build an error response payload with a structured ``code``."""
    return {"error": message, "code": code, **extra}


def rpc_error_for(exc: StoreError, **extra: Any) -> dict:
    """Build an error payload whose code reflects the exception class."""
    from repro.errors import CorruptObjectError, KeyNotFoundError, PoolExhaustedError

    if isinstance(exc, PoolExhaustedError):
        code = ERR_POOL_EXHAUSTED
    elif isinstance(exc, KeyNotFoundError):
        code = ERR_NOT_FOUND
    elif isinstance(exc, CorruptObjectError):
        code = ERR_NO_INTACT
    else:
        code = ERR_STORE
    return rpc_error(str(exc), code=code, **extra)


class RpcClient:
    """Client side of SEND-based RPC over one endpoint."""

    __slots__ = ("ep",)

    def __init__(self, ep: Endpoint) -> None:
        self.ep = ep

    def call(
        self, payload: dict, request_bytes: int
    ) -> Generator[Event, Any, Any]:
        """Issue a request and wait for the matching response payload.

        Raises :class:`RpcFault` if the handler responded with an error.
        """
        rid = yield from self.ep.send(payload, request_bytes)
        msg = yield from self.ep.recv_response(rid)
        resp = msg.payload
        if isinstance(resp, dict) and "error" in resp:
            raise RpcFault(
                resp["error"],
                code=resp.get("code", ERR_UNKNOWN),
                op=payload.get("op") if isinstance(payload, dict) else None,
            )
        return resp


#: Handler signature: (message) -> generator returning
#: (response_payload, response_bytes).
Handler = Callable[[Message], Generator[Event, Any, tuple[Any, int]]]


def _is_request(msg: Message) -> bool:
    # Every request payload is a dict carrying "op"; some (cleaning_ack)
    # also set in_reply_to to correlate with the notification they
    # answer, so the reply-marker alone cannot distinguish them from RPC
    # responses. Responses are handler results and never carry "op".
    # WRITE_WITH_IMM notifications (no "op", no in_reply_to) must still
    # reach the default handler.
    return msg.in_reply_to is None or (
        isinstance(msg.payload, dict) and "op" in msg.payload
    )


class RpcServer:
    """Polling dispatch loop for a server node.

    One request thread: it takes each request off the node's SRQ and, with
    ``concurrent_handlers > 1``, spawns its handler, which runs until its
    first wait before the loop polls again. The handler takes a core (a
    free one at once, else in FIFO order), spends ``dispatch_ns`` on it,
    runs, releases the core and sends the response. It ends without a
    completion event; a failed handler still escalates its exception.

    Parameters
    ----------
    env, node:
        The simulation environment and the node whose SRQ is polled.
    dispatch_ns:
        CPU time to poll the CQ and demultiplex one message (the paper's
        eFactory reduces this with multiple receive regions — see
        ``EFactoryServer.recv_batching``).
    concurrent_handlers:
        Max handlers in flight (each still holds the node CPU while
        computing). 1 models a single request-processing thread.
    """

    def __init__(
        self,
        env: Environment,
        node: Any,
        dispatch_ns: float = 200.0,
        concurrent_handlers: int = 1,
    ) -> None:
        self.env = env
        self.node = node
        self.dispatch_ns = dispatch_ns
        self.concurrent_handlers = concurrent_handlers
        self._handlers: dict[str, Handler] = {}
        self._default_handler: Optional[Handler] = None
        self._proc: Optional[Process] = None
        self._handler_procs: set[Process] = set()
        self.requests_served = 0
        #: Requests served keyed by the payload's ``op`` (lets metrics
        #: confirm batching actually replaced N ``alloc`` calls with one
        #: ``alloc_batch`` instead of adding traffic).
        self.served_by_op: dict[str, int] = {}
        #: Armed fault injector (:mod:`repro.faults`), or None; the
        #: dispatch loop checks this one attribute per message.
        self.injector = None

    def register(self, op: str, handler: Handler) -> None:
        self._handlers[op] = handler

    def register_default(self, handler: Handler) -> None:
        """Handler for messages whose payload has no registered ``op``
        (e.g. WRITE_WITH_IMM notifications)."""
        self._default_handler = handler

    def start(self) -> Process:
        if self._proc is not None and self._proc.is_alive:
            raise StoreError("RpcServer already running")
        self._proc = self.env.process(self._loop(), name=f"rpc:{self.node.name}")
        return self._proc

    def stop(self) -> None:
        """Halt dispatch *and* every in-flight handler.

        Interrupting live handlers matters for crash fidelity: a handler
        that was mid-flush when the power failed must not keep mutating
        NVM state after the crash (it would publish torn data with a
        trusted durability flag).
        """
        # A process cannot interrupt itself: when stop() runs *inside* a
        # handler (the crash hook pulling the plug mid-dispatch), the
        # active process is skipped — it dies by the exception it is
        # about to raise.
        active = self.env.active_process
        if self._proc is not None and self._proc.is_alive and self._proc is not active:
            self._proc.interrupt("stop")
        for proc in list(self._handler_procs):
            if proc.is_alive and proc is not active:
                proc.interrupt("stop")
        self._handler_procs.clear()

    # -- internals ------------------------------------------------------------
    def _loop(self) -> Generator[Event, Any, None]:
        try:
            while True:
                # Requests only: a server node may also host RpcClients
                # (cluster log shipping / inter-node RPC), whose
                # *responses* arrive on the same SRQ and must be left
                # for their recv_response getters. Single-node setups
                # never deliver responses to a server, so the predicate
                # matches every message there — behaviour unchanged.
                msg: Message = yield self.node.srq.get(_is_request)
                if self.injector is not None:
                    act = self.injector.fire("rpc.dispatch")
                    if act is not None and act.kind == "rpc_stall":
                        # Polling thread descheduled / head-of-line blocked.
                        yield self.env.timeout(act.delay_ns)
                handler = self._pick(msg)
                if handler is None:
                    continue  # drop unroutable messages
                if self.concurrent_handlers == 1:
                    yield from self._run_handler(handler, msg)
                else:
                    proc = self.env.spawn(
                        self._run_handler(handler, msg),
                        name=f"rpc-h:{self.node.name}",
                    )
                    self._handler_procs.add(proc)
                    if len(self._handler_procs) > 64:
                        self._handler_procs = {
                            p for p in self._handler_procs if p.is_alive
                        }
        except Interrupt:
            return

    def _pick(self, msg: Message) -> Optional[Handler]:
        if isinstance(msg.payload, dict):
            op = msg.payload.get("op")
            if op in self._handlers:
                return self._handlers[op]
        return self._default_handler

    def _run_handler(
        self, handler: Handler, msg: Message
    ) -> Generator[Event, Any, None]:
        cpu = self.node.cpu
        req = cpu.try_acquire()
        if req is None:
            req = yield from cpu.acquire()
        try:
            yield self.env.timeout(self.dispatch_ns)
            result = yield from handler(msg)
        finally:
            cpu.release(req)
        self.requests_served += 1
        if isinstance(msg.payload, dict):
            op = msg.payload.get("op")
            if op is not None:
                self.served_by_op[op] = self.served_by_op.get(op, 0) + 1
        if result is None:
            return  # notification-style message; no response
        response, response_bytes = result
        if msg.reply_to is None:
            raise StoreError("handler produced a response but message has no reply_to")
        try:
            yield from msg.reply_to.send(
                response, response_bytes, in_reply_to=msg.req_id
            )
        except QPError:
            pass  # client died; drop the response
