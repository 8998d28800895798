"""IMM — durability via WRITE_WITH_IMM (§5.3.2, after Orion [FAST'19]).

PUT: alloc RPC → WRITE_WITH_IMM carrying the value; the immediate field
names the allocation, so the server learns of completion instantly,
flushes the data into NVM, publishes metadata, and acks the client. One
fewer round trip than SAW (the Fig 1 "~5% better than RPC" scheme), but
the synchronous flush still sits on the critical path and burns server
CPU — which is why IMM stops scaling in Fig 10 once writes dominate.

GET: two one-sided READs, no verification needed.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    RESPONSE_BYTES,
)
from repro.errors import KeyNotFoundError, StoreError
from repro.rdma.verbs import Message, Opcode
from repro.sim.kernel import Event

__all__ = ["IMMServer", "IMMClient"]


class IMMServer(BaseServer):
    store_name = "imm"
    publish_on_alloc = False

    def _register_handlers(self) -> None:
        super()._register_handlers()
        # WRITE_WITH_IMM completions arrive as non-dict-payload messages.
        self.rpc.register_default(self._handle_imm_completion)

    def _handle_imm_completion(
        self, msg: Message
    ) -> Generator[Event, Any, Optional[tuple[Any, int]]]:
        if msg.opcode is not Opcode.WRITE_WITH_IMM or msg.imm is None:
            return None  # stray message; drop
        pending = self.pending_allocs.pop(msg.imm, None)
        if pending is None:
            return None
        loc, entry_off, _klen, part = pending
        yield from part.serve(part.publish_durable(loc, entry_off), admit=False)
        # Acked off-CPU by the dispatch loop; the client matches on the
        # payload since it never saw this message's req_id.
        return {"ack_alloc": msg.imm}, RESPONSE_BYTES


class IMMClient(BaseClient):
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        # Each try allocates afresh; a reply lost on an errored QP times out.
        yield from self.call_resilient(lambda: self._put_once(key, value), label="put")

    def _put_once(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        resp = yield from self.alloc_rpc(key, len(value), 0)
        alloc_id = resp["alloc_id"]
        if alloc_id > 0xFFFFFFFF:
            raise StoreError("alloc_id no longer fits the 32-bit imm field")
        rkey = self._pool_rkey(resp.get("part", 0), resp["pool"])
        yield from self.ep.write_with_imm(
            rkey, resp["value_off"], value, imm=alloc_id
        )
        # Wait for the server's durability ack.
        yield self.node.srq.get(
            lambda m: isinstance(m.payload, dict)
            and m.payload.get("ack_alloc") == alloc_id
        )

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        fp, slots = yield from self.read_bucket(key)
        if slots is None:
            raise KeyNotFoundError(f"key {key!r} not indexed")
        cur, alt = slots
        slot = cur or alt
        if slot is None:
            raise KeyNotFoundError(f"key {key!r} has no published version")
        img = yield from self.read_object_at(slot, self.partition_of(fp))
        self._check_found(img, key)
        return img.value
