"""SAW — send-after-write remote durability (§5.3.1, after [Douglas'15]).

PUT: alloc RPC → one-sided WRITE of the value → an *extra* RDMA SEND
telling the server to flush the data and (only then) update metadata.
The trailing round trip plus the synchronous flush is why SAW "performs
worse than RPC for all data sizes" in Fig 1.

GET: two one-sided READs with no verification — safe, because metadata
is published only after the data is durable.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    RESPONSE_BYTES,
)
from repro.errors import KeyNotFoundError
from repro.rdma.rpc import ERR_UNKNOWN_ALLOC, rpc_error
from repro.rdma.verbs import Message
from repro.sim.kernel import Event

__all__ = ["SAWServer", "SAWClient"]


class SAWServer(BaseServer):
    store_name = "saw"
    publish_on_alloc = False  # metadata only after durability

    def _register_handlers(self) -> None:
        super()._register_handlers()
        self.rpc.register("persist", self._handle_persist)

    def _handle_persist(self, msg: Message) -> Generator[Event, Any, tuple[Any, int]]:
        pending = self.pending_allocs.pop(msg.payload["alloc_id"], None)
        if pending is None:
            return rpc_error("unknown alloc_id", ERR_UNKNOWN_ALLOC), RESPONSE_BYTES
        loc, entry_off, _klen, part = pending
        yield from part.serve(part.publish_durable(loc, entry_off), admit=False)
        return {"ok": True}, RESPONSE_BYTES


class SAWClient(BaseClient):
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        # Each try allocates afresh; a reply lost on an errored QP times out.
        yield from self.call_resilient(lambda: self._put_once(key, value), label="put")

    def _put_once(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        resp = yield from self.alloc_rpc(key, len(value), 0)
        yield from self.write_value(resp, value)
        # The durability point: tell the server to flush (extra round trip).
        yield from self.rpc.call(
            {"op": "persist", "alloc_id": resp["alloc_id"]}, 32
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
