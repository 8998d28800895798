"""Pure RPC store: the server's CPU does everything (§2.2, Fig 1).

PUT: the value travels inside the SEND; the server copies it from the
staging buffer into NVM (an extra pass over the data the client-active
schemes avoid), flushes it, *then* publishes the hash entry — so
metadata never exposes incomplete data and no CRC is ever needed.

GET: request/response RPC with the value inline.

This is the paper's durable baseline: simple, always consistent, and
CPU-bound — the scheme the client-active designs are measured against.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    GET_REQUEST_OVERHEAD,
    Partition,
    PUT_REQUEST_OVERHEAD,
    RESPONSE_BYTES,
)
from repro.baselines.partition import ROTTEN_LOCATION
from repro.errors import StoreError
from repro.kv.objects import FLAG_DURABLE, FLAG_VALID, HEADER_SIZE
from repro.rdma.rpc import ERR_NO_INTACT, ERR_NOT_FOUND, rpc_error, rpc_error_for
from repro.rdma.verbs import Message
from repro.sim.kernel import Event

__all__ = ["RpcStoreServer", "RpcStoreClient"]


class RpcStoreServer(BaseServer):
    store_name = "rpc"

    def _register_handlers(self) -> None:
        self.register_keyed("put", self._handle_put, write=True)
        self.register_keyed("get", self._handle_get)

    def _handle_put(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        p = msg.payload
        key: bytes = p["key"]
        value: bytes = p["value"]
        # Allocate + write metadata, but publish only after durability.
        try:
            loc, entry_off = yield from part.alloc_object(
                key, len(value), 0, publish=False, flags=FLAG_VALID | FLAG_DURABLE
            )
        except StoreError as exc:
            return rpc_error_for(exc), RESPONSE_BYTES
        # Staging-buffer -> NVM copy (the extra data pass RPC pays).
        value_addr = (
            part.pools[loc.pool].abs_addr(loc.offset) + HEADER_SIZE + len(key)
        )
        yield from self.device.copy_in(value_addr, value)
        yield from part.persist_object(loc)
        yield from part.publish_object(entry_off, loc)
        yield from part.persist_entry_timed(entry_off)
        return {"ok": True}, RESPONSE_BYTES

    def _handle_get(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        key: bytes = msg.payload["key"]
        yield self.env.timeout(self.index_ns)
        found = part.lookup_slot(key)
        if found is None or found[1] is None:
            return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
        _entry_off, cur, _alt = found
        # metadata published only after durability => object intact,
        # unless the media rotted the entry's location since
        try:
            img = part.read_object(cur)
        except ROTTEN_LOCATION:
            return rpc_error(f"key {key!r}: rotten location", ERR_NO_INTACT), RESPONSE_BYTES
        # server-side read of the value before shipping it back
        yield self.env.timeout(self.device.timing.read_cost(img.vlen))
        return {"value": img.value}, RESPONSE_BYTES + img.vlen


class RpcStoreClient(BaseClient):
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        yield from self.call_resilient(
            lambda: self.rpc.call(
                {"op": "put", "key": key, "value": value},
                PUT_REQUEST_OVERHEAD + len(key) + len(value),
            ),
            label="put.rpc",
        )

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        resp = yield from self.call_resilient(
            lambda: self.rpc.call(
                {"op": "get", "key": key}, GET_REQUEST_OVERHEAD + len(key)
            ),
            label="get.rpc",
        )
        return resp["value"]
