"""Forca — server-side verification and persisting on the read path
(§5.3.4, after Huang et al. [ICCD'18]).

PUT: exactly Erda's write path (client-active, CRC shipped in the
request, nothing flushed) over the bucketized index, plus the extra
object-metadata indirection the paper calls out in §6.1 ("Forca has an
extra intermediate layer of object metadata") — modelled as added
handler CPU per operation.

GET: always an RPC. The server looks up the object, CRC-verifies it,
*persists it*, and returns its location; the client then fetches it with
a one-sided READ. Verification failure walks to the previous version.
Server CPU + CRC on every read is why Forca trails in Figs 2/9/10.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    Partition,
    RESPONSE_BYTES,
)
from repro.crc.cost import CRC_COST
from repro.kv.objects import value_intact
from repro.rdma.rpc import ERR_NO_INTACT, ERR_NOT_FOUND, rpc_error
from repro.rdma.verbs import Message
from repro.sim.kernel import Event

__all__ = ["ForcaServer", "ForcaClient"]


class ForcaServer(BaseServer):
    store_name = "forca"
    #: The "extra intermediate layer of object metadata" (§6.1), paid on
    #: every alloc and every ``get_loc`` lookup.
    meta_indirection_ns = 120.0

    def _register_handlers(self) -> None:
        super()._register_handlers()
        self.register_keyed("get_loc", self._handle_get_loc)

    def _handle_get_loc(
        self, part: Partition, msg: Message
    ) -> Generator[Event, Any, tuple[Any, int]]:
        key: bytes = msg.payload["key"]
        yield self.env.timeout(self.index_ns + self.meta_indirection_ns)
        found = part.lookup_slot(key)
        if found is None:
            return rpc_error(f"key {key!r} not found", ERR_NOT_FOUND), RESPONSE_BYTES
        _entry_off, cur, _alt = found
        if cur is None:
            return rpc_error(f"key {key!r} has no version", ERR_NOT_FOUND), RESPONSE_BYTES

        for loc in part.versions(cur):
            img = part.read_object(loc)
            # Forca verifies by CRC on *every* read (no durability flag).
            yield self.env.timeout(CRC_COST.cost_ns(img.vlen))
            if img.key == key and value_intact(img):
                # ... and persists on the read path before returning.
                # (No durability flag — Forca re-verifies every read;
                # that absence is the design gap eFactory closes.)
                yield from part.persist_object(loc)
                return part.location_reply(loc)
        return rpc_error(f"key {key!r}: no intact version", ERR_NO_INTACT), RESPONSE_BYTES


class ForcaClient(BaseClient):
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        yield from self.put_client_active(key, value, with_crc=True)

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        return (yield from self._rpc_read(key))
