"""Client-active scheme *without* a persistence guarantee (§3, Fig 1).

The fastest possible write path over RDMA+NVM — and the unsafe one: the
server allocates and publishes metadata immediately, the client pushes
the value with a one-sided WRITE, and nothing is ever explicitly
flushed. The paper uses this as the performance ceiling ("CA w/o
persistence", 36% faster than RPC); we keep it both as that yardstick
and as the demonstration that the naive scheme really does tear objects
across crashes (see the crash-consistency bench).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import BaseClient, BaseServer
from repro.errors import KeyNotFoundError
from repro.sim.kernel import Event

__all__ = ["CAServer", "CAClient"]


class CAServer(BaseServer):
    """Only the shared allocation handler — the server never flushes."""

    store_name = "ca"


class CAClient(BaseClient):
    """PUT = alloc RPC + RDMA WRITE; GET = two RDMA READs, no checks."""

    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        yield from self.put_client_active(key, value, with_crc=False)

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
        # No durability or integrity verification — by design.
        return img.value
