"""Erda — client-side CRC verification with a two-version atomic region
(§5.3.3, after Liu et al. [arXiv 1906.08173]).

PUT: alloc RPC (hopscotch insert; the 8-byte atomic region atomically
becomes ``{new, previous}``) → one-sided WRITE. Nothing is flushed —
dirty data "becomes durable through natural eviction", which is where
Erda's non-monotonic reads come from (§7).

GET: READ the hopscotch neighborhood, READ the latest version, verify
the CRC *on the client* (the Fig 2 overhead), and on failure re-READ the
previous version from the atomic region. Only two versions are
addressable — the robustness gap eFactory's version list closes.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.baselines.base import (
    BaseClient,
    BaseServer,
    RESPONSE_BYTES,
    StoreConfig,
)
from repro.crc.crc32 import crc32_fast
from repro.errors import CorruptObjectError, KeyNotFoundError, StoreError
from repro.kv.hopscotch import (
    ERDA_ENTRY_SIZE,
    HopscotchTable,
    client_scan_neighborhood,
)
from repro.kv.objects import (
    FLAG_VALID,
    HEADER_SIZE,
    NULL_PTR,
    build_header,
    object_size,
    pack_ptr,
)
from repro.rdma.rpc import rpc_error_for
from repro.rdma.verbs import Message
from repro.sim.kernel import Event

__all__ = ["ErdaServer", "ErdaClient", "erda_config"]


def erda_config(**overrides: Any) -> StoreConfig:
    """Erda defaults: no flushing anywhere; hopscotch insert pays more
    index CPU than a simple bucket probe (displacement scans)."""
    cfg = StoreConfig(persist_meta=False, crc_on_put=True, index_ns=100.0)
    return cfg.with_(**overrides) if overrides else cfg


class ErdaServer(BaseServer):
    """Hopscotch-indexed server; allocation publishes immediately."""

    store_name = "erda"
    #: The hopscotch neighborhood spans bucket ranges, so the index has
    #: no clean segment boundary to shard on.
    supports_partitions = False

    def _table_bytes(self) -> int:
        return self.config.table_buckets * ERDA_ENTRY_SIZE

    def _make_table(self, part: int = 0) -> HopscotchTable:
        return HopscotchTable(self.device, 0, self.config.table_buckets)

    def _register_handlers(self) -> None:
        self.rpc.register("alloc", self._handle_alloc)

    def _handle_alloc(self, msg: Message) -> Generator[Event, Any, tuple[Any, int]]:
        cfg = self.config
        p = msg.payload
        key: bytes = p["key"]
        vlen: int = p["vlen"]
        table: HopscotchTable = self.partitions[0].table
        pool = self.partitions[0].pools[0]
        size = object_size(len(key), vlen)
        yield self.env.timeout(cfg.alloc_ns)
        try:
            offset = pool.allocate(size)
        except StoreError as exc:
            return rpc_error_for(exc), RESPONSE_BYTES

        yield self.env.timeout(cfg.index_ns)
        fp = _fp(key)
        prior = table.lookup(fp)
        pre_ptr = (
            pack_ptr(0, prior[1].off1)
            if prior is not None and prior[1].off1 is not None
            else NULL_PTR
        )
        header = build_header(
            flags=FLAG_VALID,
            klen=len(key),
            vlen=vlen,
            crc=p.get("crc", 0),
            pre_ptr=pre_ptr,
            ts=int(self.env.now),
        )
        yield self.env.timeout(cfg.header_write_ns)
        pool.write(offset, header + key)

        yield self.env.timeout(cfg.entry_update_ns)
        table.insert_or_update(fp, offset)
        return (
            {
                "pool": 0,
                "value_off": offset + HEADER_SIZE + len(key),
                "obj_off": offset,
                "size": size,
            },
            RESPONSE_BYTES,
        )


def _fp(key: bytes) -> int:
    from repro.kv.hashtable import key_fingerprint

    return key_fingerprint(key)


class ErdaClient(BaseClient):
    def put(self, key: bytes, value: bytes) -> Generator[Event, Any, None]:
        yield from self.put_client_active(key, value, with_crc=True)

    def get(
        self, key: bytes, size_hint: Optional[int] = None
    ) -> Generator[Event, Any, bytes]:
        """Neighborhood READ → object READ → client CRC → maybe re-read.

        ``size_hint`` (the value length) is required: Erda's atomic
        region carries no size, so the client must know how much to
        fetch — fine under the paper's fixed-size YCSB workloads.
        """
        if size_hint is None:
            raise StoreError("Erda GET requires a value-size hint")
        table: HopscotchTable = self.server.partitions[0].table
        fp = _fp(key)
        n_off, n_len = table.neighborhood_offset(fp)
        raw = yield from self.ep.read(self.session.table_rkey, n_off, n_len)
        region = client_scan_neighborhood(raw, fp)
        if region is None:
            raise KeyNotFoundError(f"key {key!r} not in hopscotch neighborhood")

        obj_size = HEADER_SIZE + len(key) + size_hint
        for attempt, off in enumerate((region.off1, region.off2)):
            if off is None:
                continue
            img = yield from self.read_object_loc(0, off, obj_size)
            # Client-side CRC — the Fig 2 read-path overhead.
            yield self.env.timeout(self.config.crc_cost.cost_ns(size_hint))
            if (
                img.well_formed
                and img.key == key
                and img.vlen == len(img.value)
                and crc32_fast(img.value) == img.crc
            ):
                return img.value
        raise CorruptObjectError(
            f"key {key!r}: both addressable versions failed verification"
        )
