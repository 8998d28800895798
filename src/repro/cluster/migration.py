"""Online partition migration between nodes.

Reuses the log cleaner's playbook — copy live versions elsewhere, mark
the originals with ``FLAG_TRANS``, flip the pointer — across the fabric
instead of across pools:

1. **Clean slate** — the destination ``repl_reset``s the partition
   (zeroing any stale shipped extents) so the promotion scan can never
   resurrect a previous tenant's records.
2. **Copy pass (live)** — walk the source's table segment, pick each
   key's newest *intact* version (valid + durable-or-CRC-ok, the
   cleaner's rule), and move batches: one ``mig_alloc`` RPC reserves
   compacted destination offsets, one doorbell-batched WRITE chain
   carries the records, one ``mig_commit`` RPC persists + indexes them.
   Records are rebuilt with ``FLAG_VALID`` only (the destination sets
   the durability flag itself after persisting — same discipline as the
   verifier) and cleared pointers (the destination log is a fresh,
   single-version history). The source keeps serving reads and writes
   throughout; copied source versions gain ``FLAG_TRANS``, which the
   client location cache already treats as "stale, re-resolve".
3. **Drain + delta** — the source partition is write-fenced (writes
   fail with ``ERR_FENCED``; the cluster client waits and re-routes),
   in-flight WRITEs get ``drain_grace_ns`` to land, every record
   appended since the copy-pass snapshot is re-copied (last write wins
   at the destination index), and every copied key the source has
   deleted since is deleted at the destination (``mig_drop``).
4. **Flip** — the router makes the destination primary (epoch bump →
   clients drop caches and re-route), the fence drops, and the
   destination starts shipping its fresh log to the surviving backups
   (after ``repl_reset``-ing them: their bytes describe the *source's*
   layout, the destination's is compacted differently).

A node death mid-migration aborts cleanly: the route rolls back (or the
failure path takes over when the source itself died) and the
destination's partial copy is inert — the next migration to that
destination starts with its own reset.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.baselines.partition import Partition
from repro.cluster.replicator import REPL_RESET_BYTES
from repro.errors import RDMAError, StoreError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import (
    FLAG_TRANS,
    FLAG_VALID,
    HEADER_SIZE,
    build_header,
    parse_header,
)
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Cluster, ClusterNode

__all__ = ["migrate_partition"]

MIG_ALLOC_OVERHEAD = 24
MIG_ALLOC_ITEM_BYTES = 8
MIG_COMMIT_OVERHEAD = 24
MIG_COMMIT_ITEM_BYTES = 12
MIG_DROP_OVERHEAD = 24
#: Records per mig_alloc / WRITE-chain / mig_commit round.
_MIGRATE_BATCH = 16


def _latest_intact(
    part: Partition, entry_off: int, fp: int
) -> Generator[Event, Any, Optional[tuple[Slot, Any]]]:
    """The cleaner's selection rule: newest version that is valid and
    provably intact (durable flag, else CRC), walking pre_ptr down."""
    for loc in part.versions(part.table.read_cur(entry_off)):
        img = yield from part.provably_intact(loc, fp)
        if img is not None:
            return loc, img
    return None


def _copy_batch(
    cluster: "Cluster",
    src: "ClusterNode",
    dst_id: int,
    part_id: int,
    records: list[tuple[Slot, Any]],
    stats: dict,
) -> Generator[Event, Any, None]:
    """Move one batch: mig_alloc → doorbell WRITE chain → mig_commit,
    then FLAG_TRANS the source copies."""
    src_part = src.server.partitions[part_id]
    datas = []
    for _loc, img in records:
        datas.append(
            build_header(
                flags=FLAG_VALID,
                klen=img.klen,
                vlen=img.vlen,
                crc=img.crc,
                ts=img.ts,
            )
            + img.key
            + img.value
        )
    resp = yield from src.call(
        dst_id,
        {"op": "mig_alloc", "part": part_id, "sizes": [len(d) for d in datas]},
        MIG_ALLOC_OVERHEAD + MIG_ALLOC_ITEM_BYTES * len(datas),
    )
    ep = src.link(dst_id)
    rkey = cluster.pool_rkey(dst_id, part_id, resp["pool"])
    yield from ep.write_many(
        [(rkey, off, data) for off, data in zip(resp["offs"], datas)]
    )
    yield from src.call(
        dst_id,
        {
            "op": "mig_commit",
            "part": part_id,
            "pool": resp["pool"],
            "items": [
                (off, len(data)) for off, data in zip(resp["offs"], datas)
            ],
        },
        MIG_COMMIT_OVERHEAD + MIG_COMMIT_ITEM_BYTES * len(datas),
    )
    for loc, img in records:
        src_part.set_object_flags(loc, img.flags | FLAG_TRANS)
    stats["moved"] += len(records)
    stats["bytes"] += sum(len(d) for d in datas)


def migrate_partition(
    cluster: "Cluster", part_id: int, dst_id: int
) -> Generator[Event, Any, dict]:
    """Live-migrate one partition to ``dst_id``. Returns a stats dict;
    failures abort the migration (stats["aborted"]) rather than raise —
    a node death mid-move is the failover path's business, not ours."""
    env = cluster.env
    cfg = cluster.cfg
    router = cluster.router
    stats: dict[str, Any] = {
        "part": part_id,
        "dst": dst_id,
        "moved": 0,
        "delta_moved": 0,
        "bytes": 0,
        "aborted": False,
        "duration_ns": 0.0,
    }
    start = env.now
    src_id = router.primary(part_id)
    if (
        src_id is None
        or src_id == dst_id
        or not cluster.alive(src_id)
        or not cluster.alive(dst_id)
        or not router.routable(part_id)
    ):
        stats["aborted"] = True
        cluster.migrations_aborted += 1
        return stats
    src = cluster.nodes[src_id]
    src_part = src.server.partitions[part_id]
    t = src.server.config.nvm_timing

    def check_live() -> None:
        if (
            not cluster.alive(src_id)
            or not cluster.alive(dst_id)
            or router.primary(part_id) != src_id
        ):
            raise StoreError("migration interrupted by node failure")

    began = False
    try:
        # 1. clean slate at the destination.
        yield from src.call(
            dst_id,
            {"op": "repl_reset", "part": part_id, "gen": -1},
            REPL_RESET_BYTES,
        )
        wp = src_part.write_pool_id
        mark = src_part.pools[wp].head
        router.begin_migration(part_id, dst_id)
        began = True

        # 2. copy pass over a snapshot of the index (writes continue).
        batch: list[tuple[Slot, Any]] = []
        copied: list[bytes] = []
        for entry_off, entry in list(src_part.table.iter_entries()):
            check_live()
            found = yield from _latest_intact(src_part, entry_off, entry.fp)
            if found is None:
                continue
            batch.append(found)
            copied.append(found[1].key)
            if len(batch) >= _MIGRATE_BATCH:
                yield from _copy_batch(
                    cluster, src, dst_id, part_id, batch, stats
                )
                batch = []
        if batch:
            yield from _copy_batch(cluster, src, dst_id, part_id, batch, stats)

        # 3. fence, drain, delta.
        check_live()
        router.drain(part_id)
        src_part.fenced = True
        yield env.timeout(cfg.drain_grace_ns)
        check_live()
        if src_part.write_pool_id != wp:
            raise StoreError("log cleaning switched pools mid-migration")
        pool = src_part.pools[wp]
        delta_fps: list[int] = []
        seen: set[int] = set()
        for alloc in pool.allocations:
            if alloc.offset < mark:
                continue
            yield env.timeout(t.read_cost(HEADER_SIZE))
            hdr = parse_header(pool.read(alloc.offset, HEADER_SIZE))
            if hdr is None:
                continue
            yield env.timeout(t.read_cost(hdr.klen))
            key = bytes(pool.read(alloc.offset + HEADER_SIZE, hdr.klen))
            fp = key_fingerprint(key)
            if fp not in seen:
                seen.add(fp)
                delta_fps.append(fp)
        moved_before_delta = stats["moved"]
        batch = []
        for fp in delta_fps:
            check_live()
            entry_off = src_part.table.find(fp)
            if entry_off is None:
                continue
            found = yield from _latest_intact(src_part, entry_off, fp)
            if found is None:
                continue
            batch.append(found)
            if len(batch) >= _MIGRATE_BATCH:
                yield from _copy_batch(
                    cluster, src, dst_id, part_id, batch, stats
                )
                batch = []
        if batch:
            yield from _copy_batch(cluster, src, dst_id, part_id, batch, stats)
        stats["delta_moved"] = stats["moved"] - moved_before_delta
        # A DELETE allocates nothing, so the delta above cannot see one:
        # drop at the destination every copied key the source no longer
        # holds a current version of.
        gone = []
        for key in copied:
            found = src_part.lookup_slot(key)
            if found is None or found[1] is None:
                gone.append(key)
        if gone:
            check_live()
            yield from src.call(
                dst_id,
                {"op": "mig_drop", "part": part_id, "keys": gone},
                MIG_DROP_OVERHEAD + sum(len(key) for key in gone),
            )

        # 4. flip ownership; re-seed replication from the new primary.
        check_live()
        router.finish_migration(part_id)
        src_part.fenced = False
        # The source is out of the replica set: its shipper would race
        # the new primary's (stale layout vs compacted) on any surviving
        # backup. Retire it before the destination starts shipping.
        old_shipper = src.shippers.pop(part_id, None)
        if old_shipper is not None:
            old_shipper.stop()
        dst = cluster.nodes[dst_id]
        if cfg.replication_factor > 1:
            dst.start_shipper(part_id)
            shipper = dst.shippers.get(part_id)
            if shipper is not None:
                # The surviving backups hold the *source's* byte layout;
                # the destination's is compacted. Reset before shipping.
                shipper._need_reset = set(router.backups(part_id))
                shipper.caught_up = False
        cluster.migrations += 1
    except (RDMAError, StoreError) as exc:
        stats["aborted"] = True
        stats["error"] = str(exc)
        cluster.migrations_aborted += 1
        if cluster.alive(src_id):
            src_part.fenced = False
        if began and router.routes[part_id].migrating_to == dst_id:
            router.abort_migration(part_id)
    stats["duration_ns"] = env.now - start
    return stats
