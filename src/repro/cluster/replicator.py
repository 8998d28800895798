"""Server-side log shipping: primary → backup replication of the log pool.

One :class:`LogShipper` runs per (primary node, owned partition). It
walks the write pool's allocation journal in order and ships appended
records to every live backup as **doorbell-batched one-sided WRITE
chains at identical offsets** — replicas share the primary's pool
geometry byte-for-byte, so a shipped record lands exactly where the
primary wrote it and the existing recovery pass (pre_ptr rollback, CRC
checks) replays a promoted backup's log with no translation. After the
WRITEs land, a small ``repl_commit`` RPC makes the backup persist the
ranges and advance its **replication watermark** — the byte offset up
to which the shipped prefix of the pool is durable remotely.

The watermark is what gates acknowledgement: a cluster put with
``replication_factor > 1`` follows its normal durable put with a
``repl_wait`` RPC that polls the primary's shipped watermark until the
record's end offset is covered on *every* live backup, so an acked PUT
is durable on ``replication_factor`` nodes. Only *settled* records are
shipped in order — durable ones (the verifier's flag is set), invalid
ones (deleted / superseded before verification), or ones whose verify
window expired (an abandoned client write; it can never ack, so it is
shipped as-is rather than letting it dam the watermark forever).

Failure semantics: a ship round that cannot reach a backup retries
after :attr:`LogShipper.ship_retry_ns` without advancing the watermark
— repl_waits behind it observe ``replication_lag`` until the failure
detector removes the dead backup from the route, at which point the
round's target set shrinks and acks resume at degraded redundancy. Lost
redundancy is *not* re-established by re-replicating to a new backup
(documented limitation; the route simply carries fewer replicas).

Log cleaning moves the partition's write pool: the shipper detects the
pool switch, bumps its shipping generation, tells every backup to
``repl_reset`` (zero the partition's shipped extents — stale records
from the previous generation would otherwise be resurrected by the
promotion scan, which trusts any parseable header), and re-ships the
new pool from offset zero.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import RDMAError, StoreError
from repro.kv.objects import FLAG_DURABLE, FLAG_VALID, HEADER_SIZE, parse_header
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode

__all__ = [
    "LogShipper",
    "PING_BYTES",
    "REPAIR_FETCH_BYTES",
    "REPL_COMMIT_OVERHEAD",
    "REPL_RANGE_BYTES",
    "REPL_RESET_BYTES",
    "REPL_WAIT_BYTES",
]

#: Wire sizes of the cluster-internal control messages (bytes).
PING_BYTES = 16
REPL_COMMIT_OVERHEAD = 32
REPL_RANGE_BYTES = 12
REPL_RESET_BYTES = 24
REPL_WAIT_BYTES = 32
#: ``repair_fetch`` request (op + part/pool/offset/size); the response
#: pays its own size (header + the fetched record bytes).
REPAIR_FETCH_BYTES = 28


#: How long a put's ``repl_wait`` polls the watermark before giving up
#: with a retryable ``replication_lag`` error.
_REPL_WAIT_TIMEOUT_NS = 500_000.0
#: Watermark poll period inside ``repl_wait``.
_REPL_POLL_NS = 5_000.0


class LogShipper:
    """Ships one partition's log from its primary to the live backups."""

    #: Max records per doorbell-batched WRITE chain to each backup.
    ship_batch = 8
    #: Poll period while the log is idle.
    ship_interval_ns = 20_000.0
    #: Backoff after a failed ship round (dead/unreachable backup).
    ship_retry_ns = 50_000.0

    def __init__(self, node: "ClusterNode", part_id: int) -> None:
        self.node = node
        self.cluster = node.cluster
        self.part_id = part_id
        self.part = node.server.partitions[part_id]
        self.env = node.env
        #: Pool currently being shipped (follows ``write_pool_id``).
        self.pool_id = self.part.write_pool_id
        #: Shipping generation, bumped on every pool switch; lets
        #: backups discard commits that raced a reset.
        self.gen = 0
        #: Next journal index to ship.
        self.cursor = 0
        #: Watermark: pool bytes [0, shipped_end) are durable on every
        #: target this shipper currently ships to.
        self.shipped_end = 0
        #: True when the last round found nothing left to ship.
        self.caught_up = True
        #: Backups that must ``repl_reset`` before receiving this gen.
        self._need_reset: set[int] = set()
        self.shipped_records = 0
        self.shipped_bytes = 0
        self.ship_rounds = 0
        self.failed_rounds = 0
        self._proc: Optional[Process] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> Process:
        self._proc = self.env.process(
            self._run(), name=f"ship:{self.node.name}:p{self.part_id}"
        )
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            if self._proc is not self.env.active_process:
                self._proc.interrupt("stop")
        self._proc = None

    # -- watermark queries --------------------------------------------------
    def covered(self, pool: int, end: int) -> bool:
        """Is the record ending at ``end`` in ``pool`` durable on every
        live backup? Records from a superseded pool generation are
        covered once the current pool is fully shipped (cleaning moved
        every live version there)."""
        if pool == self.pool_id:
            return self.shipped_end >= end and not self._need_reset
        return self.caught_up and not self._need_reset

    def is_shipped(self, pool: int, end: int) -> bool:
        """Are pool bytes ``[0, end)`` part of the shipped prefix every
        live backup holds *at identical offsets*? Gates replica-assisted
        repair: only then does ``repair_fetch(pool, off, size)`` name
        byte-for-byte the same record on a backup."""
        return (
            pool == self.pool_id
            and self.shipped_end >= end
            and not self._need_reset
        )

    @property
    def lag_bytes(self) -> int:
        """Bytes appended to the write pool but not yet watermarked."""
        pool = self.part.pools[self.pool_id]
        return max(0, pool.head - self.shipped_end)

    # -- the shipping loop --------------------------------------------------
    def _targets(self) -> list[int]:
        router = self.cluster.router
        return [
            nid
            for nid in router.backups(self.part_id)
            if self.cluster.alive(nid)
        ]

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        try:
            while True:
                if not self.node.alive:
                    return
                try:
                    advanced = yield from self._ship_round()
                except (RDMAError, StoreError):
                    # Unreachable backup (or it died mid-commit): hold
                    # the watermark and retry; the failure detector will
                    # shrink the target set if the backup is gone.
                    self.failed_rounds += 1
                    yield env.timeout(self.ship_retry_ns)
                    continue
                if not advanced:
                    yield env.timeout(self.ship_interval_ns)
        except Interrupt:
            return

    def _ship_round(self) -> Generator[Event, Any, bool]:
        """One scan-and-ship pass. Returns True when records moved."""
        env = self.env
        part = self.part
        t = part.device.timing

        wp = part.write_pool_id
        if wp != self.pool_id:
            # Log cleaning switched pools: restart shipping at gen+1.
            self.gen += 1
            self.pool_id = wp
            self.cursor = 0
            self.shipped_end = 0
            self.caught_up = False
            self._need_reset = set(self._targets())

        targets = self._targets()
        if self._need_reset:
            # Only nodes still routed as backups need the reset.
            for nid in sorted(self._need_reset & set(targets)):
                yield from self.node.call(
                    nid,
                    {"op": "repl_reset", "part": self.part_id, "gen": self.gen},
                    REPL_RESET_BYTES,
                )
                self._need_reset.discard(nid)
            self._need_reset &= set(targets)

        pool = part.pools[self.pool_id]
        allocs = pool.allocations
        hold_window = part.server.verify_timeout_ns + self.ship_interval_ns
        batch = []
        while (
            self.cursor + len(batch) < len(allocs)
            and len(batch) < self.ship_batch
        ):
            a = allocs[self.cursor + len(batch)]
            yield env.timeout(t.read_cost(HEADER_SIZE))
            hdr = parse_header(pool.read(a.offset, HEADER_SIZE))
            if (
                hdr is not None
                and (hdr.flags & FLAG_VALID)
                and not (hdr.flags & FLAG_DURABLE)
                and env.now - hdr.ts <= hold_window
            ):
                # Not yet verified and still inside its verify window:
                # stop here to keep the shipped prefix in order.
                break
            batch.append(a)
        if not batch:
            self.caught_up = self.cursor >= len(allocs)
            return False
        self.caught_up = False

        end = batch[-1].offset + batch[-1].size
        payload = [(a.offset, pool.read(a.offset, a.size)) for a in batch]
        for nid in targets:
            ep = self.node.link(nid)
            rkey = self.cluster.pool_rkey(nid, self.part_id, self.pool_id)
            yield from ep.write_many(
                [(rkey, off, data) for off, data in payload]
            )
            yield from self.node.call(
                nid,
                {
                    "op": "repl_commit",
                    "part": self.part_id,
                    "pool": self.pool_id,
                    "gen": self.gen,
                    "end": end,
                    "ranges": [(a.offset, a.size) for a in batch],
                },
                REPL_COMMIT_OVERHEAD + REPL_RANGE_BYTES * len(batch),
            )
        self.cursor += len(batch)
        self.shipped_end = end
        self.shipped_records += len(batch)
        self.shipped_bytes += sum(a.size for a in batch)
        self.ship_rounds += 1
        return True

    # -- metrics ------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "part": self.part_id,
            "pool": self.pool_id,
            "gen": self.gen,
            "shipped_records": self.shipped_records,
            "shipped_bytes": self.shipped_bytes,
            "ship_rounds": self.ship_rounds,
            "failed_rounds": self.failed_rounds,
            "watermark": self.shipped_end,
            "lag_bytes": self.lag_bytes,
        }


def repl_wait_loop(
    node: "ClusterNode", part_id: int, pool: int, end: int
) -> Generator[Event, Any, bool]:
    """Primary-side watermark wait (the body of the ``repl_wait`` RPC).

    Polls until the record is covered on every live backup or the wait
    times out. Returns True when covered; False on timeout (the handler
    maps that to a retryable ``replication_lag`` fault). With no shipper
    (replication off, or this partition not primaried here — e.g. the
    route moved while the request was in flight) the record has nothing
    to wait on and the wait succeeds immediately; the client's next op
    will observe the new epoch.
    """
    env = node.env
    deadline = env.now + _REPL_WAIT_TIMEOUT_NS
    while True:
        shipper = node.shippers.get(part_id)
        if shipper is None or shipper.covered(pool, end):
            return True
        if env.now >= deadline:
            return False
        yield env.timeout(_REPL_POLL_NS)
