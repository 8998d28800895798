"""Background verification and durability (paper §4.3.2).

A server-side thread walks newly allocated objects in log order: for
each one it recomputes the CRC over the value, compares against the CRC
recorded at allocation, and on a match persists the object and sets the
durability flag. A mismatch means the client's one-sided WRITE has not
(fully) arrived: the object is revisited later, and once the configured
timeout elapses it is marked invalid (space reclaimed by log cleaning).

The thread runs on its *own* core — "the background thread and the
request processing thread run independently, i.e., there is no need for
inter-thread synchronization" — so none of this work contends with the
request CPU. Coordination with the GET handler is exactly the paper's:
the durability flag lets each side skip objects the other already
persisted.

Every partition runs its own verifier over its own log pools (the same
range-sharding Pangolin applies to its checksum workers), reached as
``server.partitions[i].verifier``; ``server.metrics()["verifier"]`` is
their per-key sum.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any, TYPE_CHECKING

from repro.baselines.base import ObjectLocation, Partition
from repro.kv.objects import FLAG_VALID
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import EFactoryServer

__all__ = ["BackgroundVerifier"]


class BackgroundVerifier:
    """One partition's background verify-and-persist thread."""

    def __init__(self, server: "EFactoryServer", partition: Partition) -> None:
        self.server = server
        self.part = partition
        self.env = server.env
        #: Freshly allocated objects in log order.
        self.queue: deque[ObjectLocation] = deque()
        #: Objects whose WRITE had not landed yet: (due_time, loc).
        self.retry: deque[tuple[float, ObjectLocation]] = deque()
        self._proc: Process | None = None
        #: Armed while the batched loop sleeps; ``enqueue`` fires it so
        #: the thread wakes on arrival instead of on the next poll tick.
        self._wakeup: Event | None = None
        # statistics
        self.verified = 0
        self.persisted = 0
        self.invalidated = 0
        self.skipped = 0
        self.requeued = 0
        self.batches = 0
        self.coalesced_flushes = 0
        self.wakeups = 0

    # -- feeding ------------------------------------------------------------
    def enqueue(self, loc: ObjectLocation) -> None:
        self.queue.append(loc)
        ev = self._wakeup
        if ev is not None and not ev.triggered:
            ev.succeed()

    @property
    def backlog(self) -> int:
        return len(self.queue) + len(self.retry)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Process:
        name = (
            "bg-verifier"
            if self.server.num_partitions == 1
            else f"bg-verifier-p{self.part.part_id}"
        )
        self._proc = self.env.process(self._loop(), name=name)
        return self._proc

    def stop(self) -> None:
        if (
            self._proc is not None
            and self._proc.is_alive
            and self._proc is not self.env.active_process
        ):
            self._proc.interrupt("stop")

    # -- the thread ------------------------------------------------------------
    def _loop(self) -> Generator[Event, Any, None]:
        cfg = self.server.config
        if cfg.bg_batch > 1:
            yield from self._loop_batched(cfg)
            return
        # Legacy single-object poll loop (bg_batch == 1): kept verbatim
        # so the default configuration's event sequence is bit-for-bit
        # the seed's.
        try:
            while True:
                inj = self.server.fabric.injector
                if inj is not None:
                    act = inj.fire("bg.verifier", partition=self.part.part_id)
                    if act is not None and act.kind == "pause":
                        yield self.env.timeout(act.delay_ns)
                loc = self._next_due()
                if loc is None:
                    yield self.env.timeout(cfg.bg_idle_poll_ns)
                    continue
                yield from self._process_one(loc)
        except Interrupt:
            return

    def _loop_batched(self, cfg) -> Generator[Event, Any, None]:
        """Amortized thread (``bg_batch > 1``): event-driven wakeup,
        then drain up to ``bg_batch`` due objects per pass — back-to-back
        CRCs and one coalesced flush per run of adjacent objects."""
        try:
            while True:
                inj = self.server.fabric.injector
                if inj is not None:
                    act = inj.fire("bg.verifier", partition=self.part.part_id)
                    if act is not None and act.kind == "pause":
                        yield self.env.timeout(act.delay_ns)
                batch: list[ObjectLocation] = []
                while len(batch) < cfg.bg_batch:
                    loc = self._next_due()
                    if loc is None:
                        break
                    batch.append(loc)
                if not batch:
                    yield from self._idle_wait(cfg)
                    # Linger one poll period before draining: lets the
                    # in-flight doorbell WRITEs land (the alloc is
                    # enqueued before the value arrives), lets a
                    # pipelined burst accumulate into one batch, and
                    # gathers near-simultaneous retries into one pass
                    # with adjacent flush runs.
                    yield self.env.timeout(cfg.bg_idle_poll_ns)
                    continue
                self.batches += 1
                yield from self._process_batch(batch)
        except Interrupt:
            return

    def _idle_wait(self, cfg) -> Generator[Event, Any, None]:
        """Sleep until new work arrives (``enqueue`` fires the armed
        event) or the earliest retry comes due — no fixed-period poll."""
        ev = self.env.event()
        self._wakeup = ev
        try:
            if self.retry:
                delay = max(0.0, self.retry[0][0] - self.env.now)
                yield self.env.any_of([ev, self.env.timeout(delay)])
            else:
                yield ev
            if ev.triggered:
                self.wakeups += 1
        finally:
            self._wakeup = None

    def _process_batch(
        self, batch: "list[ObjectLocation]"
    ) -> Generator[Event, Any, None]:
        """Verify a drained batch, then persist with coalesced flushes.

        CRC passes run back-to-back (the peek and checksum costs are
        still charged per object — batching removes the *poll* gaps and
        the per-object flush fences, not the work). All objects that
        verified are then flushed in runs: adjacent log allocations are
        contiguous, so one fence covers the whole run."""
        part = self.part
        cfg = self.server.config
        ok: list[tuple[ObjectLocation, Any]] = []
        raws: dict[ObjectLocation, bytes] = {}
        for loc in batch:
            yield self.env.timeout(cfg.peek_ns)
            img = part.read_object(loc)
            if not img.well_formed:
                yield from self._retry_or_invalidate(loc, None)
                continue
            if img.durable or not img.valid:
                self.skipped += 1
                continue
            yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
            self.verified += 1
            if part.object_value_ok(img):
                if part.integrity is not None:
                    # Snapshot the verified pre-persist bytes: if the
                    # settling persist itself corrupts the media, these
                    # are what parity must cover so the scrubber can
                    # reconstruct the good image.
                    raws[loc] = bytes(
                        part.pools[loc.pool].read(loc.offset, loc.size)
                    )
                ok.append((loc, img))
            else:
                yield from self._retry_or_invalidate(loc, img)
        if not ok:
            return
        # Coalesced flush: merge adjacent (pool, offset..offset+size)
        # ranges into single persist calls.
        by_pool: dict[int, list[tuple[ObjectLocation, Any]]] = {}
        for loc, img in ok:
            by_pool.setdefault(loc.pool, []).append((loc, img))
        for pool_id, members in by_pool.items():
            pool = part.pools[pool_id]
            mask = pool.align - 1

            def alloc_end(loc: ObjectLocation) -> int:
                # The bump allocator rounds every object to the pool's
                # alignment; the next adjacent object starts there.
                return loc.offset + ((loc.size + mask) & ~mask)

            members.sort(key=lambda m: m[0].offset)
            runs: list[list[tuple[ObjectLocation, Any]]] = [[members[0]]]
            for m in members[1:]:
                if m[0].offset == alloc_end(runs[-1][-1][0]):
                    runs[-1].append(m)
                else:
                    runs.append([m])
            for run in runs:
                start = run[0][0].offset
                length = run[-1][0].offset + run[-1][0].size - start
                yield from self.server.device.persist(
                    pool.abs_addr(start), length
                )
                if len(run) > 1:
                    self.coalesced_flushes += 1
                for loc, img in run:
                    part.mark_durable(loc, img)
                    self.persisted += 1
        if part.integrity is not None:
            # Fold the freshly settled objects into parity + ledger and
            # flush the integrity metadata with this same batch.
            yield from part.integrity.settle_batch(
                [(loc, raws.get(loc)) for loc, _img in ok]
            )

    def _next_due(self) -> ObjectLocation | None:
        if self.queue:
            return self.queue.popleft()
        if self.retry and self.retry[0][0] <= self.env.now:
            return self.retry.popleft()[1]
        return None

    def _process_one(self, loc: ObjectLocation) -> Generator[Event, Any, None]:
        part = self.part
        cfg = self.server.config
        yield self.env.timeout(cfg.peek_ns)
        img = part.read_object(loc)

        if not img.well_formed:
            # Header unreadable (should not happen: metadata was persisted
            # at allocation) — treat as pending until timeout.
            yield from self._retry_or_invalidate(loc, None)
            return
        if img.durable or not img.valid:
            # The GET handler beat us to it, or a timeout invalidated it.
            self.skipped += 1
            return

        # Integrity verification: CRC over the value.
        yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
        self.verified += 1
        if part.object_value_ok(img):
            yield from part.settle_verified(loc, img)
            self.persisted += 1
            return
        yield from self._retry_or_invalidate(loc, img)

    def _retry_or_invalidate(
        self, loc: ObjectLocation, img
    ) -> Generator[Event, Any, None]:
        cfg = self.server.config
        ts = img.ts if img is not None and img.well_formed else 0
        if self.env.now - ts > cfg.verify_timeout_ns:
            # The write never completed: mark invalid (§4.3.2); log
            # cleaning reclaims the space.
            if img is not None:
                self.part.set_object_flags(loc, img.flags & ~FLAG_VALID)
                self.server.device.flush(
                    self.part.pools[loc.pool].abs_addr(loc.offset), 8
                )
            self.invalidated += 1
            yield self.env.timeout(cfg.nvm_timing.store_ns)
            return
        self.requeued += 1
        self.retry.append((self.env.now + cfg.bg_retry_delay_ns, loc))
        yield self.env.timeout(0)

    def stats(self) -> dict[str, int]:
        return {
            "verified": self.verified,
            "persisted": self.persisted,
            "invalidated": self.invalidated,
            "skipped": self.skipped,
            "requeued": self.requeued,
            "backlog": self.backlog,
            "batches": self.batches,
            "coalesced_flushes": self.coalesced_flushes,
            "wakeups": self.wakeups,
        }
