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
from typing import Any, Optional, TYPE_CHECKING

from repro.baselines.base import Partition
from repro.crc.cost import CRC_COST
from repro.kv.hashtable import Slot
from repro.kv.objects import FLAG_VALID, value_intact
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
        self.queue: deque[Slot] = deque()
        #: Objects whose WRITE had not landed yet: (due_time, loc).
        self.retry: deque[tuple[float, Slot]] = deque()
        self._proc: Process | None = None
        #: Armed while an idle pass sleeps (``bg_batch > 1``); ``enqueue``
        #: fires it so the thread wakes on arrival, not on a poll tick.
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
    def enqueue(self, loc: Slot) -> None:
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
        """Drain up to ``bg_batch`` due objects per pass. An empty pass
        polls again after the server's ``bg_idle_poll_ns`` at
        ``bg_batch == 1`` (the paper's thread); above that it sleeps
        until work arrives, then lingers one poll period before
        draining."""
        bg_batch = self.server.config.bg_batch
        idle_poll_ns = self.server.bg_idle_poll_ns
        next_due = self._next_due
        try:
            while True:
                inj = self.server.fabric.injector
                if inj is not None:
                    act = inj.fire("bg.verifier", partition=self.part.part_id)
                    if act is not None and act.kind == "pause":
                        yield self.env.timeout(act.delay_ns)
                batch: list[Slot] = []
                while len(batch) < bg_batch:
                    loc = next_due()
                    if loc is None:
                        break
                    batch.append(loc)
                if not batch:
                    if bg_batch > 1:
                        # The linger below lets the in-flight doorbell
                        # WRITEs land (the alloc is enqueued before the
                        # value arrives), lets a pipelined burst
                        # accumulate into one batch, and gathers
                        # near-simultaneous retries into one pass with
                        # adjacent flush runs.
                        yield from self._idle_wait()
                    yield self.env.timeout(idle_poll_ns)
                    continue
                self.batches += 1
                yield from self._process_batch(batch)
        except Interrupt:
            return

    def _idle_wait(self) -> Generator[Event, Any, None]:
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
        self, batch: "list[Slot]"
    ) -> Generator[Event, Any, None]:
        """Verify a drained batch, then persist with coalesced flushes.

        CRC passes run back-to-back (the peek and checksum costs are
        still charged per object — batching removes the *poll* gaps and
        the per-object flush fences, not the work). All objects that
        verified are then flushed in runs: adjacent log allocations are
        contiguous, so one fence covers the whole run."""
        part = self.part
        integrity = part.integrity
        ok: list[tuple[Slot, Any]] = []
        raws: dict[Slot, Optional[bytes]] = {}
        for loc in batch:
            yield self.env.timeout(self.server.peek_ns)
            img = part.read_object(loc)
            if not img.well_formed:
                yield from self._retry_or_invalidate(loc, None)
                continue
            if img.durable or not img.valid:
                self.skipped += 1
                continue
            yield self.env.timeout(CRC_COST.cost_ns(img.vlen))
            self.verified += 1
            if value_intact(img):
                # Snapshot the verified pre-persist bytes: if the
                # settling persist itself corrupts the media, these are
                # what parity must cover so the scrubber can reconstruct
                # the good image.
                raws[loc] = integrity.snapshot(loc.pool, loc.offset, loc.size)
                ok.append((loc, img))
            else:
                yield from self._retry_or_invalidate(loc, img)
        if not ok:
            return
        # Coalesced flush: merge adjacent (pool, offset..offset+size)
        # ranges into single persist calls.
        by_pool: dict[int, list[tuple[Slot, Any]]] = {}
        for loc, img in ok:
            by_pool.setdefault(loc.pool, []).append((loc, img))
        for pool_id, members in by_pool.items():
            pool = part.pools[pool_id]
            mask = pool.align - 1
            members.sort(key=lambda m: m[0].offset)
            runs: list[list[tuple[Slot, Any]]] = [[members[0]]]
            for m in members[1:]:
                last = runs[-1][-1][0]
                # The bump allocator rounds every object to the pool's
                # alignment; the next adjacent object starts there.
                if m[0].offset == last.offset + ((last.size + mask) & ~mask):
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
        # Fold the freshly settled objects into parity + ledger and
        # flush the integrity metadata with this same batch.
        yield from integrity.settle_batch((loc, raws[loc]) for loc, _img in ok)

    def _next_due(self) -> Slot | None:
        if self.queue:
            return self.queue.popleft()
        if self.retry and self.retry[0][0] <= self.env.now:
            return self.retry.popleft()[1]
        return None

    def _retry_or_invalidate(
        self, loc: Slot, img
    ) -> Generator[Event, Any, None]:
        ts = img.ts if img is not None and img.well_formed else 0
        if self.env.now - ts > self.server.verify_timeout_ns:
            # The write never completed: mark invalid (§4.3.2); log
            # cleaning reclaims the space.
            if img is not None:
                self.part.set_object_flags(loc, img.flags & ~FLAG_VALID)
                self.server.device.flush(
                    self.part.pools[loc.pool].abs_addr(loc.offset), 8
                )
            self.invalidated += 1
            yield self.env.timeout(self.server.device.timing.store_ns)
            return
        self.requeued += 1
        # No yield: a requeue is bookkeeping, not a timed step. The
        # verifier's next step (the next peek) is already timed.
        self.retry.append((self.env.now + self.server.bg_retry_delay_ns, loc))

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
