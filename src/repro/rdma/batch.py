"""Cross-client verb-completion batching (opt-in; see DESIGN.md §15).

With thousands of open-loop clients, most simulator work is completion
wake-ups: every verb's final timer is its own kernel event, so a 1k-client
fan-in schedules and dispatches a thousand near-simultaneous timeouts.
The :class:`CompletionBatcher` coalesces them: a completion wait due at
time ``t`` wakes at ``ceil(t / bucket_ns) * bucket_ns`` — the next edge
of the batcher's own fixed time grid (the kernel has none). Each occupied
grid tick is **one plain kernel event**, scheduled once at the tick's
instant, and every wait on that tick *is* that event: its waiters
subscribe to it directly, so a lone waiter is resumed by
:meth:`~repro.sim.kernel.Environment.run`'s sole-waiter path and several
are resumed by the kernel's dispatch in registration order. No wait
allocates an event of its own. This amortizes scheduling across clients
the way doorbell batching (``Endpoint.write_many``) amortizes work
requests.

The price is an upward latency quantization of strictly less than
``bucket_ns`` (default 128 ns) per batched wait. That
shifts individual completion times, so batching is **default-off** and
armed only by the open-loop load engine
(:meth:`~repro.rdma.fabric.Fabric.enable_completion_batching`); with it
off, every verb takes its usual ``timeout``/``timeout_at`` waits and
fig1/fig2, the crash matrix, and the pinned macro cell
(``tests/harness/test_fastpath.py::TestExactEquivalence::
test_macro_cell_same_ns_fewer_events``) stay bit-identical. Determinism is unaffected either way: grid ticks and
registration order are pure functions of simulated execution.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import ceil

from repro.sim.kernel import Environment, Event

__all__ = ["CompletionBatcher"]


class CompletionBatcher:
    """Coalesces completion waits onto a shared time grid.

    The tick table maps each occupied grid tick to its event: a plain
    :class:`~repro.sim.kernel.Event` (never a pooled ``Timeout``, whose
    recycled object could still sit in the table), succeeded and
    scheduled at the tick's instant when its first wait registers. Later
    waits for the tick get the same event, so ``events per op`` drops as
    concurrency grows. A wait for a tick whose event was already
    dispatched (possible only at that very instant) gets a fresh event
    there. Ticks dispatch in tick order, so dispatched ones are dropped
    from the low end of the table whenever a new tick is armed; the
    table holds only the ticks of the waits still in flight.
    """

    __slots__ = (
        "env", "bucket_ns", "_inv", "_ticks", "_order", "_armed", "batched_waits",
    )

    def __init__(self, env: Environment, bucket_ns: float = 128.0) -> None:
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns!r}")
        self.env = env
        self.bucket_ns = bucket_ns
        self._inv = 1.0 / bucket_ns
        #: tick number -> the kernel event of that grid edge.
        self._ticks: dict[int, Event] = {}
        #: Min-heap of the tick numbers in ``_ticks`` (one entry each).
        self._order: list[int] = []
        #: Tick events ever scheduled.
        self._armed = 0
        #: Completion waits that went through the batcher.
        self.batched_waits = 0

    def wait_until(self, when: float) -> Event:
        """The event that succeeds at the first grid edge >= ``when``.

        Yield it where a verb would otherwise ``yield env.timeout_at(when)``.
        """
        tick = ceil(when * self._inv)
        ticks = self._ticks
        ev = ticks.get(tick)
        if ev is None or ev.callbacks is None:
            env = self.env
            fresh = Event(env)
            fresh._value = None
            env.schedule_at(fresh, tick * self.bucket_ns)
            ticks[tick] = fresh
            self._armed += 1
            if ev is None:
                order = self._order
                heappush(order, tick)
                while ticks[order[0]].callbacks is None:
                    del ticks[heappop(order)]
            ev = fresh
        self.batched_waits += 1
        return ev

    @property
    def batches(self) -> int:
        """Grid ticks dispatched (each = one kernel event). Every tick
        event not yet dispatched is still in the table."""
        return self._armed - sum(
            ev.callbacks is not None for ev in self._ticks.values()
        )

    @property
    def pending(self) -> int:
        """Waits currently registered and not yet resumed: the
        subscribers of the tick events not yet dispatched."""
        return sum(
            (ev._waiter is not None) + len(ev.callbacks)
            for ev in self._ticks.values()
            if ev.callbacks is not None
        )
