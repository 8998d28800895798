"""Cross-client verb-completion batching (opt-in; see DESIGN.md §15).

With thousands of open-loop clients, most simulator work is completion
wake-ups: every verb's final timer is its own kernel event, so a 1k-client
fan-in schedules and dispatches a thousand near-simultaneous timeouts.
The :class:`CompletionBatcher` coalesces them: a completion wait due at
time ``t`` wakes at ``ceil(t / bucket_ns) * bucket_ns`` — the next edge
of the batcher's own fixed time grid (the kernel has none) —
and **all waits sharing a grid tick are resumed by one kernel event**, in
registration order. This amortizes scheduling across clients the way
PR 5's doorbell batching amortized work requests.

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

from math import ceil

from repro.sim.kernel import Environment, Event

__all__ = ["CompletionBatcher"]


class CompletionBatcher:
    """Coalesces completion waits onto a shared time grid.

    One pending kernel event exists per occupied grid tick; its dispatch
    resumes every wait registered for that tick directly (no per-waiter
    event is ever scheduled), so ``events per op`` drops as concurrency
    grows.
    """

    __slots__ = ("env", "bucket_ns", "_inv", "_ticks", "batches", "batched_waits")

    def __init__(self, env: Environment, bucket_ns: float = 128.0) -> None:
        if bucket_ns <= 0:
            raise ValueError(f"bucket_ns must be positive, got {bucket_ns!r}")
        self.env = env
        self.bucket_ns = bucket_ns
        self._inv = 1.0 / bucket_ns
        #: tick number -> waiter events registered for that grid edge.
        #: A tick's presence implies one armed kernel event for it.
        self._ticks: dict[int, list[Event]] = {}
        #: Grid ticks dispatched (each = one kernel event).
        self.batches = 0
        #: Completion waits that went through the batcher.
        self.batched_waits = 0

    def wait_until(self, when: float) -> Event:
        """An event that succeeds at the first grid edge >= ``when``.

        Yield it where a verb would otherwise ``yield env.timeout_at(when)``.
        """
        tick = ceil(when * self._inv)
        waiters = self._ticks.get(tick)
        ev = Event(self.env)
        if waiters is None:
            self._ticks[tick] = [ev]
            self._arm(tick)
        else:
            waiters.append(ev)
        self.batched_waits += 1
        return ev

    def _arm(self, tick: int) -> None:
        env = self.env
        fire = Event(env)
        fire._ok = True
        fire._value = tick
        fire.callbacks.append(self._fire)
        env.schedule_at(fire, tick * self.bucket_ns)

    def _fire(self, fire_ev: Event) -> None:
        """Dispatch one grid tick: resume every registered waiter in
        registration order, without scheduling per-waiter events."""
        self.batches += 1
        for ev in self._ticks.pop(fire_ev._value):
            callbacks = ev.callbacks
            if callbacks is None:
                continue  # defensive: already resolved elsewhere
            ev._ok = True
            ev._value = None
            ev.callbacks = None
            waiter = ev._waiter
            if waiter is not None:
                ev._waiter = None
                waiter._target = None
                waiter._step(None, throw=False)
            for callback in callbacks:
                callback(ev)

    @property
    def pending(self) -> int:
        """Waits currently registered and not yet resumed."""
        return sum(len(w) for w in self._ticks.values())
