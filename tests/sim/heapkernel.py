"""The seed single-heap scheduler, kept as the tests' oracle.

:class:`HeapEnvironment` reproduces the original ``Environment`` queue:
one binary heap of ``(time, priority, sequence, event)`` tuples, a fresh
``Timeout`` object per ``timeout()`` call (no freelist), and a per-event
``step()`` method call. Event/Process semantics are shared with the live
kernel, so the two environments must produce identical simulations — the
oracle is naive on purpose (no fused key, no recycling), independent
enough to catch a mistake in either of those in
:class:`repro.sim.kernel.Environment`.

Not shipped: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event, StopSimulation, Timeout

__all__ = ["HeapEnvironment"]


class HeapEnvironment(Environment):
    """Drop-in :class:`Environment` with the seed heap-based scheduler."""

    __slots__ = ("_heap", "_popped")

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._popped = 0

    @property
    def events_processed(self) -> int:
        # Counted per pop, as the seed kernel did.
        return self._popped

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Seed behaviour: always allocate; never recycle.
        return Timeout(self, delay, value)

    def schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay!r})")
        self._seq += 1
        self.events_scheduled += 1
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, event))

    def schedule_at(self, event: Event, when: float, priority: int = 1) -> None:
        if when < self.now:
            raise SimulationError(f"cannot schedule into the past ({when!r})")
        self._seq += 1
        self.events_scheduled += 1
        heapq.heappush(self._heap, (when, priority, self._seq, event))

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        try:
            when, _prio, _seq, event = heapq.heappop(self._heap)
        except IndexError:
            raise SimulationError("step(): empty schedule") from None
        self.now = when
        self._popped += 1
        self._dispatch(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        if until is None:
            stop_at = float("inf")
        elif isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(self._stop_on)
            stop_at = float("inf")
        else:
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(
                    f"until={stop_at!r} is in the past (now={self.now!r})"
                )
        try:
            while self._heap and self._heap[0][0] <= stop_at:
                self.step()
        except StopSimulation as stop:
            return stop.value
        if isinstance(until, Event):
            raise SimulationError(
                "run() ran out of events before its target event triggered"
            )
        if until is not None:
            self.now = stop_at
        return None
