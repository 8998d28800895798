"""Calibrated host seconds: wall time scaled by the machine's speed right now.

This sandbox's CPU speed wanders by up to 2x over seconds (a noisy
neighbour; CPU time equals wall time, so it is not preemption). Measured
here on ``load-read-1k``, 14 identical repetitions spread 18 % in raw
ops per wall second (first to third quartile over the median) and 1.48x from
slowest to fastest. A tight arithmetic loop run alongside slows down *more*
than the simulator does, so dividing by it over-corrects (spread 9 %, no
better than raw). A loop that does what the simulator does — generators
resumed from a heap, a small dict per step — tracks it: the same 14
repetitions spread 4 % and 1.08x once divided by its speed.

So every repetition runs that frozen reference loop for about 0.1 ms every
5 ms from a timer signal, and host durations are reported in *calibrated
seconds*: wall seconds, minus the time spent in the reference loop, times
the reference loop's speed over that interval relative to a fixed nominal
speed (:data:`NOMINAL_LOOP_S`, this sandbox at its fastest). On a quiet
machine of that speed a calibrated second is a wall second.

The reference loop is part of the benchmark and frozen with it: a change to
the simulator cannot speed it up, so a real gain still shows.
"""

from __future__ import annotations

import heapq
import signal
import time
from bisect import bisect_left, bisect_right
from collections.abc import Generator

__all__ = ["NOMINAL_LOOP_S", "Calibrator", "reference_loop"]

#: Wall seconds one reference loop takes on this sandbox at its fastest.
NOMINAL_LOOP_S = 1.0 / 9000.0
_PERIOD_S = 0.005
_MIN_SAMPLES = 3


def reference_loop(procs: int = 8, steps: int = 25) -> int:
    """A frozen miniature event loop; returns the processes finished."""

    def proc(i: int) -> Generator[float, float, None]:
        for s in range(steps):
            note = {"op": "x", "n": s, "k": (i, s)}
            yield 100.0 + ((i * 31 + s * 17) % 13)
            if note["n"] != s:
                raise RuntimeError("reference loop corrupted")

    heap: list = []
    seq = 0
    now = 0.0
    for g in [proc(i) for i in range(procs)]:
        seq += 1
        heapq.heappush(heap, (now + g.send(None), seq, g))
    done = 0
    while heap:
        now, _, g = heapq.heappop(heap)
        try:
            delay = g.send(now)
        except StopIteration:
            done += 1
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, g))
    return done


class Calibrator:
    """Runs the reference loop from ``ITIMER_REAL`` and converts intervals
    of ``time.perf_counter()`` into calibrated seconds."""

    def __init__(self) -> None:
        self._ends: list[float] = []  # perf_counter when a sample finished
        self._cum: list[float] = []   # cumulative seconds inside samples

    def _on_signal(self, _signum: int, _frame: object) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self._cum.append((self._cum[-1] if self._cum else 0.0) + (t1 - t0))
        self._ends.append(t1)

    def start(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, _PERIOD_S, _PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0: float, t1: float) -> float:
        """Calibrated seconds between two ``perf_counter`` instants."""
        lo, hi = bisect_left(self._ends, t0), bisect_right(self._ends, t1)
        inside = self._cum[hi - 1] - (self._cum[lo - 1] if lo else 0.0) if hi > lo else 0.0
        n, spent = hi - lo, inside
        if n < _MIN_SAMPLES:
            # Too short to have its own speed: use the whole repetition's.
            n, spent = len(self._ends), (self._cum[-1] if self._cum else 0.0)
        speed = NOMINAL_LOOP_S * n / spent if spent > 0 else 1.0
        return (t1 - t0 - inside) * speed
