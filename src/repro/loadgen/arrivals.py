"""Open-loop arrival processes (constant, diurnal, burst).

Closed-loop clients (the harness runner) issue their next operation the
instant the previous one completes, so the offered load adapts to the
store and queueing never builds up. The load engine instead drives each
client by a pregenerated *arrival schedule*: operation ``j`` is due at
``t_j`` regardless of how long operation ``j-1`` took. Latency is then
measured from the scheduled arrival, which keeps the numbers free of
coordinated omission — a slow op delays its successors and that delay
is charged to them, exactly as an external client population would
experience it.

Schedules are Poisson at a mean rate, optionally modulated by a rate
*curve*: ``diurnal`` (sinusoidal day/night swing) or ``burst``
(periodic windows at a multiple of the base rate). Shaped curves are
sampled by Lewis–Shedler thinning against the curve's peak rate, which
is exact for any bounded rate function and stays fully deterministic
given the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Literal

import numpy as np

from repro.errors import ConfigError

__all__ = ["ArrivalCurve"]

CurveKind = Literal["constant", "diurnal", "burst"]


@dataclass(frozen=True)
class ArrivalCurve:
    """Shape of the offered-load rate over time (times in ns).

    The curve multiplies a tenant's mean rate: ``rate(t) = mean_rate *
    rate_factor(t)``. ``constant`` is plain Poisson; ``diurnal`` swings
    ``1 ± amplitude`` over ``period_ns``; ``burst`` runs at
    ``burst_factor``× for the first ``burst_len_ns`` of every
    ``burst_every_ns`` window and at 1× otherwise. Only ``kind`` is a
    field; the shape constants are class attributes (a subclass may
    override them).
    """

    kind: CurveKind = "constant"
    #: diurnal swing as a fraction of the mean rate, in [0, 1].
    amplitude: ClassVar[float] = 0.5
    period_ns: ClassVar[float] = 5_000_000.0
    burst_factor: ClassVar[float] = 4.0
    burst_every_ns: ClassVar[float] = 2_000_000.0
    burst_len_ns: ClassVar[float] = 400_000.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "diurnal", "burst"):
            raise ConfigError(f"unknown arrival curve kind {self.kind!r}")

    # -- rate shape ----------------------------------------------------------
    def rate_factor(self, t_ns: float) -> float:
        """Instantaneous rate multiplier at absolute time ``t_ns``."""
        if self.kind == "constant":
            return 1.0
        if self.kind == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * t_ns / self.period_ns
            )
        return (
            self.burst_factor
            if (t_ns % self.burst_every_ns) < self.burst_len_ns
            else 1.0
        )

    def peak_factor(self) -> float:
        """Upper bound of :meth:`rate_factor` (thinning envelope)."""
        if self.kind == "constant":
            return 1.0
        if self.kind == "diurnal":
            return 1.0 + self.amplitude
        return self.burst_factor

    # -- schedule generation -------------------------------------------------
    def arrivals(
        self,
        rng: np.random.Generator,
        mean_rate_per_ns: float,
        n: int,
        t0: float = 0.0,
    ) -> np.ndarray:
        """``n`` absolute arrival times after ``t0`` (ascending float64).

        ``mean_rate_per_ns`` is the *base* rate; shaped curves modulate
        it via :meth:`rate_factor`.
        """
        if mean_rate_per_ns <= 0:
            raise ConfigError("mean arrival rate must be positive")
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        if self.kind == "constant":
            gaps = rng.exponential(1.0 / mean_rate_per_ns, size=n)
            return t0 + np.cumsum(gaps)
        # Lewis–Shedler thinning against the peak rate: draw candidate
        # arrivals at the envelope rate, keep each with probability
        # rate_factor(t)/peak. Candidates are drawn in vectorised blocks.
        peak = self.peak_factor()
        peak_rate = mean_rate_per_ns * peak
        out = np.empty(n, dtype=np.float64)
        t = t0
        i = 0
        block = max(64, n)
        while i < n:
            gaps = rng.exponential(1.0 / peak_rate, size=block)
            us = rng.random(block)
            for g, u in zip(gaps.tolist(), us.tolist()):
                t += g
                if u * peak <= self.rate_factor(t):
                    out[i] = t
                    i += 1
                    if i == n:
                        break
        return out
