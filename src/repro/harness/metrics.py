"""Latency and throughput accounting for experiment runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigError

__all__ = ["LatencyRecorder", "LatencySummary", "summarize"]


class LatencyRecorder:
    """Collects per-operation latencies keyed by operation kind."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {}

    def record(self, kind: str, latency_ns: float) -> None:
        if latency_ns < 0:
            raise ConfigError(f"negative latency {latency_ns}")
        self._samples.setdefault(kind, []).append(latency_ns)

    def merge(self, other: "LatencyRecorder") -> None:
        for kind, vals in other._samples.items():
            self._samples.setdefault(kind, []).extend(vals)

    def kinds(self) -> list[str]:
        return sorted(self._samples)

    def array(self, kind: Optional[str] = None) -> np.ndarray:
        """Samples for one kind, or all kinds pooled."""
        if kind is not None:
            return np.asarray(self._samples.get(kind, ()), dtype=np.float64)
        if not self._samples:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in self._samples.values()]
        )

    def count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return len(self._samples.get(kind, ()))
        return sum(len(v) for v in self._samples.values())

    def percentile(self, q: float, kind: Optional[str] = None) -> float:
        arr = self.array(kind)
        if arr.size == 0:
            return float("nan")
        return float(np.percentile(arr, q))

    def median(self, kind: Optional[str] = None) -> float:
        return self.percentile(50.0, kind)

    def p99(self, kind: Optional[str] = None) -> float:
        return self.percentile(99.0, kind)

    def p999(self, kind: Optional[str] = None) -> float:
        return self.percentile(99.9, kind)

    def mean(self, kind: Optional[str] = None) -> float:
        arr = self.array(kind)
        return float(arr.mean()) if arr.size else float("nan")


@dataclass(frozen=True)
class LatencySummary:
    """Percentile digest of one sample population."""

    count: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_ns: float
    #: p99.9 — meaningful only for the thousand-client open-loop runs
    #: (closed-loop cells rarely collect enough samples for it).
    p999_ns: float = float("nan")

    @property
    def p50_us(self) -> float:
        return self.p50_ns / 1000.0


def summarize(recorder: LatencyRecorder, kind: Optional[str] = None) -> LatencySummary:
    arr = recorder.array(kind)
    if arr.size == 0:
        nan = float("nan")
        return LatencySummary(0, nan, nan, nan, nan, nan)
    return LatencySummary(
        count=int(arr.size),
        mean_ns=float(arr.mean()),
        p50_ns=float(np.percentile(arr, 50)),
        p95_ns=float(np.percentile(arr, 95)),
        p99_ns=float(np.percentile(arr, 99)),
        max_ns=float(arr.max()),
        p999_ns=float(np.percentile(arr, 99.9)),
    )
