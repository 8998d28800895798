"""Tracing from outside: a sampling profiler keyed on layer, public-counter
snapshots, and host-clock phase spans.

Nothing here reaches into ``src/``: the sampler looks only at frame file
names, the counters are the attributes the packages already publish, and
spans are recorded by the benchmark's own code around its calls into each
layer. cProfile was measured at 3.4x slowdown on ``load-write-1k`` and
rejected; a 2 ms ``ITIMER_PROF`` sampler stays within run-to-run noise.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

import repro

from bench.calibrate import Calibrator

__all__ = ["LAYERS", "Sampler", "Spans", "snapshot", "delta"]

#: The attribution layers: the ``repro`` packages the workloads execute,
#: plus ``driver`` for everything under ``bench/``. Frames elsewhere under
#: ``src/repro`` (``util``, ``stores.py``, ``errors.py``) and in numpy or
#: the standard library are charged to the nearest enclosing layer frame.
LAYERS = (
    "sim", "rdma", "mem", "nvm", "crc", "kv", "core", "baselines",
    "faults", "workloads", "loadgen", "harness", "driver",
)

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep
_CALIBRATE = os.path.join(_BENCH_ROOT, "calibrate.py")
_SAMPLE_S = 0.002
_SKIP = "(skip)"  # a sample that landed in the calibrator's reference loop


def _layer_of(filename: str) -> str | None:
    if filename == _CALIBRATE:
        return _SKIP
    if filename.startswith(_REPRO_ROOT):
        head = filename[len(_REPRO_ROOT):].split(os.sep, 1)[0]
        return head if head in LAYERS else None
    if filename.startswith(_BENCH_ROOT):
        return "driver"
    return None


class Sampler:
    """Counts CPU-time samples per layer while armed.

    Each ``SIGPROF`` is charged to the innermost frame whose file lies in a
    layer, so time spent in numpy or the standard library lands on the
    layer that called out.
    """

    def __init__(self) -> None:
        self.samples: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._by_file: dict[str, str | None] = {}
        self._previous: Any = None

    def _on_signal(self, _signum: int, frame: Any) -> None:
        by_file = self._by_file
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = by_file.get(filename, "")
            if layer == "":
                layer = by_file[filename] = _layer_of(filename)
            if layer is not None:
                if layer is not _SKIP:
                    self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["driver"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, _SAMPLE_S, _SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


class Spans:
    """Host-clock phase spans of one repetition: ``(name, start_s, end_s)``
    in wall seconds since the repetition's process was spawned, and their
    lengths in calibrated seconds (see :mod:`bench.calibrate`)."""

    def __init__(self, spawned_at: float, calibrator: Calibrator) -> None:
        #: ``perf_counter`` reading at the moment the process was spawned.
        self.origin = time.perf_counter() - (time.time() - spawned_at)
        self._calibrator = calibrator
        self.rows: list[tuple[str, float, float]] = []

    def add(self, name: str, t0: float, t1: float) -> float:
        """Record a span between two ``perf_counter`` instants; returns its
        length in calibrated seconds."""
        self.rows.append((name, t0 - self.origin, t1 - self.origin))
        return self._calibrator.seconds(t0, t1)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, t0, time.perf_counter())

    def _named(self, names: tuple[str, ...]) -> list[tuple[float, float]]:
        """Spans called one of ``names``, or ``<name>.<detail>``."""
        return [
            (start, end) for name, start, end in self.rows
            if name.split(".", 1)[0] in names
        ]

    def wall(self, *names: str) -> float:
        return sum(end - start for start, end in self._named(names))

    def calibrated(self, *names: str) -> float:
        return sum(
            self._calibrator.seconds(self.origin + start, self.origin + end)
            for start, end in self._named(names)
        )


def _add(into: dict[str, float], prefix: str, values: dict[str, Any]) -> None:
    for key, value in values.items():
        if isinstance(value, dict):
            _add(into, f"{prefix}.{key}", value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            name = f"{prefix}.{key}"
            into[name] = into.get(name, 0) + value


def snapshot(setup: Any) -> dict[str, float]:
    """Flatten every public counter of a deployed store into one dict."""
    env, fabric, server = setup.env, setup.fabric, setup.server
    out: dict[str, float] = {
        "env.events_processed": env.events_processed,
        "env.events_scheduled": env.events_scheduled,
        "fabric.fastpath_ops": fabric.fastpath_ops,
        "fabric.fallback_ops": fabric.fallback_ops,
    }
    if fabric.batcher is not None:
        out["batcher.batches"] = fabric.batcher.batches
        out["batcher.batched_waits"] = fabric.batcher.batched_waits
    for client in setup.clients:
        _add(out, "endpoint", client.ep.stats)
        _add(out, "endpoint", client.ep.peer.stats)
        if hasattr(client, "read_stats"):
            _add(out, "reads", client.read_stats())
        res = client.resilience
        if res is not None:
            _add(out, "resilience", {"retries": res.retries, "gave_up": res.gave_up})
    _add(out, "rpc", server.rpc.served_by_op)
    stats = server.device.buffer.stats
    _add(out, "buffer", {name: getattr(stats, name) for name in type(stats).__slots__})
    if hasattr(server, "metrics"):
        metrics = server.metrics()
        for section in ("verifier", "admission"):
            _add(out, section, metrics.get(section, {}))
    return out


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counter movement over the measured phase. Gauges (``backlog``,
    ``inflight``, ``watermark``, ``peak_inflight``) keep their end value."""
    gauges = ("backlog", "inflight", "watermark")
    return {
        key: value if key.endswith(gauges) else value - before.get(key, 0)
        for key, value in after.items()
    }
