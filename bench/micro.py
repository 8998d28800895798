"""``layer-micro``: single-threaded timed loops over exported functions.

Each cell calls one layer's public (``__all__``) functions a fixed number of
times, five times over, and reports the median time per call. The working set
is small, so these per-layer host costs repeat far tighter than the
1k-client cells and tell a layer regression from machine noise. Every cell
checks its output.

The verb cells draw their payload sizes from the seed and record the
simulated latency of every call, which gives this workload its simulated
clock: the analytic fast path and the event path must report the same
nanoseconds for the same sizes.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Generator
from typing import Any

import numpy as np

from repro.crc import crc32, crc32_fast
from repro.kv import (
    FLAG_VALID,
    HashTableGeometry,
    NvmHashTable,
    Slot,
    build_header,
    key_fingerprint,
    parse_object,
)
from repro.loadgen.arrivals import ArrivalCurve
from repro.mem import CACHELINE, PersistentBuffer
from repro.nvm import NVMDevice
from repro.rdma import Fabric, RpcClient, RpcServer
from repro.sim import Environment, Event, RngRegistry
from repro.workloads import WORKLOADS, make_key, make_value

__all__ = ["CELLS", "run_cells"]

_REPEATS = 5
_MR_BYTES = 1 << 20
_SLOT_BYTES = 4096
_SLOTS = _MR_BYTES // _SLOT_BYTES


class CellFailure(Exception):
    """A cell's output check failed."""


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise CellFailure(what)


# -- sim ------------------------------------------------------------------------
# A cell clocks its own loop and checks its output after stopping the clock;
# it returns (start, end, simulated latencies or None).

Cell = Callable[[], "tuple[float, float, list[float] | None]"]


def _kernel_drain(n: int, _rng: np.random.Generator) -> Cell:
    offsets = [float((1103515245 * i + 12345) % 160_000) for i in range(n)]

    def cell():
        env = Environment()
        timeout = env.timeout
        t0 = time.perf_counter()
        for off in offsets:
            timeout(off)
        env.run()
        t1 = time.perf_counter()
        _expect(env.events_processed == n, "kernel drain lost events")
        return t0, t1, None

    return cell


def _kernel_ping(n: int, _rng: np.random.Generator) -> Cell:
    def cell():
        env = Environment()
        waiting: list[Event] = []
        woken = [0]

        def pinger() -> Generator[Event, Any, None]:
            for _ in range(n):
                yield env.timeout(100.0)
                waiting.pop().succeed()

        def ponger() -> Generator[Event, Any, None]:
            for _ in range(n):
                ev = env.event()
                waiting.append(ev)
                yield ev
                woken[0] += 1

        t0 = time.perf_counter()
        env.process(ponger(), name="pong")
        env.run(env.process(pinger(), name="ping"))
        env.run()
        t1 = time.perf_counter()
        _expect(woken[0] == n and env.now == 100.0 * n, "ping-pong out of step")
        return t0, t1, None

    return cell


# -- rdma -----------------------------------------------------------------------

class _VerbRig:
    """A connected endpoint pair over a 1 MiB registered region."""

    def __init__(self, fastpath: bool) -> None:
        self.env = Environment()
        self.fabric = Fabric(self.env)
        self.fabric.fastpath = fastpath
        self.server = self.fabric.create_node("s", device=NVMDevice(self.env, _MR_BYTES))
        self.ep = self.fabric.connect(self.fabric.create_node("c"), self.server)
        self.rkey = self.server.register_memory(0, _MR_BYTES).rkey


def _verb_cell(verb: str, fastpath: bool):
    def make(n: int, rng: np.random.Generator) -> Cell:
        # One payload per 4 KiB slot of the region, sizes drawn from the seed;
        # call i uses slot i mod 256.
        sizes = rng.integers(64, _SLOT_BYTES + 1, size=_SLOTS).tolist()
        payloads = [bytes([j]) * size for j, size in enumerate(sizes)]

        def cell():
            rig = _VerbRig(fastpath)
            env, ep, rkey = rig.env, rig.ep, rig.rkey
            buf = rig.server.device.buffer
            latencies: list[float] = []
            bad = [0]

            def writes() -> Generator[Event, Any, None]:
                for i in range(n):
                    j = i % _SLOTS
                    t0 = env.now
                    yield from ep.write(rkey, j * _SLOT_BYTES, payloads[j])
                    latencies.append(env.now - t0)

            def reads() -> Generator[Event, Any, None]:
                for i in range(n):
                    j = i % _SLOTS
                    t0 = env.now
                    got = yield from ep.read(rkey, j * _SLOT_BYTES, sizes[j])
                    latencies.append(env.now - t0)
                    if got != payloads[j]:
                        bad[0] += 1

            if verb == "read":
                for j, data in enumerate(payloads):
                    buf.write(j * _SLOT_BYTES, data)
            t0 = time.perf_counter()
            env.run(env.process(writes() if verb == "write" else reads(), name=verb))
            t1 = time.perf_counter()
            if verb == "write":
                landed = all(
                    buf.read(j * _SLOT_BYTES, sizes[j]) == payloads[j]
                    for j in range(min(n, _SLOTS))
                )
                _expect(landed, "WRITE did not land")
            _expect(bad[0] == 0, "READ returned other bytes than were written")
            _expect((rig.fabric.fastpath_ops > 0) == fastpath, "verb took the wrong path")
            return t0, t1, latencies

        return cell

    return make


def _rpc(n: int, rng: np.random.Generator) -> Cell:
    request_bytes = rng.integers(32, 1025, size=n).tolist()

    def cell():
        rig = _VerbRig(fastpath=True)
        env = rig.env
        server = RpcServer(env, rig.server)

        def echo(msg: Any) -> Generator[Event, Any, tuple[Any, int]]:
            return {"echo": msg.payload["n"]}, 32
            yield  # pragma: no cover - makes this a generator

        server.register("echo", echo)
        server.start()
        client = RpcClient(rig.ep)
        latencies: list[float] = []
        bad = [0]

        def calls() -> Generator[Event, Any, None]:
            for i in range(n):
                t0 = env.now
                resp = yield from client.call({"op": "echo", "n": i}, request_bytes[i])
                latencies.append(env.now - t0)
                if resp["echo"] != i:
                    bad[0] += 1

        t0 = time.perf_counter()
        env.run(env.process(calls(), name="rpc"))
        t1 = time.perf_counter()
        server.stop()
        _expect(bad[0] == 0 and server.served_by_op.get("echo") == n, "RPC echo mismatch")
        return t0, t1, latencies

    return cell


# -- mem / crc / kv -----------------------------------------------------------------

def _flush(length: int):
    def make(n: int, _rng: np.random.Generator) -> Cell:
        data = b"\xa5" * length
        span = 256 * 1024
        stride = max(length, CACHELINE)

        def cell():
            buf = PersistentBuffer(span)
            write, flush = buf.write, buf.flush
            t0 = time.perf_counter()
            for i in range(n):
                addr = (i * stride) % span
                write(addr, data)
                flush(addr, length)
            t1 = time.perf_counter()
            _expect(buf.is_persistent(0, span), "flushed range is not persistent")
            _expect(buf.read_durable(0, length) == data, "durable image differs")
            _expect(buf.stats.flush_calls == n, "flush calls not counted")
            return t0, t1, None

        return cell

    return make


def _crc_kib(n: int, rng: np.random.Generator) -> Cell:
    block = rng.bytes(1024)
    expected = crc32(block)

    def cell():
        value = 0
        t0 = time.perf_counter()
        for _ in range(n):
            value = crc32_fast(block)
        t1 = time.perf_counter()
        _expect(value == expected, "crc32_fast disagrees with the reference")
        _expect(crc32_fast(b"123456789") == 0xCBF43926, "CRC-32 known answer")
        return t0, t1, None

    return cell


def _object(n: int, _rng: np.random.Generator) -> Cell:
    key = make_key(7)
    value = make_value(7, 3, 128)
    crc = crc32_fast(value)

    def cell():
        img = None
        t0 = time.perf_counter()
        for _ in range(n):
            raw = build_header(flags=FLAG_VALID, klen=len(key), vlen=len(value), crc=crc)
            img = parse_object(raw + key + value)
        t1 = time.perf_counter()
        _expect(
            img is not None and img.well_formed and img.key == key
            and img.value == value and img.crc == crc and img.valid,
            "object did not survive build+parse",
        )
        return t0, t1, None

    return cell


def _hashtable(n: int, _rng: np.random.Generator) -> Cell:
    geom = HashTableGeometry(n_buckets=max(64, n))
    fps = [key_fingerprint(make_key(k)) for k in range(n)]

    def cell():
        table = NvmHashTable(NVMDevice(Environment(), geom.table_bytes), 0, geom)
        found = 0
        t0 = time.perf_counter()
        for i, fp in enumerate(fps):
            table.set_cur(table.find_or_create(fp), Slot(0, 208, i * 256))
        for i, fp in enumerate(fps):
            slot = table.read_cur(table.find(fp))
            if slot is not None and slot.offset == i * 256:
                found += 1
        t1 = time.perf_counter()
        _expect(found == n, "hash table lost an entry")
        return t0, t1, None

    return cell


# -- workloads / loadgen --------------------------------------------------------------

_PER_CLIENT = 50  # ops generated per call, as one load-workload client needs


def _stream(n: int, rng: np.random.Generator) -> Cell:
    spec = WORKLOADS["YCSB-A"](key_count=8192, value_len=128)

    def cell():
        ops: list = []
        t0 = time.perf_counter()
        for _ in range(n // _PER_CLIENT):
            ops += spec.client_stream(rng, _PER_CLIENT)
        t1 = time.perf_counter()
        _expect(
            len(ops) == n and all(0 <= op.key_id < 8192 for op in ops),
            "client_stream out of range",
        )
        return t0, t1, None

    return cell


def _arrivals(n: int, rng: np.random.Generator) -> Cell:
    curve = ArrivalCurve()

    def cell():
        scheds = []
        t0 = time.perf_counter()
        for _ in range(n // _PER_CLIENT):
            scheds.append(curve.arrivals(rng, 2e-6, _PER_CLIENT))
        t1 = time.perf_counter()
        _expect(
            all(len(s) == _PER_CLIENT and bool(np.all(np.diff(s) > 0)) for s in scheds),
            "arrival schedule not ascending",
        )
        return t0, t1, None

    return cell


#: name -> (layer, calls per repeat, factory). For ``stream`` and ``arrivals``
#: a call is one generated op, made 50 at a time as a load client needs them.
CELLS: dict[str, tuple[str, int, Callable[[int, np.random.Generator], Cell]]] = {
    "kernel_drain": ("sim", 20_000, _kernel_drain),
    "kernel_ping": ("sim", 12_000, _kernel_ping),
    "read_fast": ("rdma", 4_000, _verb_cell("read", True)),
    "write_fast": ("rdma", 4_000, _verb_cell("write", True)),
    "read_event": ("rdma", 2_000, _verb_cell("read", False)),
    "write_event": ("rdma", 2_000, _verb_cell("write", False)),
    "rpc": ("rdma", 1_500, _rpc),
    "flush_line": ("mem", 10_000, _flush(CACHELINE)),
    "flush_4k": ("mem", 2_000, _flush(4096)),
    "crc_kib": ("crc", 60_000, _crc_kib),
    "object": ("kv", 10_000, _object),
    "hashtable": ("kv", 2_000, _hashtable),
    "stream": ("workloads", 150 * _PER_CLIENT, _stream),
    "arrivals": ("loadgen", 2_000 * _PER_CLIENT, _arrivals),
}


def run_cells(seed: int, shrink: int, sampler: Any, spans: Any) -> dict[str, Any]:
    """Run every cell ``_REPEATS`` times; returns total calls, timed seconds,
    per-cell median µs per call (calibrated, see ``bench/calibrate.py``), the
    simulated verb latencies by cell, and what failed its check.
    ``sampler`` (or None) is armed around each cell.
    """
    cell_us: dict[str, float] = {}
    sim_ns: dict[str, list[float]] = {}
    problems: list[str] = []
    calls = 0
    timed_s = 0.0
    for name, (_layer, n, factory) in CELLS.items():
        n = max(_PER_CLIENT, n // shrink // _PER_CLIENT * _PER_CLIENT)
        # The fast and event variants of a verb share a stream, hence sizes.
        stream = name.split("_")[0] if name.endswith(("_fast", "_event")) else name
        cell = factory(n, RngRegistry(seed).stream(stream))
        times: list[float] = []
        try:
            for _ in range(_REPEATS):
                if sampler is not None:
                    sampler.start()
                try:
                    t0, t1, latencies = cell()
                finally:
                    if sampler is not None:
                        sampler.stop()
                times.append(spans.add(f"measured.{name}", t0, t1))
                calls += n
                if latencies is not None:
                    sim_ns[name] = latencies
        except CellFailure as exc:
            problems.append(f"{name}: {exc}")
        timed_s += sum(times)
        cell_us[name] = statistics.median(times) / n * 1e6 if times else 0.0
    for verb in ("read", "write"):
        fast, event = sim_ns.get(f"{verb}_fast", []), sim_ns.get(f"{verb}_event", [])
        common = min(len(fast), len(event))
        if common == 0 or fast[:common] != event[:common]:
            problems.append(f"{verb}: fast path and event path disagree on simulated ns")
    return {
        "calls": calls,
        "timed_s": timed_s,
        "cell_us": cell_us,
        "sim_ns": sim_ns,
        "problems": problems,
    }
