"""The load driver: open- or closed-loop clients over a deployed store.

Built only from public functions — ``repro.stores.build_store``,
``client.put/get``, ``WORKLOADS[..].client_stream``,
``ArrivalCurve.arrivals``, ``fabric.enable_completion_batching`` and
``RetryPolicy`` — and deliberately not from ``run_load``/``run_experiment``:
those neither check the bytes a GET returns nor expose the deployed store,
and they fold preload and warm-up into their wall time.

Keys, values, op streams and arrival schedules are generated from the seed
during set-up (:func:`generate`); the store sees only the generated ops.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Generator
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.errors import StoreError
from repro.faults.policy import RetryPolicy
from repro.loadgen.arrivals import ArrivalCurve
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.stores import STORES, build_store
from repro.workloads import WORKLOADS, make_key, make_value

from bench.oracle import OpRecord, Oracle
from bench.trace import Sampler, Spans, delta, snapshot

__all__ = ["Shape", "Inputs", "StoreRun", "generate", "run_store"]

_SETTLE_NS = 20_000_000.0
_KEY_LEN = 16


@dataclass(frozen=True)
class Shape:
    """Sizes and deployment of one driver workload."""

    mix: str
    clients: int
    ops_per_client: int
    value_len: int
    key_count: int
    stores: tuple[str, ...] = ("efactory",)
    #: Open loop: each client's Poisson rate in ops/s. 0 = closed loop
    #: (the paper's section 6 method: next op as soon as the last completes).
    rate_per_client: float = 0.0
    #: Completion-batching grid in ns (0 = off).
    batch_ns: float = 0.0
    #: Admission watermark (0 = off); arms client retry, as sheds must re-offer.
    admission: int = 0
    #: Open loop: an op is good when it completes within this many ns of
    #: its due time. Closed loop has no limit (goodput = throughput).
    limit_ns: float = 0.0

    @property
    def open_loop(self) -> bool:
        return self.rate_per_client > 0

    def shrunk(self, divisor: int) -> "Shape":
        """The smoke-test size: about ``1/divisor`` of the ops and keys."""
        if self.open_loop:
            return replace(
                self,
                clients=max(2, self.clients // divisor),
                key_count=max(64, self.key_count // divisor),
            )
        return replace(
            self,
            ops_per_client=max(10, self.ops_per_client // divisor),
            key_count=max(64, self.key_count // divisor),
        )


#: One planned op: (is_put, key_id, key, version, value, due offset in ns).
PlannedOp = tuple[bool, int, bytes, int, Any, float]


@dataclass
class Inputs:
    preload: list[tuple[bytes, bytes]]
    plans: list[list[PlannedOp]]
    versions_per_key: list[int]


def generate(shape: Shape, seed: int) -> Inputs:
    """Every input of one repetition, as a pure function of ``seed``."""
    rngs = RngRegistry(seed)
    spec = WORKLOADS[shape.mix](key_count=shape.key_count, value_len=shape.value_len)
    keys = [make_key(k, _KEY_LEN) for k in range(shape.key_count)]
    preload = [(keys[k], make_value(k, 0, shape.value_len)) for k in range(shape.key_count)]
    versions = [0] * shape.key_count
    curve = ArrivalCurve()
    plans: list[list[PlannedOp]] = []
    for ci in range(shape.clients):
        ops = spec.client_stream(rngs.stream(f"c{ci}.ops"), shape.ops_per_client)
        if shape.open_loop:
            dues = curve.arrivals(
                rngs.stream(f"c{ci}.arrivals"), shape.rate_per_client / 1e9, len(ops)
            ).tolist()
        else:
            dues = [0.0] * len(ops)
        plan: list[PlannedOp] = []
        for op, due in zip(ops, dues):
            kid = op.key_id
            if op.kind == "get":
                plan.append((False, kid, keys[kid], 0, None, due))
            else:
                versions[kid] += 1
                value = make_value(kid, versions[kid], shape.value_len)
                plan.append((True, kid, keys[kid], versions[kid], value, due))
        plans.append(plan)
    return Inputs(preload=preload, plans=plans, versions_per_key=versions)


@dataclass
class StoreRun:
    """What one store produced under one shape."""

    store: str
    ops: int
    failed: int
    measured_s: float
    records: list[OpRecord]
    counters: dict[str, float]
    messages: list[str]


def _settle(env: Environment, server: Any) -> None:
    """Let eFactory's background verifier drain (a no-op elsewhere)."""
    deadline = env.now + _SETTLE_NS
    background = getattr(server, "background", None)
    while env.now < deadline:
        env.run(until=min(deadline, env.now + 50_000.0))
        if background is None or background.backlog == 0:
            break


def _pool_bytes(shape: Shape) -> int:
    """A pool the run never exhausts: cleaning is not what is measured."""
    obj = 64 + _KEY_LEN + shape.value_len
    puts = shape.key_count + shape.clients * shape.ops_per_client
    return max(32 << 20, int(puts * obj * 1.5))


def run_store(
    shape: Shape,
    store: str,
    inputs: Inputs,
    seed: int,
    spans: Spans,
    sampler: Sampler | None,
) -> StoreRun:
    """Deploy ``store``, preload, run the measured phase, audit outputs."""
    with spans.phase("deploy"):
        env = Environment()
        overrides: dict[str, Any] = {"pool_size": _pool_bytes(shape)}
        if store.startswith("efactory"):
            overrides["auto_clean"] = False
        if shape.admission > 0:
            overrides["admission_watermark"] = shape.admission
        setup = build_store(
            store, env, config_overrides=overrides, n_clients=shape.clients
        ).start()
        if shape.batch_ns > 0:
            setup.fabric.enable_completion_batching(shape.batch_ns)
        if shape.admission > 0:
            rngs = RngRegistry(seed)
            policy = RetryPolicy(timeout_ns=0.0)
            for i, client in enumerate(setup.clients):
                client.enable_resilience(policy, rngs.stream(f"retry{i}"))

    with spans.phase("preload"):
        def preload() -> Generator[Event, Any, None]:
            # One put at a time: put_many's doorbell batches overrun the
            # verify window at 4 KiB (16 CRCs > verify_timeout_ns), and the
            # verifier then invalidates objects whose PUT was acknowledged.
            client = setup.client(0)
            for key, value in inputs.preload:
                yield from client.put(key, value)

        env.run(env.process(preload(), name="preload"))
    with spans.phase("settle"):
        _settle(env, setup.server)

    oracle = Oracle(inputs.versions_per_key, STORES[store].consistent_get)
    records: list[OpRecord] = []
    record = records.append
    batcher = setup.fabric.batcher
    size_hint = shape.value_len
    t0_ns = env.now

    def client_proc(ci: int, client: Any) -> Generator[Event, Any, None]:
        for is_put, kid, key, version, value, due in inputs.plans[ci]:
            due += t0_ns
            if env.now < due:
                # Arrival waits ride the completion grid when it is armed,
                # so one kernel event wakes every client due in a bucket.
                if batcher is None:
                    yield env.timeout_at(due)
                else:
                    yield batcher.wait_until(due)
            kind = "put" if is_put else "get"
            start = env.now
            ok = True
            try:
                if is_put:
                    yield from client.put(key, value)
                else:
                    got = yield from client.get(key, size_hint=size_hint)
                    version = oracle.observe_get(kid, got)
            except (StoreError, RpcFault) as exc:
                oracle.raised(kind, kid, exc)
                ok = False
            record(OpRecord(ci, kind, kid, version, due, start, env.now, ok))

    procs = [
        env.process(client_proc(ci, client), name=f"client{ci}")
        for ci, client in enumerate(setup.clients)
    ]
    done = env.all_of(procs)
    gc.collect()
    before = snapshot(setup)
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    env.run(done)
    measured_s = spans.add("measured", t0, time.perf_counter())
    if sampler is not None:
        sampler.stop()
    counters = delta(before, snapshot(setup))

    with spans.phase("audit"):
        _settle(env, setup.server)
        final: list[OpRecord] = []

        def read_back() -> Generator[Event, Any, None]:
            client = setup.client(0)
            for kid, (key, _value) in enumerate(inputs.preload):
                start = env.now
                try:
                    got = yield from client.get(key, size_hint=size_hint)
                except (StoreError, RpcFault) as exc:
                    oracle.raised("final get", kid, exc)
                    continue
                final.append(OpRecord(0, "get", kid, oracle.observe_get(kid, got),
                                      start, start, env.now, True))

        env.run(env.process(read_back(), name="read-back"))
        setup.server.stop()
        oracle.audit(records + final)

    return StoreRun(
        store=store,
        ops=len(records),
        failed=oracle.failed,
        measured_s=measured_s,
        records=records,
        counters=counters,
        messages=oracle.messages,
    )


def latency_ns(records: list[OpRecord], open_loop: bool, kind: str | None = None) -> np.ndarray:
    """Latencies of the completed ops: from the due time in an open loop
    (queueing behind a slow predecessor is charged to the op), from the
    start in a closed loop."""
    return np.asarray(
        [
            r.end - (r.due if open_loop else r.start)
            for r in records
            if r.ok and (kind is None or r.kind == kind)
        ],
        dtype=np.float64,
    )
