"""Closed-loop multi-client experiment runner (the §5/§6 methodology).

One run = one fresh simulation: a server, ``n_clients`` closed-loop
client processes (each issues its next operation as soon as the previous
completes — "issuing operations as fast as possible", §6.1), a preload
phase that inserts every key once, an optional settle phase that lets
eFactory's background thread drain, then a measured phase. Latencies are
recorded per operation kind after per-client warmup; throughput is
measured ops over the measurement wall-span.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StoreError
from repro.harness.metrics import LatencyRecorder
from repro.harness.scaffold import deploy, pool_bytes, preload, version0
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.workloads.keyspace import make_key, make_value
from repro.workloads.ycsb import WorkloadSpec

__all__ = ["RunSpec", "RunResult", "run_experiment", "size_pool_for"]


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one experiment run."""

    store: str
    workload: WorkloadSpec
    n_clients: int = 8
    ops_per_client: int = 800
    warmup_ops: int = 100
    seed: int = 42
    settle_ns: float = 20_000_000.0  # generous: settling ends once the backlog drains
    config_overrides: dict = field(default_factory=dict)

    @property
    def total_measured_ops(self) -> int:
        return self.n_clients * self.ops_per_client


@dataclass
class RunResult:
    """Measured outcome of one run."""

    spec: RunSpec
    latency: LatencyRecorder
    measured_ops: int
    window_ns: float
    errors: int
    #: eFactory factor analysis: pure vs fallback reads (zeros elsewhere).
    #: ``rpc_only_reads`` counts reads that never attempted the pure
    #: path (hybrid read disabled) — not genuine fallbacks.
    pure_reads: int = 0
    fallback_reads: int = 0
    rpc_only_reads: int = 0

    @property
    def throughput_mops(self) -> float:
        """Throughput in million operations per second (simulated)."""
        if self.window_ns <= 0:
            return 0.0
        return self.measured_ops / self.window_ns * 1e3

    @property
    def kops(self) -> float:
        return self.throughput_mops * 1000.0


def size_pool_for(spec: RunSpec) -> int:
    """A pool large enough that the run never exhausts it: the preload
    plus the worst case of every measured and warmup op being a PUT."""
    w = spec.workload
    puts = w.key_count + spec.n_clients * (spec.ops_per_client + spec.warmup_ops)
    return pool_bytes((puts, w.key_len, w.value_len), headroom=1.5, floor=32 << 20)


def run_experiment(spec: RunSpec, post_setup=None) -> RunResult:
    """Execute one run in a fresh simulation environment.

    ``post_setup(env, setup)``, if given, runs after preload/settle and
    before measurement — e.g. Fig 11 uses it to keep log cleaning
    running throughout the measured window.
    """
    env = Environment()
    rngs = RngRegistry(spec.seed)
    setup = deploy(
        spec.store, env, pool_size=size_pool_for(spec), n_clients=spec.n_clients,
        overrides=spec.config_overrides,
    )

    w = spec.workload
    keys = [make_key(k, w.key_len) for k in range(w.key_count)]
    versions = [0] * w.key_count  # shared monotone version counter per key

    preload(env, setup, version0(keys, w.value_len), settle_ns=spec.settle_ns)
    if post_setup is not None:
        post_setup(env, setup)

    # -- measured phase ----------------------------------------------------------
    recorder = LatencyRecorder()
    state = {"errors": 0, "start": [float("inf")], "end": [0.0]}

    def client_proc(i: int) -> Generator[Event, Any, None]:
        client = setup.client(i)
        rng = rngs.stream(f"client{i}")
        ops = w.client_stream(rng, spec.warmup_ops + spec.ops_per_client)
        for j, op in enumerate(ops):
            measured = j >= spec.warmup_ops
            if measured:
                state["start"][0] = min(state["start"][0], env.now)
            t0 = env.now
            try:
                if op.kind == "put":
                    versions[op.key_id] += 1
                    value = make_value(op.key_id, versions[op.key_id], w.value_len)
                    yield from client.put(keys[op.key_id], value)
                elif op.kind == "rmw":
                    # YCSB-F: dependent read-then-write of the same key
                    yield from client.get(keys[op.key_id], size_hint=w.value_len)
                    versions[op.key_id] += 1
                    value = make_value(op.key_id, versions[op.key_id], w.value_len)
                    yield from client.put(keys[op.key_id], value)
                else:
                    yield from client.get(keys[op.key_id], size_hint=w.value_len)
            except (StoreError, RpcFault):
                state["errors"] += 1
                continue
            if measured:
                recorder.record(op.kind, env.now - t0)
        state["end"][0] = max(state["end"][0], env.now)

    procs = [
        env.process(client_proc(i), name=f"client{i}")
        for i in range(spec.n_clients)
    ]
    env.run(env.all_of(procs))
    setup.server.stop()

    pure = sum(getattr(c, "pure_reads", 0) for c in setup.clients)
    fallback = sum(getattr(c, "fallback_reads", 0) for c in setup.clients)
    rpc_only = sum(getattr(c, "rpc_only_reads", 0) for c in setup.clients)
    window = max(0.0, state["end"][0] - state["start"][0])
    return RunResult(
        spec=spec,
        latency=recorder,
        measured_ops=recorder.count(),
        window_ns=window,
        errors=state["errors"],
        pure_reads=pure,
        fallback_reads=fallback,
        rpc_only_reads=rpc_only,
    )
