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

from dataclasses import dataclass, field

from repro.harness.metrics import LatencyRecorder
from repro.harness.scaffold import (
    ClosedLoop, check_shape, deploy, pool_bytes, preload, version0,
)
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
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
    check_shape(spec.n_clients, spec.workload.key_count)
    env = Environment()
    rngs = RngRegistry(spec.seed)
    setup = deploy(
        spec.store, env, pool_size=size_pool_for(spec), n_clients=spec.n_clients,
        overrides=spec.config_overrides,
    )

    w = spec.workload
    recorder = LatencyRecorder()
    loop = ClosedLoop(
        env, setup, w.key_count, w.key_len, w.value_len,
        warmup=spec.warmup_ops, recorder=recorder,
    )
    preload(env, setup, version0(loop.keys, w.value_len), settle_ns=spec.settle_ns)
    if post_setup is not None:
        post_setup(env, setup)

    # -- measured phase ----------------------------------------------------------
    n_ops = spec.warmup_ops + spec.ops_per_client
    procs = loop.run(
        (w.client_stream(rngs.stream(f"client{i}"), n_ops)
         for i in range(spec.n_clients)),
        name="client",
    )
    env.run(env.all_of(procs))
    setup.server.stop()

    reads = {
        name: sum(getattr(c, name, 0) for c in setup.clients)
        for name in ("pure_reads", "fallback_reads", "rpc_only_reads")
    }
    return RunResult(
        spec=spec,
        latency=recorder,
        measured_ops=recorder.count(),
        window_ns=max(0.0, env.now - loop.start),
        errors=loop.failed,
        **reads,
    )
