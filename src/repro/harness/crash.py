"""Crash injection: pull the plug mid-workload, recover, audit.

Concurrent clients write and read self-describing values until a
workload-chosen instant; the server loses power (each dirty cacheline
survives by a coin flip), the store's recovery runs, and the consistency
oracle (:mod:`repro.harness.oracle`, DESIGN.md §9b) judges every key's
recovered state against what the clients were acked and what they read.

The report's counts are raw facts about any store: ``torn_exposed``
(§3's torn objects — CA), ``durability_losses`` (acked writes gone —
allowed unless the ack meant durable: RPC/SAW/IMM), and
``monotonicity_losses`` (recovery went behind a value a GET returned —
§7's criticism of Erda, which eFactory "refrains from", §5.3). Whether
a finding is a *violation* of the store's advertised guarantee or an
expected *weakness* is the oracle's call.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.recovery import RecoveryReport
from repro.harness.oracle import KeyAudit, read_value_state
from repro.harness.scaffold import (
    ClosedLoop, Draw, check_shape, deploy, pool_bytes, preload, recover, version0,
)
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.stores import STORES

__all__ = [
    "CrashSpec",
    "KeyAudit",
    "CrashReport",
    "run_crash_experiment",
    "read_value_state",
]


@dataclass(frozen=True)
class CrashSpec:
    """One crash experiment."""

    store: str
    n_clients: int = 4
    key_count: int = 48
    key_len: int = 16
    value_len: int = 256
    #: Total completed operations across clients before the plug is pulled.
    ops_before_crash: int = 240
    read_fraction: float = 0.3
    seed: int = 7
    #: Probability each dirty cacheline survives by natural eviction.
    evict_probability: float = 0.5
    #: Tear non-atomic in-flight stores at 8-byte granularity instead of
    #: whole cachelines (the stricter, more realistic media model).
    tear_words: bool = False
    recover: bool = True


@dataclass
class CrashReport:
    spec: CrashSpec
    recovery: Optional[RecoveryReport]
    audits: list[KeyAudit]
    pre_crash_torn_reads: int
    completed_ops: int

    # guarantee checks --------------------------------------------------------
    @property
    def torn_exposed(self) -> int:
        return sum(1 for a in self.audits if a.torn)

    @property
    def durability_losses(self) -> int:
        """Keys whose newest *acknowledged* write did not survive."""
        return sum(
            1
            for a in self.audits
            if a.max_acked >= 0
            and (a.recovered_version is None or a.recovered_version < a.max_acked)
        )

    @property
    def monotonicity_losses(self) -> int:
        """Keys where recovery went behind a value a GET had returned."""
        return sum(
            1
            for a in self.audits
            if a.max_read >= 0
            and (a.recovered_version is None or a.recovered_version < a.max_read)
        )

    @property
    def violations(self) -> list[str]:
        """Breaches of the store's *advertised* guarantees."""
        return [v for a in self.audits for v in a.violations]

    @property
    def weaknesses(self) -> list[str]:
        """Findings the store never promised to avoid."""
        return [w for a in self.audits for w in a.weaknesses]

    @property
    def ok(self) -> bool:
        return not self.violations


def run_crash_experiment(spec: CrashSpec) -> CrashReport:
    check_shape(spec.n_clients, spec.key_count, spec.evict_probability)
    env = Environment()
    rngs = RngRegistry(spec.seed)
    puts = spec.key_count + spec.ops_before_crash * 2
    setup = deploy(
        spec.store, env, n_clients=spec.n_clients,
        pool_size=pool_bytes(
            (puts, spec.key_len, spec.value_len), headroom=2, floor=8 << 20
        ),
    )
    loop = ClosedLoop(env, setup, spec.key_count, spec.key_len, spec.value_len)
    preload(env, setup, version0(loop.keys, spec.value_len), settle_ns=2_000_000.0)

    # -- concurrent clients until the crash ---------------------------------------
    def ops(i: int) -> Iterator[Draw]:
        rng = rngs.stream(f"crash-client{i}")
        while True:
            kid = int(rng.integers(0, spec.key_count))
            yield ("get" if rng.random() < spec.read_fraction else "put"), kid

    loop.run((ops(i) for i in range(spec.n_clients)), name="crash-client")

    def controller() -> Generator[Event, Any, None]:
        yield from loop.until(spec.ops_before_crash)
        loop.power_fail(
            rngs.stream("crash"), spec.evict_probability, tear_words=spec.tear_words
        )
        loop.interrupt()

    env.run(env.process(controller(), name="crash-controller"))
    env.run(until=env.now + 1.0)  # drain interrupt deliveries

    recovery = recover(setup) if spec.recover else None
    return CrashReport(
        spec=spec,
        recovery=recovery,
        audits=loop.ledger.audit_recovered(
            setup.server, loop.keys, STORES[spec.store]
        ),
        pre_crash_torn_reads=loop.torn_reads,
        completed_ops=loop.completed,
    )
