"""Chaos harness: run a store under an armed fault plan and audit it.

One chaos run = one fresh simulation: deploy a store, preload its keys,
arm a :class:`~repro.faults.plan.FaultPlan`, drive a mixed closed-loop
workload through clients carrying a
:class:`~repro.faults.policy.RetryPolicy`, then disarm, let the
background machinery settle, and audit the surviving state through real
client GETs, judged by the shared consistency oracle
(:mod:`repro.harness.oracle`, DESIGN.md §9b) in its no-crash regime:
every key (single writer per key) must come back intact, no older than
its last *acknowledged* write and than anything a GET already returned,
and no newer than its last *issued* write (an unacked attempt may land —
at-least-once — but nothing the workload never wrote may appear).

Determinism: the whole run — fault schedule, retry counts, oracle
verdict — is a pure function of ``(store, plan, seed, workload shape)``;
:func:`run_chaos_experiment` is bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.config import DEFAULT_PARITY_STRIPE_KB
from repro.errors import ConfigError, MemoryAccessError, RDMAError, StoreError
from repro.faults.injector import arm_store, disarm_store
from repro.faults.plan import FaultPlan
from repro.faults.plans import shipped_plan
from repro.faults.policy import RetryPolicy
from repro.harness.scaffold import (
    ClosedLoop, Draw, check_shape, deploy, pool_bytes, preload, settle, version0,
)
from repro.rdma.rpc import ERR_NOT_FOUND, RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.stores import STORES
from repro.util import sum_counters

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos_experiment"]

#: Fault kinds that corrupt the media itself (latent errors), as
#: opposed to transient transport/CPU faults. They change the audit
#: contract: acked data may be destroyed outright, so the advertised
#: behavior is a loud miss or an intact older version — never
#: silently-served rot.
MEDIA_FAULT_KINDS = frozenset({"nvm_bitrot", "nvm_torn_store"})
#: Share of a key-owning client's ops that are PUTs (the rest are GETs).
_PUT_FRACTION = 0.5


@dataclass(frozen=True)
class ChaosSpec:
    """Everything needed to reproduce one chaos run."""

    store: str = "efactory"
    plan: str = "qp-flap"  # shipped plan name (ignored when a plan object is passed)
    seed: int = 42
    n_clients: int = 2
    ops_per_client: int = 80
    key_count: int = 24
    key_len: int = 16
    value_len: int = 128
    settle_ns: float = 30_000_000.0
    config_overrides: dict = field(default_factory=dict)
    plan_overrides: dict = field(default_factory=dict)
    trace: bool = False
    #: Arm eFactory's self-healing integrity tier (per-stripe parity +
    #: checksum ledger; its tree checks only location-cache hits) with the
    #: shipped defaults. Explicit ``config_overrides`` keys still win.
    parity: bool = False
    #: Cluster shape. ``nodes=1, replication=1`` (the default) runs the
    #: classic single-server harness with bit-identical event order.
    nodes: int = 1
    replication: int = 1
    cluster_overrides: dict = field(default_factory=dict)
    #: Optional live migration racing the faulted window (cluster
    #: shapes only): ``(part_id, dst_node, at_ns)`` with ``at_ns``
    #: relative to arming.
    migration: Optional[tuple] = None


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    spec: ChaosSpec
    plan_name: str
    attempted_ops: int
    completed_ops: int
    failed_ops: int
    #: The injected fault schedule, in firing order (comparable tuples:
    #: time, site, kind, rule, op-index, partition).
    fault_schedule: list[tuple]
    fault_counts: dict[str, int]
    #: Aggregated client resilience counters (retries, timeouts, ...).
    resilience: dict[str, int]
    #: Advertised-guarantee violations found by the post-run audit.
    violations: list[str]
    #: Observed weaknesses that the store never promised to avoid.
    weaknesses: list[str]
    audited_keys: int
    degraded_reads: int
    wall_ns: float
    trace_counts: dict[str, int] = field(default_factory=dict)
    #: Online-scrubber counters (empty when the store has no scrubber).
    scrub: dict[str, int] = field(default_factory=dict)
    #: Repair-outcome accounting under media faults: how each detected
    #: corruption was resolved (reconstructed from parity, fetched from
    #: a replica, rolled back to an older version, or cleared), plus the
    #: number of media faults actually injected.
    repair: dict[str, int] = field(default_factory=dict)
    #: Integrity-tier counters (parity/ledger maintenance; empty when
    #: the tier is off).
    integrity: dict[str, int] = field(default_factory=dict)
    #: Cluster metrics (failovers, promotions, shipping; empty when the
    #: run was single-node).
    cluster: dict[str, Any] = field(default_factory=dict)
    #: Stats of the migration raced against the faults, if any.
    migration: dict[str, Any] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        if self.attempted_ops == 0:
            return 1.0
        return self.completed_ops / self.attempted_ops

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "store": self.spec.store,
            "plan": self.plan_name,
            "seed": self.spec.seed,
            "attempted_ops": self.attempted_ops,
            "completed_ops": self.completed_ops,
            "failed_ops": self.failed_ops,
            "availability": self.availability,
            "faults_injected": len(self.fault_schedule),
            "fault_counts": dict(self.fault_counts),
            "resilience": dict(self.resilience),
            "violations": list(self.violations),
            "weaknesses": list(self.weaknesses),
            "audited_keys": self.audited_keys,
            "degraded_reads": self.degraded_reads,
            "wall_ns": self.wall_ns,
            "scrub": dict(self.scrub),
            "repair": dict(self.repair),
            "integrity": dict(self.integrity),
            "cluster": dict(self.cluster),
            "migration": dict(self.migration),
        }


def run_chaos_experiment(
    spec: ChaosSpec, plan: Optional[FaultPlan] = None
) -> ChaosReport:
    """Execute one chaos run in a fresh simulation environment."""
    check_shape(spec.n_clients, spec.ops_per_client, spec.key_count)
    env = Environment()
    rngs = RngRegistry(spec.seed)
    tracer = Tracer(env) if spec.trace else None
    plan = plan if plan is not None else shipped_plan(spec.plan, **spec.plan_overrides)
    media_plan = any(rule.kind in MEDIA_FAULT_KINDS for rule in plan.rules)

    if spec.nodes < 1:
        raise ConfigError(f"nodes must be >= 1, got {spec.nodes}")
    if spec.replication < 1:
        raise ConfigError(f"replication must be >= 1, got {spec.replication}")
    cluster_mode = spec.nodes > 1 or spec.replication > 1
    if cluster_mode and spec.store != "efactory":
        raise ConfigError(
            f"store must be efactory for a cluster shape, got {spec.store!r}"
        )
    if spec.migration is not None and not cluster_mode:
        raise ConfigError(
            "migration needs a cluster shape (nodes or replication > 1)"
        )
    # Only eFactory has a scrubber and an integrity tier to arm.
    efactory = spec.store in ("efactory", "efactory_nohr")
    if spec.parity and not efactory:
        raise ConfigError(f"parity needs store efactory or efactory_nohr, got {spec.store!r}")

    overrides: dict[str, Any] = {}
    if media_plan and efactory:
        # Media faults need the online scrubber: without it the
        # durability-flag shortcut would serve rot forever.
        overrides["scrub_interval_ns"] = 2_000.0
    if spec.parity:
        overrides["parity_stripe_kb"] = DEFAULT_PARITY_STRIPE_KB
    overrides.update(spec.config_overrides)
    puts = spec.key_count + spec.n_clients * spec.ops_per_client
    setup = deploy(
        spec.store, env, n_clients=spec.n_clients, overrides=overrides,
        # Retries can allocate more than once per PUT: ample headroom. A
        # cluster allocates nodes x partitions x 2 pools, so each stays
        # small (every key still fits many times over).
        pool_size=pool_bytes(
            (puts, spec.key_len, spec.value_len), headroom=4,
            floor=(2 << 20) if spec.nodes > 1 else (32 << 20),
        ),
        cluster=dict(
            nodes=spec.nodes, replication=spec.replication,
            cluster_overrides=dict(spec.cluster_overrides),
        ) if cluster_mode else None,
    )
    for client in setup.clients:
        client.enable_resilience(
            RetryPolicy(), rngs.stream(f"resilience.{client.name}"), tracer=tracer
        )

    loop = ClosedLoop(env, setup, spec.key_count, spec.key_len, spec.value_len)
    # Faults are not armed yet: the baseline state is healthy.
    preload(env, setup, version0(loop.keys, spec.value_len), settle_ns=spec.settle_ns)

    # -- the faulted window --------------------------------------------------
    injector = arm_store(setup, plan, rngs=rngs, tracer=tracer)
    t_armed = env.now

    def ops(i: int) -> Iterator[Draw]:
        # Single writer per key: key k belongs to client k % n_clients, so
        # "last acked version" is well-defined without cross-client
        # ordering. A client that owns no key only reads.
        rng = rngs.stream(f"chaos.client{i}")
        mine = [k for k in range(spec.key_count) if k % spec.n_clients == i]
        for _ in range(spec.ops_per_client):
            if mine and rng.random() < _PUT_FRACTION:
                yield "put", mine[int(rng.integers(len(mine)))]
            else:
                yield "get", int(rng.integers(spec.key_count))

    procs = loop.run((ops(i) for i in range(spec.n_clients)), name="chaos-client")
    migration_stats: dict[str, Any] = {}
    if spec.migration is not None:
        mig_part, mig_dst, mig_at = spec.migration

        def migration_proc() -> Generator[Event, Any, None]:
            yield env.timeout(mig_at)
            stats = yield from setup.cluster.migrate(int(mig_part), int(mig_dst))
            migration_stats.update(stats)

        procs = [*procs, env.process(migration_proc(), name="chaos-migration")]
    env.run(env.all_of(procs))
    wall_ns = env.now - t_armed

    # -- disarm, heal, settle -------------------------------------------------
    disarm_store(setup)
    for client in setup.clients:
        client.reset_endpoints()  # clear any residual QP error state
    if cluster_mode:
        # Let in-flight promotions/migrations resolve before auditing.
        env.run(
            env.process(
                setup.cluster.await_stable(spec.settle_ns or 5_000_000.0),
                name="chaos-await-stable",
            )
        )
    # Under a media plan, also wait for two full scrubber laps so every
    # entry has provably been examined *after* the last rot landed.
    settle(env, setup, spec.settle_ns, scrub_laps=2 if media_plan else 0)

    # -- audit through real client GETs --------------------------------------
    # Raw slot reads would misreport legitimately-invalidated versions
    # (publish-on-alloc indexes not-yet-durable objects); the advertised
    # guarantee is about what GET *returns*, so that is what we check.
    all_servers = setup.servers
    scrubbers = [
        p.scrubber for s in all_servers for p in s.partitions if p.scrubber is not None
    ]
    scrub_active = any(sc.active for sc in scrubbers)
    violations: list[str] = []
    weaknesses: list[str] = []

    def audit() -> Generator[Event, Any, None]:
        client = setup.client(0)
        for kid in range(spec.key_count):
            value, unreadable = None, ""
            try:
                value = yield from client.get(loop.keys[kid], size_hint=spec.value_len)
            except (StoreError, RDMAError, MemoryAccessError) as exc:
                code = getattr(exc, "code", "")
                unreadable = f"GET failed after faults cleared ({code or exc})"
                if isinstance(exc, RpcFault) and code == ERR_NOT_FOUND:
                    unreadable = "lost (not found after faults cleared)"
            verdict = loop.ledger.judge(
                kid, value, STORES[spec.store], crashed=False, media=media_plan,
                scrub_active=scrub_active, unreadable=unreadable,
            )
            violations.extend(verdict.violations)
            weaknesses.extend(verdict.weaknesses)

    env.run(env.process(audit(), name="chaos-audit"))
    cluster_metrics = setup.cluster.metrics() if cluster_mode else {}
    setup.stop()

    resilience = sum_counters(c.resilience.snapshot() for c in setup.clients)
    degraded = sum(getattr(c, "degraded_reads", 0) for c in setup.clients)

    # -- repair-outcome accounting (every node's scrubber + device) -----------
    scrub = sum_counters(sc.stats() for sc in scrubbers)
    repair: dict[str, int] = {}
    if media_plan:
        repair = {
            "media_faults": sum(s.device.media_faults for s in all_servers),
            "detected": scrub.get("corrupt_found", 0),
            "reconstructed": scrub.get("reconstructed", 0),
            "replica_fetched": scrub.get("replica_fetched", 0),
            "rolled_back": scrub.get("repaired", 0),
            "cleared": scrub.get("unrepairable", 0),
            "parity_stale": scrub.get("parity_stale", 0),
            "tree_rejects": sum(
                getattr(c, "tree_rejects", 0) for c in setup.clients
            ),
        }
    integrity = sum_counters(
        part.integrity.stats() for srv in all_servers for part in srv.partitions
    )

    return ChaosReport(
        spec=spec,
        plan_name=plan.name,
        attempted_ops=loop.attempted,
        completed_ops=loop.completed,
        failed_ops=loop.failed,
        fault_schedule=injector.schedule(),
        fault_counts=injector.counts(),
        resilience=resilience,
        violations=violations,
        weaknesses=weaknesses,
        audited_keys=spec.key_count,
        degraded_reads=degraded,
        wall_ns=wall_ns,
        trace_counts=tracer.counts() if tracer is not None else {},
        scrub=scrub,
        repair=repair,
        integrity=integrity,
        cluster=cluster_metrics,
        migration=migration_stats,
    )
