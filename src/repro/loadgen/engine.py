"""Thousand-client open-loop load engine (DESIGN.md §15).

One load run deploys a store, preloads every tenant's key slice, then
drives each tenant's client population along pregenerated open-loop
arrival schedules (:mod:`repro.loadgen.arrivals`). Operation latency is
measured from the *scheduled* arrival time — queueing delay caused by a
slow store is charged to the ops that experienced it (no coordinated
omission) — and each tenant reports p50/p99/p999 plus goodput under its
SLO.

Scale-out machinery (all opt-in, armed here):

* **completion batching** — the engine arms the fabric's
  :class:`~repro.rdma.batch.CompletionBatcher` so verb completions
  *and* arrival ticks across all clients coalesce onto one shared time
  grid, cutting kernel events per op as concurrency grows;
* **admission control** — a per-partition watermark
  (``StoreConfig.admission_watermark``) sheds over-limit requests with
  retryable ``ERR_BUSY``; the engine attaches the PR 2 retry/backoff
  policy to every client so shed requests back off and re-offer,
  closing the congestion-control loop;
* **hot-set churn** — ``churn_rotate_every`` remaps each client's key
  choices through a :class:`~repro.workloads.zipf.RotatingHotSet`, so
  the hot keys drift during the run.

Chaos hooks: the ``loadgen.arrival`` fault site fires before each
scheduled op; a ``client_stall`` action defers that client's arrival by
``delay_ns`` (a generator-side scheduling hiccup — the op is late, not
lost, and its latency is still measured from the *stalled* schedule).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigError, StoreError
from repro.faults.injector import arm_store
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.harness.metrics import LatencyRecorder, summarize
from repro.harness.scaffold import deploy, pool_bytes, preload
from repro.loadgen.tenants import TenantSpec
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.workloads.keyspace import make_key, make_value
from repro.workloads.ycsb import Op
from repro.workloads.zipf import RotatingHotSet

__all__ = ["LoadSpec", "TenantResult", "LoadReport", "run_load"]

_PRELOAD_CHUNK = 64


@dataclass(frozen=True)
class LoadSpec:
    """Everything needed to reproduce one open-loop load run."""

    tenants: tuple[TenantSpec, ...]
    store: str = "efactory"
    seed: int = 42
    #: Coalesce completion waits and arrival ticks onto a shared grid.
    completion_batching: bool = True
    batch_bucket_ns: float = 128.0
    #: Per-partition admission watermark (0 = off, bit-identical paths).
    admission_watermark: int = 0
    #: Attach retry/backoff to every client. ``None`` = auto: on exactly
    #: when admission control is armed (shed requests must re-offer).
    retry: Optional[bool] = None
    #: Re-salt each client's hot set every N draws (0 = no churn).
    churn_rotate_every: int = 0
    #: Warm each client's location cache (one unmeasured GET per distinct
    #: key in its stream) before the open-loop window, so the measured
    #: phase reflects long-lived steady-state clients.
    warm_caches: bool = True
    settle_ns: float = 20_000_000.0
    config_overrides: dict = field(default_factory=dict)
    #: Chaos plan armed for the whole run (``loadgen.arrival`` /
    #: ``admission.*`` and every pre-existing site). TX legs stay in
    #: closed form with the injector armed, as in every fault harness.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError("tenant names must be unique")
        if self.batch_bucket_ns <= 0:
            raise ConfigError("batch_bucket_ns must be positive")
        if self.admission_watermark < 0:
            raise ConfigError("admission_watermark must be >= 0")
        if self.churn_rotate_every < 0:
            raise ConfigError("churn_rotate_every must be >= 0")

    @property
    def total_clients(self) -> int:
        return sum(t.clients for t in self.tenants)

    @property
    def retry_enabled(self) -> bool:
        if self.retry is None:
            return self.admission_watermark > 0
        return self.retry


@dataclass(frozen=True)
class TenantResult:
    """One tenant's measured outcome."""

    name: str
    clients: int
    ops: int
    errors: int
    window_ns: float
    mean_ns: float
    p50_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float
    slo_ns: float
    #: Fraction of completed ops at or under the SLO.
    slo_fraction: float
    #: Ops/s that met the SLO over the tenant's measurement window.
    goodput_ops_s: float

    @property
    def throughput_kops(self) -> float:
        if self.window_ns <= 0:
            return 0.0
        return self.ops / self.window_ns * 1e6

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "clients": self.clients,
            "ops": self.ops,
            "errors": self.errors,
            "window_ns": self.window_ns,
            "throughput_kops": self.throughput_kops,
            "mean_ns": self.mean_ns,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "p999_ns": self.p999_ns,
            "max_ns": self.max_ns,
            "slo_ns": self.slo_ns,
            "slo_fraction": self.slo_fraction,
            "goodput_ops_s": self.goodput_ops_s,
        }


@dataclass
class LoadReport:
    """Outcome of one :func:`run_load`."""

    store: str
    seed: int
    clients: int
    tenants: list[TenantResult]
    total_ops: int
    total_errors: int
    window_ns: float
    #: Kernel events dispatched per issued application op during the
    #: measured phase (the completion-batching headline metric).
    events_per_op: float
    sim: dict
    admission: Optional[dict]
    resilience: dict

    @property
    def throughput_kops(self) -> float:
        if self.window_ns <= 0:
            return 0.0
        return self.total_ops / self.window_ns * 1e6

    def as_dict(self) -> dict:
        return {
            "store": self.store,
            "seed": self.seed,
            "clients": self.clients,
            "total_ops": self.total_ops,
            "total_errors": self.total_errors,
            "window_ns": self.window_ns,
            "throughput_kops": self.throughput_kops,
            "events_per_op": self.events_per_op,
            "sim": self.sim,
            "admission": self.admission,
            "resilience": self.resilience,
            "tenants": [t.as_dict() for t in self.tenants],
        }


def _issue(client, kind: str, key: bytes, value, size_hint: int):
    """One application op as a fresh generator (retry re-invokes it)."""
    if kind == "put":
        return client.put(key, value)
    if kind == "rmw":

        def gen() -> Generator[Event, Any, None]:
            yield from client.get(key, size_hint=size_hint)
            yield from client.put(key, value)

        return gen()
    return client.get(key, size_hint=size_hint)


def run_load(spec: LoadSpec) -> LoadReport:
    """Execute one open-loop load run in a fresh simulation."""
    env = Environment()
    rngs = RngRegistry(spec.seed)

    overrides: dict[str, Any] = {}
    if spec.admission_watermark > 0:
        overrides["admission_watermark"] = spec.admission_watermark
    overrides.update(spec.config_overrides)
    # Load cells compare scheduling, not allocators: room for the preload
    # plus a worst-case all-put measured phase.
    loads = [
        (t.workload.key_count + t.total_ops, t.workload.key_len, t.workload.value_len)
        for t in spec.tenants
    ]
    setup = deploy(
        spec.store, env, n_clients=spec.total_clients, overrides=overrides,
        pool_size=pool_bytes(*loads, headroom=1.5, floor=32 << 20),
    )
    if spec.fault_plan is not None and not spec.fault_plan.empty:
        arm_store(setup, spec.fault_plan, rngs=rngs.fork("faults"))
    if spec.completion_batching:
        setup.fabric.enable_completion_batching(spec.batch_bucket_ns)
    if spec.retry_enabled:
        # timeout racing would add a process + timer per op at 1k-client
        # scale; faults and ERR_BUSY sheds surface as exceptions anyway.
        policy = RetryPolicy(timeout_ns=0.0)
        for i, client in enumerate(setup.clients):
            client.enable_resilience(policy, rngs.stream(f"retry{i}"))

    # Disjoint per-tenant key slices: tenant i owns global ids
    # [base_i, base_i + key_count).
    bases: list[int] = []
    acc = 0
    for t in spec.tenants:
        bases.append(acc)
        acc += t.workload.key_count
    versions = [0] * acc

    batches = []
    for t, base in zip(spec.tenants, bases):
        w = t.workload
        items = [
            (make_key(base + kid, w.key_len), make_value(base + kid, 0, w.value_len))
            for kid in range(w.key_count)
        ]
        batches += [
            items[lo:lo + _PRELOAD_CHUNK] for lo in range(0, len(items), _PRELOAD_CHUNK)
        ]
    preload(env, setup, batches=batches, settle_ns=spec.settle_ns)

    # Pregenerate every client's op stream (fixed rng-stream creation
    # order keeps the run deterministic).
    streams: list[list[Op]] = []
    ci = 0
    for ti, tenant in enumerate(spec.tenants):
        w = tenant.workload
        for _ in range(tenant.clients):
            ops = w.client_stream(
                rngs.stream(f"{tenant.name}.c{ci}.ops"), tenant.ops_per_client
            )
            if spec.churn_rotate_every > 0:
                hot = RotatingHotSet(
                    w.key_count, w.zipf_theta, spec.churn_rotate_every
                )
                drift = hot.sample(
                    rngs.stream(f"{tenant.name}.c{ci}.churn"), len(ops)
                )
                ops = [Op(op.kind, int(k)) for op, k in zip(ops, drift)]
            streams.append(ops)
            ci += 1

    if spec.warm_caches:

        def warm(client, w, base: int, ops: list[Op]) -> Generator[Event, Any, None]:
            seen: set[int] = set()
            for op in ops:
                if op.key_id in seen:
                    continue
                seen.add(op.key_id)
                try:
                    yield from client.get(
                        make_key(base + op.key_id, w.key_len),
                        size_hint=w.value_len,
                    )
                except (StoreError, RpcFault):
                    continue

        warm_procs = []
        ci = 0
        for ti, tenant in enumerate(spec.tenants):
            for _ in range(tenant.clients):
                warm_procs.append(
                    env.process(
                        warm(
                            setup.client(ci), tenant.workload,
                            bases[ti], streams[ci],
                        ),
                        name=f"warm{ci}",
                    )
                )
                ci += 1
        env.run(env.all_of(warm_procs))

    # -- measured phase -------------------------------------------------------
    ev0_processed = env.events_processed
    ev0_scheduled = env.events_scheduled
    start_ns = env.now
    recorders = [LatencyRecorder() for _ in spec.tenants]
    errors = [0] * len(spec.tenants)
    t_start = [float("inf")] * len(spec.tenants)
    t_end = [0.0] * len(spec.tenants)
    inj = setup.fabric.injector
    bat = setup.fabric.batcher

    def client_proc(ti: int, ci: int, client) -> Generator[Event, Any, None]:
        tenant = spec.tenants[ti]
        w = tenant.workload
        base = bases[ti]
        ops = streams[ci]
        sched = tenant.curve.arrivals(
            rngs.stream(f"{tenant.name}.c{ci}.arrivals"),
            tenant.rate_per_client_per_ns,
            len(ops),
            t0=start_ns,
        )
        t_start[ti] = min(t_start[ti], float(sched[0]))
        for op, due in zip(ops, sched.tolist()):
            if inj is not None:
                act = inj.fire("loadgen.arrival")
                if act is not None and act.kind == "client_stall":
                    due += act.delay_ns
            if env.now < due:
                # Arrival ticks ride the completion grid too: one kernel
                # event can wake every client due in the same bucket.
                if bat is None:
                    yield env.timeout_at(due)
                else:
                    yield bat.wait_until(due)
            gid = base + op.key_id
            key = make_key(gid, w.key_len)
            value = None
            if op.kind != "get":
                versions[gid] += 1
                value = make_value(gid, versions[gid], w.value_len)
            try:
                yield from client.call_resilient(
                    lambda k=op.kind, ky=key, v=value: _issue(
                        client, k, ky, v, w.value_len
                    ),
                    label=op.kind,
                )
            except (StoreError, RpcFault):
                errors[ti] += 1
                continue
            # Open-loop latency: from when the op was *due*, so queueing
            # behind a slow predecessor is charged to this op.
            recorders[ti].record(op.kind, env.now - due)
        t_end[ti] = max(t_end[ti], env.now)

    procs = []
    ci = 0
    for ti, tenant in enumerate(spec.tenants):
        for _ in range(tenant.clients):
            procs.append(
                env.process(
                    client_proc(ti, ci, setup.client(ci)),
                    name=f"{tenant.name}.c{ci}",
                )
            )
            ci += 1
    env.run(env.all_of(procs))
    setup.server.stop()

    # -- digest ---------------------------------------------------------------
    tenant_results: list[TenantResult] = []
    for ti, tenant in enumerate(spec.tenants):
        rec = recorders[ti]
        s = summarize(rec)
        window = max(0.0, t_end[ti] - t_start[ti])
        arr = rec.array()
        good = int((arr <= tenant.slo_ns).sum()) if arr.size else 0
        tenant_results.append(
            TenantResult(
                name=tenant.name,
                clients=tenant.clients,
                ops=s.count,
                errors=errors[ti],
                window_ns=window,
                mean_ns=s.mean_ns,
                p50_ns=s.p50_ns,
                p99_ns=s.p99_ns,
                p999_ns=s.p999_ns,
                max_ns=s.max_ns,
                slo_ns=tenant.slo_ns,
                slo_fraction=(good / s.count) if s.count else 0.0,
                goodput_ops_s=(good / window * 1e9) if window > 0 else 0.0,
            )
        )

    issued = sum(t.total_ops for t in spec.tenants)
    measured_events = env.events_processed - ev0_processed
    sim = {
        "events_scheduled": env.events_scheduled - ev0_scheduled,
        "events_processed": measured_events,
        "issued_ops": issued,
        "batching": spec.completion_batching,
    }
    if bat is not None:
        sim["batches"] = bat.batches
        sim["batched_waits"] = bat.batched_waits
    admission = setup.server.admission_metrics()
    res = {
        "enabled": spec.retry_enabled,
        "retries": sum(
            c.resilience.retries for c in setup.clients if c.resilience
        ),
        "gave_up": sum(
            c.resilience.gave_up for c in setup.clients if c.resilience
        ),
    }
    total_ops = sum(t.ops for t in tenant_results)
    window_all = max(0.0, max(t_end) - min(t_start))
    return LoadReport(
        store=spec.store,
        seed=spec.seed,
        clients=spec.total_clients,
        tenants=tenant_results,
        total_ops=total_ops,
        total_errors=sum(errors),
        window_ns=window_all,
        events_per_op=(measured_events / issued) if issued else 0.0,
        sim=sim,
        admission=admission,
        resilience=res,
    )
