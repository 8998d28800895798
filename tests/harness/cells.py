"""Small fixed cells the tests pin exactly: single-client efactory cells,
the three cluster cells, and the canonical open-loop load cell.

Everything is measured in *simulated* time, so every field is
deterministic. ``run_characterisation.json`` records the ``bench/*``
cells (the only exact pin on the location-cache GET path); the
parity-overhead test (``tests/stores/test_integrity.py``) and the
1k-client cells of ``benchmarks/test_loadgen.py`` run on them too.

``bench_cell`` kinds:

* ``put`` — sequential client-active PUTs (one alloc RPC + one WRITE
  each): the seed's baseline PUT path.
* ``put_many`` — the doorbell-batched pipeline: one ``alloc_batch``
  SEND per ``put_batch`` items, value WRITEs as one doorbell chain,
  ``put_window`` chains in flight.
* ``get_uncached`` — the pure-RDMA hybrid read with the location cache
  disabled: two one-sided READs per hit.
* ``get_cached`` — the same reads against a warm location cache: one
  one-sided READ per hit.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

from repro.core import EFactoryClient
from repro.harness.metrics import LatencyRecorder
from repro.harness.scaffold import deploy, pool_bytes, preload
from repro.loadgen.engine import LoadSpec
from repro.loadgen.tenants import TenantSpec
from repro.sim.kernel import Environment, Event
from repro.stores import StoreSetup
from repro.workloads.keyspace import make_key, make_value
from repro.workloads.ycsb import WORKLOADS


@dataclass(frozen=True)
class BenchSpec:
    """One microbench cell."""

    bench: str  # put | put_many | get_uncached | get_cached
    partitions: int = 1
    ops: int = 256
    value_len: int = 64
    key_len: int = 16
    bg_batch: int = 16
    config_overrides: dict = field(default_factory=dict)


def _deploy(spec: BenchSpec) -> tuple[Environment, StoreSetup]:
    env = Environment()
    overrides: dict[str, Any] = {
        "table_buckets": 2048,
        "num_partitions": spec.partitions,
    }
    if spec.bench == "put_many":
        overrides["bg_batch"] = spec.bg_batch
    overrides.update(spec.config_overrides)
    # The client sizes its location cache when it is built.
    default_cache = EFactoryClient.loc_cache_size
    if spec.bench == "get_cached":
        EFactoryClient.loc_cache_size = spec.ops
    try:
        setup = deploy(
            "efactory", env, n_clients=1, overrides=overrides,
            # 4x headroom: preload + measured writes never exhaust the pool.
            pool_size=pool_bytes(
                (spec.ops, spec.key_len, spec.value_len), headroom=4, floor=32 << 20
            ),
        )
    finally:
        EFactoryClient.loc_cache_size = default_cache
    return env, setup


def bench_cell(spec: BenchSpec) -> dict[str, Any]:
    """Run one cell; returns a JSON-ready result row."""
    env, setup = _deploy(spec)
    client = setup.client(0)
    keys = [make_key(i, spec.key_len) for i in range(spec.ops)]
    values = [make_value(i, 0, spec.value_len) for i in range(spec.ops)]
    items = list(zip(keys, values))
    recorder = LatencyRecorder()

    def measure_puts() -> Generator[Event, Any, None]:
        for key, value in items:
            t0 = env.now
            yield from client.put(key, value)
            recorder.record("op", env.now - t0)

    def measure_put_many() -> Generator[Event, Any, None]:
        # One wave per put_batch chunk: the wave latency amortized over
        # its items is the per-item cost the pipeline achieves.
        step = client.put_batch
        for i in range(0, len(items), step):
            wave = items[i : i + step]
            t0 = env.now
            yield from client.put_many(wave)
            per_item = (env.now - t0) / len(wave)
            for _ in wave:
                recorder.record("op", per_item)

    def measure_gets() -> Generator[Event, Any, None]:
        for key, value in items:
            t0 = env.now
            got = yield from client.get(key, size_hint=spec.value_len)
            recorder.record("op", env.now - t0)
            assert got == value

    if spec.bench in ("put", "put_many"):
        body = measure_puts if spec.bench == "put" else measure_put_many
        t_start = env.now
        env.run(env.process(body(), name="bench"))
        elapsed = env.now - t_start
    elif spec.bench in ("get_uncached", "get_cached"):
        # Settled: the verifier drains, so GETs hit durable objects.
        preload(env, setup, items, settle_ns=50_000_000.0)
        if spec.bench == "get_cached":
            # Warm pass: populates the location cache (PUT already
            # noted the locations, but a read pass also exercises the
            # bucket-path fill and proves the hits are hits).
            env.run(env.process(measure_gets(), name="warm"))
            recorder = LatencyRecorder()
        t_start = env.now
        env.run(env.process(measure_gets(), name="bench"))
        elapsed = env.now - t_start
    else:
        raise ValueError(f"unknown bench {spec.bench!r}")

    setup.server.stop()
    fabric = setup.fabric
    verb_ops = fabric.fastpath_ops + fabric.fallback_ops
    row = {
        "bench": spec.bench,
        "partitions": spec.partitions,
        "ops": spec.ops,
        "value_len": spec.value_len,
        "elapsed_ns": elapsed,
        "ops_per_sec": spec.ops / elapsed * 1e9 if elapsed > 0 else 0.0,
        "p50_ns": recorder.percentile(50.0, "op"),
        "p99_ns": recorder.percentile(99.0, "op"),
        "events_scheduled": env.events_scheduled,
        "events_processed": env.events_processed,
        "fastpath_ops": fabric.fastpath_ops,
        "events_per_op": env.events_processed / verb_ops if verb_ops else 0.0,
    }
    if spec.bench.startswith("get"):
        stats = client.read_stats()
        row["cache_hits"] = stats.get("cache_hits", 0)
        row["cache_misses"] = stats.get("cache_misses", 0)
    if spec.bench == "put_many":
        row["put_batch"] = client.put_batch
        row["put_window"] = client.put_window
        row["doorbell_batches"] = client.ep.stats.get("doorbell_batches", 0)
        row["alloc_batch_rpcs"] = setup.server.rpc.served_by_op.get(
            "alloc_batch", 0
        )
    return row


# -- cluster cells --------------------------------------------------------------


def _deploy_cluster(nodes: int, replication: int, ops: int, value_len: int):
    env = Environment()
    setup = deploy(
        "efactory", env, n_clients=1, overrides={"table_buckets": 2048},
        pool_size=pool_bytes((ops, 16, value_len), headroom=4, floor=2 << 20),
        cluster={"nodes": nodes, "replication": replication},
    )
    return env, setup


def _cluster_put_cell(
    nodes: int, replication: int, ops: int, value_len: int
) -> dict[str, Any]:
    """Acked-PUT throughput at one replication factor: every put's
    latency includes the repl_wait ack gate when replication > 1."""
    env, setup = _deploy_cluster(nodes, replication, ops, value_len)
    client = setup.client(0)
    recorder = LatencyRecorder()

    def body() -> Generator[Event, Any, None]:
        for i in range(ops):
            key = make_key(i, 16)
            t0 = env.now
            yield from client.put(key, make_value(i, 0, value_len))
            recorder.record("op", env.now - t0)

    t_start = env.now
    env.run(env.process(body(), name="bench"))
    elapsed = env.now - t_start
    metrics = setup.cluster.metrics()
    setup.stop()
    return {
        "bench": "cluster_put",
        "nodes": nodes,
        "replication": replication,
        "ops": ops,
        "elapsed_ns": elapsed,
        "ops_per_sec": ops / elapsed * 1e9 if elapsed > 0 else 0.0,
        "p50_ns": recorder.percentile(50.0, "op"),
        "p99_ns": recorder.percentile(99.0, "op"),
        "shipped_records": metrics["shipped_records"],
        "repl_lag_bytes": metrics["repl_lag_bytes"],
    }


def _cluster_failover_cell(
    nodes: int, ops: int, value_len: int
) -> dict[str, Any]:
    """Failover time: preload, kill a primary, measure simulated time
    until a GET routed to that partition succeeds again."""
    env, setup = _deploy_cluster(nodes, 2, ops, value_len)
    client = setup.client(0)
    cluster = setup.cluster
    keys = [make_key(i, 16) for i in range(ops)]
    result: dict[str, Any] = {}

    def body() -> Generator[Event, Any, None]:
        for i, key in enumerate(keys):
            yield from client.put(key, make_value(i, 0, value_len))
        # A key owned by node 0 (the victim) measures the outage window.
        victim_parts = [
            r.part_id for r in cluster.router.routes if r.replicas[0] == 0
        ]
        probe = next(
            (
                (i, k)
                for i, k in enumerate(keys)
                if client._part_of(k) in victim_parts
            ),
            None,
        )
        cluster.kill_node(0)
        t_kill = env.now
        yield from cluster.await_stable(timeout_ns=50_000_000.0)
        if probe is not None:
            i, key = probe
            got = yield from client.get(key)
            assert got == make_value(i, 0, value_len)
        result["failover_ns"] = env.now - t_kill

    env.run(env.process(body(), name="bench"))
    result.update(
        {
            "bench": "cluster_failover",
            "nodes": nodes,
            "replication": 2,
            "preloaded": ops,
            "failovers": cluster.failovers,
            "promotions": cluster.promotions,
        }
    )
    setup.stop()
    return result


def _cluster_migration_cell(nodes: int, ops: int, value_len: int) -> dict[str, Any]:
    """Live-migration throughput: preload, move the fullest partition to
    another node, report keys/bytes moved per simulated second."""
    env, setup = _deploy_cluster(nodes, 2, ops, value_len)
    client = setup.client(0)
    cluster = setup.cluster
    result: dict[str, Any] = {}

    def body() -> Generator[Event, Any, None]:
        counts: dict[int, int] = {}
        for i in range(ops):
            key = make_key(i, 16)
            yield from client.put(key, make_value(i, 0, value_len))
            part = client._part_of(key)
            counts[part] = counts.get(part, 0) + 1
        part = max(counts, key=lambda p: counts[p])
        src = cluster.router.primary(part)
        dst = next(n.node_id for n in cluster.nodes if n.node_id != src)
        stats = yield from cluster.migrate(part, dst)
        result.update(stats)

    env.run(env.process(body(), name="bench"))
    dur = result.get("duration_ns", 0.0)
    result.update(
        {
            "bench": "cluster_migration",
            "nodes": nodes,
            "replication": 2,
            "keys_per_sec": result.get("moved", 0) / dur * 1e9 if dur else 0.0,
            "bytes_per_sec": result.get("bytes", 0) / dur * 1e9 if dur else 0.0,
        }
    )
    setup.stop()
    return result


def run_cluster_bench_suite(
    *,
    nodes: int = 3,
    ops: int = 128,
    value_len: int = 64,
) -> dict[str, Any]:
    """Replication-factor put scaling, failover time, and live-migration
    throughput."""
    rows = []
    for rf in range(1, nodes + 1):
        rows.append(_cluster_put_cell(nodes, rf, ops, value_len))
    rows.append(_cluster_failover_cell(nodes, ops, value_len))
    rows.append(_cluster_migration_cell(nodes, ops, value_len))
    return {
        "suite": "cluster",
        "nodes": nodes,
        "ops": ops,
        "value_len": value_len,
        "results": rows,
    }


# -- the canonical open-loop load cell -------------------------------------------

#: Mean rate per client (ops/s) — at 1k clients this offers 2M ops/s,
#: comfortably inside the store's capacity (queueing stays bounded, the
#: SLO is meetable) while keeping arrivals dense enough that completion
#: grid ticks are shared across clients.
_RATE_PER_CLIENT_OPS_S = 2_000.0
#: Completion-grid bucket for the load cells (the batcher's own grid;
#: the kernel's heap has none). Wider than the batcher's 128 ns default:
#: the sweep showed 256 ns maximizes cross-client sharing before latency
#: quantization starts costing more events than batching saves.
_BUCKET_NS = 256.0
_SLO_NS = 25_000.0


def load_cell_spec(
    mix: str, clients: int, ops_per_client: int, seed: int
) -> LoadSpec:
    """The canonical single-tenant open-loop cell: 128 B values over
    1,024 keys, constant arrivals, completion batching and a 64-request
    admission watermark armed."""
    tenant = TenantSpec(
        name=mix,
        workload=WORKLOADS[mix](key_count=1024, value_len=128),
        clients=clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * clients,
        slo_ns=_SLO_NS,
    )
    return LoadSpec(
        tenants=(tenant,),
        seed=seed,
        completion_batching=True,
        batch_bucket_ns=_BUCKET_NS,
        admission_watermark=64,
    )
