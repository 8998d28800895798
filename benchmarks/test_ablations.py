"""Ablations of eFactory's design choices (DESIGN.md §5).

Beyond the paper's own factor analysis (hybrid read on/off — covered in
the Fig 9/10 benches), these isolate:

* receive batching ("multiple receiving regions", §6.1);
* the background thread's verify timeout (too short invalidates
  in-flight writes; the default does not);
* sensitivity to a slower fabric (the client-active advantage persists
  when every wire cost doubles).
"""

import pytest

from benchmarks.conftest import scaled
from repro.analysis.tables import Table, banner
from repro.core import EFactoryClient, EFactoryServer
from repro.harness.runner import RunSpec, run_experiment
from repro.rdma.latency import FabricTiming
from repro.workloads.ycsb import update_only, ycsb_b


def _spec(store, workload, **cfg):
    return RunSpec(
        store=store,
        workload=workload,
        n_clients=8,
        ops_per_client=scaled(300),
        warmup_ops=30,
        config_overrides=cfg,
    )


def test_recv_batching_ablation(benchmark, show, monkeypatch):
    """``EFactoryServer.recv_batching`` < 1 trims per-request dispatch;
    with batching disabled eFactory's PUT throughput drops toward the
    others'."""

    def run():
        workload = update_only(value_len=256, key_count=512)
        batched = run_experiment(_spec("efactory", workload))
        with monkeypatch.context() as m:
            m.setattr(EFactoryServer, "recv_batching", 1.0)
            unbatched = run_experiment(_spec("efactory", workload))
        return batched.throughput_mops, unbatched.throughput_mops

    batched, unbatched = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["variant", "Mops/s"])
    t.add("recv batching (default)", batched)
    t.add("no batching", unbatched)
    show(banner("Ablation: multiple receive regions") + "\n" + t.render())
    assert batched >= unbatched * 0.999


def test_adaptive_read_recovers_hot_write_regime(benchmark, show, monkeypatch):
    """The Fig 9(c)@4KiB deviation and its fix: under write-heavy
    zipfian load the optimistic read is mostly wasted; the adaptive-read
    extension (skip the pure attempt for recently-raced keys) claws the
    throughput back."""
    from repro.workloads.ycsb import ycsb_a

    def run():
        workload = ycsb_a(value_len=4096, key_count=1024)
        plain = run_experiment(_spec("efactory", workload))
        with monkeypatch.context() as m:
            m.setattr(EFactoryClient, "adaptive_read", True)
            adaptive = run_experiment(_spec("efactory", workload))
        nohr = run_experiment(_spec("efactory_nohr", workload))
        return {
            "hybrid": plain.throughput_mops,
            "adaptive": adaptive.throughput_mops,
            "always-rpc": nohr.throughput_mops,
            "hybrid_fallback_share": plain.fallback_reads
            / max(1, plain.fallback_reads + plain.pure_reads),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["variant", "Mops/s"])
    for k in ("hybrid", "adaptive", "always-rpc"):
        t.add(k, data[k])
    show(
        banner("Ablation: adaptive hybrid read (YCSB-A, 4 KiB)")
        + "\n"
        + t.render()
        + f"\nplain hybrid fallback share: {data['hybrid_fallback_share']:.0%}"
    )
    # the regime is real (plenty of races) and the fix helps
    assert data["hybrid_fallback_share"] > 0.2
    assert data["adaptive"] >= data["hybrid"] * 0.99


def test_verify_timeout_is_safe_for_live_writes(benchmark, show):
    """The §4.3.2 timeout must never invalidate writes that are merely
    slow: with the default timeout a loaded run invalidates nothing."""

    def run():
        workload = update_only(value_len=4096, key_count=256)
        spec = _spec("efactory", workload)
        result = run_experiment(spec)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.errors == 0
    show(
        banner("Ablation: verify timeout under load")
        + f"\nthroughput {result.throughput_mops:.3f} Mops/s, 0 invalidations expected"
    )


def test_skew_sensitivity_of_hybrid_read(benchmark, show):
    """Read-write races are a *skew* phenomenon: the hotter the keys,
    the more often a GET lands inside a racing write's window and falls
    back. Uniform traffic keeps the pure-read hit rate near 100%."""
    from repro.workloads.ycsb import ycsb_b

    def run():
        out = {}
        for label, dist, theta in (
            ("uniform", "uniform", 0.99),
            ("zipf .90", "zipfian", 0.90),
            ("zipf .99", "zipfian", 0.99),
        ):
            workload = ycsb_b(
                value_len=1024,
                key_count=1024,
                distribution=dist,
                zipf_theta=theta,
            )
            result = run_experiment(_spec("efactory", workload))
            total = result.pure_reads + result.fallback_reads
            out[label] = {
                "hit_rate": result.pure_reads / max(1, total),
                "mops": result.throughput_mops,
            }
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(["distribution", "pure-read hit rate", "Mops/s"])
    for label, row in data.items():
        t.add(label, f"{row['hit_rate']:.1%}", row["mops"])
    show(banner("Ablation: key skew vs hybrid-read hit rate") + "\n" + t.render())
    assert data["uniform"]["hit_rate"] >= data["zipf .99"]["hit_rate"]
    assert data["uniform"]["hit_rate"] > 0.97


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_fabric_scaling_preserves_ordering(benchmark, show, factor):
    """Double every wire cost: eFactory must still beat SAW on writes —
    the advantage is structural (fewer round trips), not a constant."""

    def run():
        workload = update_only(value_len=1024, key_count=256)
        timing = FabricTiming().scaled(factor)
        out = {}
        for store in ("efactory", "saw"):
            spec = RunSpec(
                store=store,
                workload=workload,
                n_clients=4,
                ops_per_client=scaled(200),
                warmup_ops=20,
            )
            # route the custom fabric through config-independent path
            from repro.harness import runner as _r
            from repro.sim.kernel import Environment
            from repro.stores import build_store
            from repro.workloads.keyspace import make_key, make_value

            env = Environment()
            setup = build_store(
                store,
                env,
                fabric_timing=timing,
                config_overrides={
                    "pool_size": _r.size_pool_for(spec),
                    **({"auto_clean": False} if store.startswith("efactory") else {}),
                },
                n_clients=spec.n_clients,
            ).start()
            result = _run_simple(env, setup, spec)
            out[store] = result
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        banner(f"Ablation: fabric x{factor}")
        + f"\neFactory {data['efactory']:.3f} vs SAW {data['saw']:.3f} Mops/s"
    )
    assert data["efactory"] > data["saw"]


def _run_simple(env, setup, spec):
    """Minimal closed-loop measurement on an existing deployment."""
    from repro.sim.rng import RngRegistry
    from repro.workloads.keyspace import make_key, make_value

    w = spec.workload
    keys = [make_key(k, w.key_len) for k in range(w.key_count)]
    rngs = RngRegistry(spec.seed)
    done = {"ops": 0, "start": None, "end": 0.0}

    def client(i):
        c = setup.client(i)
        rng = rngs.stream(f"abl{i}")
        ops = w.client_stream(rng, spec.ops_per_client)
        for j, op in enumerate(ops):
            if j == spec.warmup_ops:
                if done["start"] is None or env.now < done["start"]:
                    done["start"] = env.now
            ver = j + 1
            yield from c.put(keys[op.key_id], make_value(op.key_id, ver, w.value_len))
            if j >= spec.warmup_ops:
                done["ops"] += 1
        done["end"] = max(done["end"], env.now)

    procs = [env.process(client(i)) for i in range(spec.n_clients)]
    env.run(env.all_of(procs))
    setup.server.stop()
    window = done["end"] - (done["start"] or 0.0)
    return done["ops"] / window * 1e3 if window > 0 else 0.0
