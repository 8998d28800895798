"""Canned experiments — one function per table/figure in the paper.

Each function returns plain data (dicts keyed by system/x-value) and has
a ``render_*`` companion that prints the same rows the paper plots. The
``benchmarks/`` tree calls these; ``examples/`` demonstrates them at
smaller scale. Scale knobs (`ops`, sizes, client counts) default to
values that finish quickly; benchmarks can raise them via
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Sequence

from repro.analysis.stats import fmt_mops, fmt_ns, improvement
from repro.analysis.tables import Table, banner
from repro.crc.cost import CRC_COST
from repro.harness.crash import CrashReport, CrashSpec, run_crash_experiment
from repro.harness.runner import RunSpec, run_experiment
from repro.stores import STORES
from repro.workloads.ycsb import WORKLOADS, update_only, ycsb_c

__all__ = [
    "VALUE_SIZES",
    "FIG9_STORES",
    "fig1_write_latency",
    "render_fig1",
    "fig2_get_breakdown",
    "render_fig2",
    "fig9_throughput",
    "render_fig9",
    "fig10_scalability",
    "render_fig10",
    "fig11_log_cleaning",
    "render_fig11",
    "crash_consistency",
    "render_crash",
    "partition_scaling",
    "render_partition_scaling",
    "partition_recovery_sweep",
    "render_partition_recovery",
]

#: The paper sweeps value sizes 64 B – 4 KiB.
VALUE_SIZES = (64, 256, 1024, 2048, 4096)

#: Systems plotted in Figure 9/10.
FIG9_STORES = ("efactory", "efactory_nohr", "imm", "saw", "erda", "forca")

#: Systems in Figure 1 (durable remote write latency).
FIG1_STORES = ("ca", "saw", "imm", "rpc")


# --------------------------------------------------------------------------
# Figure 1: latency of writing to remote NVMM with different methods
# --------------------------------------------------------------------------

def fig1_write_latency(
    sizes: Sequence[int] = VALUE_SIZES,
    stores: Sequence[str] = FIG1_STORES,
    ops: int = 250,
    seed: int = 42,
) -> dict[str, dict[int, tuple[float, float]]]:
    """Median and p99 PUT latency, single client (the Fig 1 setup)."""
    out: dict[str, dict[int, tuple[float, float]]] = {}
    for store in stores:
        out[store] = {}
        for size in sizes:
            spec = RunSpec(
                store=store,
                workload=update_only(value_len=size, key_count=128),
                n_clients=1,
                ops_per_client=ops,
                warmup_ops=max(20, ops // 10),
                seed=seed,
            )
            result = run_experiment(spec)
            out[store][size] = (
                result.latency.median("put"),
                result.latency.p99("put"),
            )
    return out


def render_fig1(data: dict[str, dict[int, tuple[float, float]]]) -> str:
    lines = [banner("Figure 1: durable remote-write latency (median / p99)")]
    table = Table(["system", "size(B)", "median", "p99"])
    for store, by_size in data.items():
        for size, (p50, p99) in by_size.items():
            table.add(STORES[store].label, size, fmt_ns(p50), fmt_ns(p99))
    lines.append(table.render())
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 2: GET latency breakdown (CRC share) for Erda and Forca
# --------------------------------------------------------------------------

def fig2_get_breakdown(
    sizes: Sequence[int] = VALUE_SIZES,
    stores: Sequence[str] = ("erda", "forca"),
    ops: int = 250,
    seed: int = 42,
) -> dict[str, dict[int, dict[str, float]]]:
    """Mean GET latency decomposed into CRC vs everything else.

    The CRC share uses the calibrated cost model (the same number the
    store charged during the run), mirroring the paper's phase
    instrumentation.
    """
    out: dict[str, dict[int, dict[str, float]]] = {}
    for store in stores:
        out[store] = {}
        for size in sizes:
            spec = RunSpec(
                store=store,
                workload=ycsb_c(value_len=size, key_count=256),
                n_clients=1,
                ops_per_client=ops,
                warmup_ops=max(20, ops // 10),
                seed=seed,
            )
            result = run_experiment(spec)
            total = result.latency.mean("get")
            crc = CRC_COST.cost_ns(size)
            out[store][size] = {
                "total_ns": total,
                "crc_ns": crc,
                "other_ns": total - crc,
                "crc_share": crc / total if total > 0 else float("nan"),
            }
    return out


def render_fig2(data: dict[str, dict[int, dict[str, float]]]) -> str:
    lines = [banner("Figure 2: GET latency breakdown (CRC share)")]
    table = Table(["system", "size(B)", "total", "crc", "other", "crc %"])
    for store, by_size in data.items():
        for size, row in by_size.items():
            table.add(
                STORES[store].label,
                size,
                fmt_ns(row["total_ns"]),
                fmt_ns(row["crc_ns"]),
                fmt_ns(row["other_ns"]),
                f"{row['crc_share'] * 100:.0f}%",
            )
    lines.append(table.render())
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 9: end-to-end throughput with different value sizes (4 workloads)
# --------------------------------------------------------------------------

def fig9_throughput(
    workload_name: str,
    sizes: Sequence[int] = VALUE_SIZES,
    stores: Sequence[str] = FIG9_STORES,
    n_clients: int = 8,
    ops: int = 500,
    key_count: int = 1024,
    seed: int = 42,
) -> dict[str, dict[int, float]]:
    """Throughput (Mops/s) per system per value size for one workload."""
    factory = WORKLOADS[workload_name]
    out: dict[str, dict[int, float]] = {}
    for store in stores:
        out[store] = {}
        for size in sizes:
            spec = RunSpec(
                store=store,
                workload=factory(value_len=size, key_count=key_count),
                n_clients=n_clients,
                ops_per_client=ops,
                warmup_ops=max(30, ops // 10),
                seed=seed,
            )
            out[store][size] = run_experiment(spec).throughput_mops
    return out


def render_fig9(workload_name: str, data: dict[str, dict[int, float]]) -> str:
    lines = [banner(f"Figure 9 ({workload_name}): throughput vs value size")]
    sizes = sorted(next(iter(data.values())).keys())
    table = Table(["system"] + [f"{s}B" for s in sizes])
    for store, by_size in data.items():
        table.add(
            STORES[store].label, *(fmt_mops(by_size[s]) for s in sizes)
        )
    lines.append(table.render())
    # headline ratios the paper reports
    if "efactory" in data and "erda" in data and sizes:
        big = sizes[-1]
        for other in ("erda", "forca", "imm", "saw"):
            if other in data and data[other][big] > 0:
                ratio = data["efactory"][big] / data[other][big]
                lines.append(
                    f"eFactory vs {STORES[other].label} @ {big}B: {ratio:.2f}x"
                )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 10: throughput with variable number of client processes
# --------------------------------------------------------------------------

def fig10_scalability(
    workload_name: str,
    client_counts: Sequence[int] = (1, 2, 4, 8, 16),
    stores: Sequence[str] = FIG9_STORES,
    value_len: int = 2048,
    key_len: int = 32,
    ops: int = 400,
    key_count: int = 1024,
    seed: int = 42,
) -> dict[str, dict[int, float]]:
    """Throughput vs client count (32 B keys / 2048 B values, §6.2)."""
    factory = WORKLOADS[workload_name]
    out: dict[str, dict[int, float]] = {}
    for store in stores:
        out[store] = {}
        for n in client_counts:
            spec = RunSpec(
                store=store,
                workload=factory(
                    value_len=value_len, key_len=key_len, key_count=key_count
                ),
                n_clients=n,
                ops_per_client=ops,
                warmup_ops=max(30, ops // 10),
                seed=seed,
            )
            out[store][n] = run_experiment(spec).throughput_mops
    return out


def render_fig10(workload_name: str, data: dict[str, dict[int, float]]) -> str:
    lines = [banner(f"Figure 10 ({workload_name}): throughput vs #clients")]
    counts = sorted(next(iter(data.values())).keys())
    table = Table(["system"] + [f"{n} cli" for n in counts])
    for store, by_n in data.items():
        table.add(STORES[store].label, *(fmt_mops(by_n[n]) for n in counts))
    lines.append(table.render())
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 11: performance impact of log cleaning (eFactory)
# --------------------------------------------------------------------------

def fig11_log_cleaning(
    workload_names: Sequence[str] = ("YCSB-C", "YCSB-B", "YCSB-A", "update-only"),
    value_len: int = 2048,
    key_len: int = 32,
    n_clients: int = 4,
    ops: int = 400,
    key_count: int = 512,
    seed: int = 42,
) -> dict[str, dict[str, float]]:
    """Mean op latency with and without continuous log cleaning."""

    def keep_cleaning(env, setup) -> None:
        server = setup.server

        def loop() -> Generator[Any, Any, None]:
            while True:
                proc = server.trigger_cleaning()
                if proc is not None:
                    yield proc
                yield env.timeout(20_000.0)

        env.process(loop(), name="fig11-cleaning-loop")

    out: dict[str, dict[str, float]] = {}
    for wname in workload_names:
        factory = WORKLOADS[wname]
        spec = RunSpec(
            store="efactory",
            workload=factory(
                value_len=value_len, key_len=key_len, key_count=key_count
            ),
            n_clients=n_clients,
            ops_per_client=ops,
            warmup_ops=max(30, ops // 10),
            seed=seed,
        )
        normal = run_experiment(spec)
        cleaning = run_experiment(spec, post_setup=keep_cleaning)
        out[wname] = {
            "normal_ns": normal.latency.mean(),
            "cleaning_ns": cleaning.latency.mean(),
            "overhead": improvement(
                cleaning.latency.mean(), normal.latency.mean()
            ),
        }
    return out


def render_fig11(data: dict[str, dict[str, float]]) -> str:
    lines = [banner("Figure 11: log-cleaning latency impact (eFactory)")]
    table = Table(["workload", "normal", "during cleaning", "overhead"])
    for wname, row in data.items():
        table.add(
            wname,
            fmt_ns(row["normal_ns"]),
            fmt_ns(row["cleaning_ns"]),
            f"{row['overhead'] * 100:+.1f}%",
        )
    lines.append(table.render())
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Partition scaling (extension): aggregate throughput and recovery time
# of the sharded server core vs the paper's single-threaded design
# --------------------------------------------------------------------------

def partition_scaling(
    partition_counts: Sequence[int] = (1, 2, 4, 8),
    store: str = "efactory",
    value_len: int = 128,
    n_clients: int = 16,
    ops: int = 200,
    key_count: int = 512,
    seed: int = 42,
) -> dict[int, float]:
    """Aggregate update-only throughput (Mops/s) vs partition count.

    ``server_cores`` is pinned to 1 so every partition models exactly
    one core's worth of dispatch budget: the x-axis is cores-by-way-of-
    partitions, the paper's single-threaded server being x = 1.
    """
    out: dict[int, float] = {}
    for n in partition_counts:
        spec = RunSpec(
            store=store,
            workload=update_only(value_len=value_len, key_count=key_count),
            n_clients=n_clients,
            ops_per_client=ops,
            warmup_ops=max(20, ops // 10),
            seed=seed,
            config_overrides={"num_partitions": n, "server_cores": 1},
        )
        out[n] = run_experiment(spec).throughput_mops
    return out


def render_partition_scaling(data: dict[int, float]) -> str:
    lines = [banner("Partition scaling: update-only throughput vs #partitions")]
    table = Table(["partitions", "throughput", "speedup vs 1"])
    base = data.get(1)
    for n in sorted(data):
        speedup = f"{data[n] / base:.2f}x" if base else "-"
        table.add(n, fmt_mops(data[n]), speedup)
    lines.append(table.render())
    return "\n".join(lines)


def partition_recovery_sweep(
    partition_counts: Sequence[int] = (1, 2, 4, 8),
    n_keys: int = 256,
    value_len: int = 128,
    versions: int = 2,
) -> dict[int, float]:
    """Post-crash recovery wall-clock (ns) vs partition count.

    Shards recover concurrently (disjoint pools + table segments), so
    recovery time should approach the slowest shard's share of the data
    rather than the whole store's.
    """
    from repro.harness.scaffold import deploy, preload, recover
    from repro.sim.kernel import Environment
    from repro.workloads.keyspace import make_key, make_value

    out: dict[int, float] = {}
    for n in partition_counts:
        env = Environment()
        setup = deploy(
            "efactory", env, pool_size=4 << 20, n_clients=1,
            overrides={"num_partitions": n},
        )
        preload(
            env, setup,
            (
                (make_key(i, 16), make_value(i, v, value_len))
                for v in range(versions)
                for i in range(n_keys)
            ),
        )
        env.run(until=env.now + 2_000_000)
        setup.server.stop()
        report = recover(setup)
        out[n] = report.duration_ns
    return out


def render_partition_recovery(data: dict[int, float]) -> str:
    lines = [banner("Partition scaling: recovery wall-clock vs #partitions")]
    table = Table(["partitions", "recovery", "vs 1 partition"])
    base = data.get(1)
    for n in sorted(data):
        rel = f"{data[n] / base:.2f}x" if base else "-"
        table.add(n, fmt_ns(data[n]), rel)
    lines.append(table.render())
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Crash consistency (the §4/§7 guarantees, made measurable)
# --------------------------------------------------------------------------

def crash_consistency(
    stores: Sequence[str] = ("efactory", "erda", "forca", "imm", "saw", "rpc", "ca"),
    seeds: Sequence[int] = (7, 11, 13),
    evict_probability: float = 0.35,
) -> dict[str, list[CrashReport]]:
    """Crash each store several times and audit its guarantees."""
    out: dict[str, list[CrashReport]] = {}
    for store in stores:
        out[store] = [
            run_crash_experiment(
                CrashSpec(
                    store=store, seed=seed, evict_probability=evict_probability
                )
            )
            for seed in seeds
        ]
    return out


def render_crash(data: dict[str, list[CrashReport]]) -> str:
    lines = [banner("Crash consistency audit (per-store, summed over seeds)")]
    table = Table(
        ["system", "torn exposed", "acked lost", "non-monotonic", "violations"]
    )
    for store, reports in data.items():
        torn = sum(r.torn_exposed for r in reports)
        lost = sum(r.durability_losses for r in reports)
        mono = sum(r.monotonicity_losses for r in reports)
        viol = sum(len(r.violations) for r in reports)
        table.add(STORES[store].label, torn, lost, mono, viol)
    lines.append(table.render())
    lines.append(
        "(CA torn exposure and Erda non-monotonicity are expected weaknesses;"
        " a non-zero 'violations' cell breaks an advertised guarantee.)"
    )
    return "\n".join(lines)
