"""Command-line interface: ``python -m repro <command>``.

Lets a downstream user drive the reproduction without writing code::

    python -m repro list
    python -m repro run --store efactory --workload YCSB-B \\
        --value-size 1024 --clients 8 --ops 400 --seeds 42 43 44
    python -m repro fig 9 --workload update-only --sizes 64 1024 4096
    python -m repro crash --store erda --seeds 7 11 13
    python -m repro crashmatrix --store efactory --strict
    python -m repro fig 1 --json out.json

Every command prints the same text tables the benchmarks do; ``--json``
additionally writes machine-readable results.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro._version import __version__
from repro.analysis.stats import fmt_ns
from repro.analysis.tables import Table, banner
from repro.errors import ConfigError
from repro.faults.plans import NODE_KILL_PLANS, shipped_plan_names
from repro.harness import experiments as exp
from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.crash import CrashSpec, run_crash_experiment
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix
from repro.harness.repeat import run_replicated
from repro.harness.runner import RunSpec
from repro.stores import STORES, store_names
from repro.workloads.ycsb import WORKLOADS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eFactory (ICPP '21) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available store flavours")

    run_p = sub.add_parser("run", help="run one workload on one store")
    run_p.add_argument("--store", required=True, choices=store_names())
    run_p.add_argument("--workload", default="YCSB-B", choices=list(WORKLOADS))
    run_p.add_argument("--value-size", type=int, default=1024)
    run_p.add_argument("--key-count", type=int, default=1024)
    run_p.add_argument("--clients", type=int, default=8)
    run_p.add_argument("--ops", type=int, default=400)
    run_p.add_argument("--seeds", type=int, nargs="+", default=[42])
    run_p.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="shard the server into N partitions (default 1 = the "
        "paper's single-threaded server)",
    )
    run_p.add_argument(
        "--histogram",
        action="store_true",
        help="print the pooled latency distribution",
    )
    run_p.add_argument("--json", metavar="PATH", default=None)

    fig_p = sub.add_parser("fig", help="regenerate a paper figure")
    fig_p.add_argument("figure", choices=["1", "2", "9", "10", "11"])
    fig_p.add_argument("--workload", default=None, choices=list(WORKLOADS))
    fig_p.add_argument("--sizes", type=int, nargs="+", default=None)
    fig_p.add_argument("--clients", type=int, nargs="+", default=None)
    fig_p.add_argument("--ops", type=int, default=300)
    fig_p.add_argument("--json", metavar="PATH", default=None)

    crash_p = sub.add_parser("crash", help="crash-consistency audit")
    crash_p.add_argument("--store", required=True, choices=store_names())
    crash_p.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 13])
    crash_p.add_argument("--evict", type=float, default=0.35)
    crash_p.add_argument("--json", metavar="PATH", default=None)

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection run + consistency audit"
    )
    chaos_p.add_argument(
        "--store", default="efactory", choices=store_names(),
        help="store flavour (cluster plans require efactory)",
    )
    chaos_p.add_argument(
        "--plan",
        default="qp-flap",
        choices=shipped_plan_names() + ["all"],
        help="shipped fault plan to arm ('all' sweeps every plan)",
    )
    chaos_p.add_argument("--seeds", type=int, nargs="+", default=[7])
    chaos_p.add_argument("--clients", type=int, default=2)
    chaos_p.add_argument("--ops", type=int, default=60)
    chaos_p.add_argument("--keys", type=int, default=24)
    chaos_p.add_argument("--value-size", type=int, default=128)
    chaos_p.add_argument(
        "--partitions", type=int, default=1,
        help="shard the server into N partitions",
    )
    chaos_p.add_argument(
        "--nodes", type=int, default=0,
        help="cluster size (0 = auto: 3 for node-kill plans, else 1)",
    )
    chaos_p.add_argument(
        "--replication", type=int, default=0,
        help="replication factor (0 = auto: 2 for node-kill plans, else 1)",
    )
    chaos_p.add_argument(
        "--parity",
        action="store_true",
        help="arm eFactory's self-healing integrity tier (per-stripe parity, "
        "checksum ledger) with shipped defaults; its integrity tree checks "
        "only location-cache hits, and chaos runs without the cache",
    )
    chaos_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any advertised guarantee was violated",
    )
    chaos_p.add_argument("--json", metavar="PATH", default=None)

    matrix_p = sub.add_parser(
        "crashmatrix",
        help="deterministic crash-point matrix (crash at every "
        "persist boundary; prove recovery idempotent)",
    )
    matrix_p.add_argument("--store", default="efactory", choices=store_names())
    matrix_p.add_argument("--seed", type=int, default=11)
    matrix_p.add_argument(
        "--max-per-site", type=int, default=12,
        help="crash points per injection site (stride-sampled)",
    )
    matrix_p.add_argument(
        "--recovery-points", type=int, default=6,
        help="double-crash points inside recovery itself",
    )
    matrix_p.add_argument(
        "--sites", nargs="+", default=None,
        help="override the crash-site list (default: every persist/"
        "atomic-store boundary plus background stages)",
    )
    matrix_p.add_argument(
        "--partitions", type=int, default=1,
        help="shard the server into N partitions",
    )
    matrix_p.add_argument(
        "--no-replay", action="store_true",
        help="skip the from-scratch replay of each point (and with it the "
        "crash capsules: every point crashes from scratch once)",
    )
    matrix_p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any violation, non-idempotent recovery, "
        "or replay mismatch",
    )
    matrix_p.add_argument("--json", metavar="PATH", default=None)

    part_p = sub.add_parser(
        "partitions", help="partition-scaling sweep (throughput + recovery)"
    )
    part_p.add_argument(
        "--counts", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    part_p.add_argument("--ops", type=int, default=200)
    part_p.add_argument("--clients", type=int, default=16)
    part_p.add_argument("--json", metavar="PATH", default=None)

    lg_p = sub.add_parser(
        "loadgen",
        help="open-loop multi-tenant load engine (thousand-client scale)",
    )
    lg_p.add_argument(
        "--store", default="efactory", choices=store_names()
    )
    lg_p.add_argument("--mix", default="YCSB-B", choices=list(WORKLOADS))
    lg_p.add_argument("--clients", type=int, default=64)
    lg_p.add_argument(
        "--ops", type=int, default=40, help="scheduled ops per client"
    )
    lg_p.add_argument(
        "--rate", type=float, default=None,
        help="aggregate offered rate in ops/s (default: 2000 per client)",
    )
    lg_p.add_argument("--slo-us", type=float, default=25.0)
    lg_p.add_argument(
        "--curve", default="constant",
        choices=["constant", "diurnal", "burst"],
    )
    lg_p.add_argument(
        "--tenants", type=int, default=1,
        help="split the client population into N equal tenants",
    )
    lg_p.add_argument(
        "--admission", type=int, default=0, metavar="WATERMARK",
        help="per-partition admission watermark (0 = off)",
    )
    lg_p.add_argument(
        "--no-batching", action="store_true",
        help="disable cross-client completion batching",
    )
    lg_p.add_argument("--bucket-ns", type=float, default=256.0)
    lg_p.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="rotate each client's hot set every N draws (0 = off)",
    )
    lg_p.add_argument("--seed", type=int, default=42)
    lg_p.add_argument("--json", metavar="PATH", default=None)

    sc_p = sub.add_parser(
        "staticcheck",
        help="domain-aware static analysis (persist ordering, yield "
        "races, determinism, registry cross-check)",
    )
    sc_p.add_argument(
        "--root",
        default="src/repro",
        help="tree to analyze (default: src/repro)",
    )
    sc_p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppression file (default: staticcheck.toml if present)",
    )
    sc_p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any suppression file (show every raw finding)",
    )
    sc_p.add_argument(
        "--rules",
        metavar="PREFIXES",
        help="comma-separated rule-id prefixes to keep (e.g. PO,DT003)",
    )
    sc_p.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail if any suppression matched nothing this run",
    )
    sc_p.add_argument("--json", metavar="PATH", help="write the report here")

    return parser


# -- commands -----------------------------------------------------------------


def _cmd_list() -> tuple[str, Any]:
    table = Table(["name", "label", "durable PUT", "consistent GET"])
    for name in store_names():
        spec = STORES[name]
        table.add(
            name,
            spec.label,
            "yes" if spec.durable_put else "no",
            "yes" if spec.consistent_get else "no",
        )
    return (
        banner("available stores") + "\n" + table.render(),
        {name: STORES[name].label for name in store_names()},
    )


def _cmd_run(args: argparse.Namespace) -> tuple[str, Any]:
    spec = RunSpec(
        store=args.store,
        workload=WORKLOADS[args.workload](
            value_len=args.value_size, key_count=args.key_count
        ),
        n_clients=args.clients,
        ops_per_client=args.ops,
        warmup_ops=max(20, args.ops // 10),
        config_overrides=(
            {"num_partitions": args.partitions} if args.partitions != 1 else {}
        ),
    )
    rep = run_replicated(spec, seeds=args.seeds)
    table = Table(["metric", "value"])
    table.add("store", STORES[args.store].label)
    table.add("workload", f"{args.workload}, {args.value_size}B values")
    table.add("clients x ops", f"{args.clients} x {args.ops}")
    table.add("throughput", f"{rep.throughput_mops} Mops/s")
    table.add("GET p50", f"{rep.get_p50_ns} ns")
    table.add("PUT p50", f"{rep.put_p50_ns} ns")
    table.add("errors", rep.total_errors)
    extra = ""
    if args.histogram:
        from repro.analysis.histogram import LogHistogram

        hist = LogHistogram()
        for result in rep.results:
            hist.record_many(result.latency.array())
        extra = (
            "\n" + banner("latency distribution (all ops, all seeds)")
            + "\n" + hist.render()
        )
    payload = {
        "store": args.store,
        "workload": args.workload,
        "value_size": args.value_size,
        "seeds": list(rep.seeds),
        "throughput_mops": rep.throughput_mops.mean,
        "throughput_ci95": rep.throughput_mops.half_width,
        "get_p50_ns": rep.get_p50_ns.mean,
        "put_p50_ns": rep.put_p50_ns.mean,
        "errors": rep.total_errors,
    }
    return banner("run") + "\n" + table.render() + extra, payload


def _cmd_fig(args: argparse.Namespace) -> tuple[str, Any]:
    sizes = tuple(args.sizes) if args.sizes else (64, 1024, 4096)
    if args.figure == "1":
        data = exp.fig1_write_latency(sizes=sizes, ops=args.ops)
        return exp.render_fig1(data), _jsonable(data)
    if args.figure == "2":
        data = exp.fig2_get_breakdown(sizes=sizes, ops=args.ops)
        return exp.render_fig2(data), _jsonable(data)
    if args.figure == "9":
        workload = args.workload or "YCSB-C"
        data = exp.fig9_throughput(workload, sizes=sizes, ops=args.ops)
        return exp.render_fig9(workload, data), _jsonable(data)
    if args.figure == "10":
        workload = args.workload or "update-only"
        counts = tuple(args.clients) if args.clients else (1, 4, 8, 16)
        data = exp.fig10_scalability(
            workload, client_counts=counts, ops=args.ops
        )
        return exp.render_fig10(workload, data), _jsonable(data)
    # figure 11
    workloads = (args.workload,) if args.workload else tuple(WORKLOADS)
    data = exp.fig11_log_cleaning(workload_names=workloads, ops=args.ops)
    return exp.render_fig11(data), _jsonable(data)


def _cmd_crash(args: argparse.Namespace) -> tuple[str, Any]:
    reports = [
        run_crash_experiment(
            CrashSpec(store=args.store, seed=s, evict_probability=args.evict)
        )
        for s in args.seeds
    ]
    table = Table(
        ["seed", "ops", "torn", "acked lost", "non-monotonic", "ok"]
    )
    for seed, r in zip(args.seeds, reports):
        table.add(
            seed,
            r.completed_ops,
            r.torn_exposed,
            r.durability_losses,
            r.monotonicity_losses,
            "yes" if r.ok else "; ".join(r.violations),
        )
    payload = [
        {
            "seed": seed,
            "torn_exposed": r.torn_exposed,
            "durability_losses": r.durability_losses,
            "monotonicity_losses": r.monotonicity_losses,
            "violations": r.violations,
            "recovery": r.recovery.as_dict() if r.recovery else None,
        }
        for seed, r in zip(args.seeds, reports)
    ]
    title = f"crash audit: {STORES[args.store].label}"
    return banner(title) + "\n" + table.render(), payload


def _chaos_spec_for(args: argparse.Namespace, plan: str, seed: int) -> ChaosSpec:
    """Shape one chaos run; node-kill plans auto-deploy a cluster."""
    clustered = plan in NODE_KILL_PLANS
    nodes = args.nodes or (3 if clustered else 1)
    replication = args.replication or (2 if clustered else 1)
    overrides = (
        {"num_partitions": args.partitions} if args.partitions != 1 else {}
    )
    kwargs: dict[str, Any] = {}
    if clustered:
        # Hold promoted replicas to the crash matrix's bar: recover,
        # digest, recover again, assert the images are byte-identical.
        kwargs["cluster_overrides"] = {"verify_promotion": True}
    if plan == "kill-during-migration":
        # Race a live migration (partition 0 to the last node) against
        # the kill; a long drain grace widens the vulnerable window.
        kwargs["migration"] = (0, nodes - 1, 150_000.0)
        kwargs["cluster_overrides"]["drain_grace_ns"] = 200_000.0
    return ChaosSpec(
        store=args.store,
        plan=plan,
        seed=seed,
        n_clients=args.clients,
        ops_per_client=args.ops,
        key_count=args.keys,
        value_len=args.value_size,
        config_overrides=overrides,
        nodes=nodes,
        replication=replication,
        parity=bool(getattr(args, "parity", False)),
        **kwargs,
    )


def _cmd_chaos(args: argparse.Namespace) -> tuple[str, Any, int]:
    plans = shipped_plan_names() if args.plan == "all" else [args.plan]
    reports = [
        run_chaos_experiment(_chaos_spec_for(args, plan, seed))
        for plan in plans
        for seed in args.seeds
    ]
    table = Table(
        ["plan", "seed", "ops", "avail", "faults", "retries", "timeouts", "verdict"]
    )
    for r in reports:
        res = r.resilience
        table.add(
            r.plan_name,
            r.spec.seed,
            r.attempted_ops,
            f"{r.availability:.3f}",
            len(r.fault_schedule),
            res.get("retries", 0),
            res.get("timeouts", 0),
            "ok" if r.ok else "; ".join(r.violations[:2]),
        )
    bad = sum(1 for r in reports if not r.ok)
    title = f"chaos audit: {STORES[args.store].label}"
    text = banner(title) + "\n" + table.render()
    clustered = [r for r in reports if r.cluster]
    if clustered:
        # The per-node ``cluster`` section of server.metrics(), one row
        # per (run, node): shipping volume, failovers, promotions.
        ctable = Table(
            ["plan", "seed", "node", "alive", "primary of",
             "shipped", "failovers", "promotions", "migrations"]
        )
        for r in clustered:
            for nm in r.cluster.get("nodes", []):
                ctable.add(
                    r.plan_name,
                    r.spec.seed,
                    nm["node"],
                    "yes" if nm["alive"] else "no",
                    ",".join(str(p) for p in nm["primary_of"]) or "-",
                    nm["shipped_records"],
                    nm["failovers"],
                    nm["promotions"],
                    nm["migrations"],
                )
        text += "\n" + banner("cluster metrics") + "\n" + ctable.render()
        idem = [
            ok for r in clustered
            for ok in r.cluster.get("promotion_idempotent", [])
        ]
        if idem:
            text += (
                f"\npromotion recovery idempotent: "
                f"{sum(idem)}/{len(idem)} byte-identical"
            )
    repaired = [r for r in reports if r.repair]
    if repaired:
        # Repair-outcome accounting under media faults: how each
        # detected corruption was resolved, by escalation stage.
        rtable = Table(
            ["plan", "seed", "injected", "detected", "reconstructed",
             "replica", "rolled back", "cleared", "tree rejects"]
        )
        for r in repaired:
            rep = r.repair
            rtable.add(
                r.plan_name,
                r.spec.seed,
                rep["media_faults"],
                rep["detected"],
                rep["reconstructed"],
                rep["replica_fetched"],
                rep["rolled_back"],
                rep["cleared"],
                rep["tree_rejects"],
            )
        text += "\n" + banner("repair outcomes") + "\n" + rtable.render()
        for r in repaired:
            if r.repair["media_faults"] == 0:
                text += (
                    f"\nno media fault landed in {r.plan_name} seed {r.spec.seed}: "
                    "media faults strike NVM writebacks, and the store wrote "
                    "nothing back (or no writeback drew one)"
                )
    if bad:
        text += f"\n{bad} run(s) violated advertised guarantees"
    status = 1 if (bad and args.strict) else 0
    return text, [r.as_dict() for r in reports], status


def _cmd_crashmatrix(args: argparse.Namespace) -> tuple[str, Any, int]:
    overrides = (
        {"num_partitions": args.partitions} if args.partitions != 1 else {}
    )
    spec_kwargs: dict[str, Any] = dict(
        store=args.store,
        seed=args.seed,
        max_per_site=args.max_per_site,
        recovery_points=args.recovery_points,
        replay=not args.no_replay,
        config_overrides=overrides,
    )
    if args.sites:
        spec_kwargs["sites"] = tuple(args.sites)
    rep = run_crash_matrix(CrashMatrixSpec(**spec_kwargs))

    # one row per (phase, site): points exercised and their verdicts
    rows: dict[tuple[str, str], dict[str, int]] = {}
    for r in rep.results:
        row = rows.setdefault(
            (r.phase, r.site),
            {"points": 0, "crashed": 0, "bad": 0, "nonidem": 0, "replay": 0},
        )
        row["points"] += 1
        if r.crashed:
            row["crashed"] += 1
            row["bad"] += bool(r.violations)
            row["nonidem"] += not r.idempotent
            row["replay"] += not r.replay_identical
    # A named site the counting pass never visited was not tested at all:
    # it gets a 0-point row, and fails --strict.
    unvisited = [
        site for site in dict.fromkeys(args.sites or ())
        if not rep.site_op_counts.get(site, 0)
    ]
    for site in unvisited:
        rows.setdefault(
            ("workload", site),
            {"points": 0, "crashed": 0, "bad": 0, "nonidem": 0, "replay": 0},
        )
    table = Table(
        ["phase", "site", "points", "crashed", "violations",
         "non-idempotent", "replay mismatch"]
    )
    for (phase, site), row in sorted(rows.items()):
        table.add(
            phase, site, row["points"], row["crashed"], row["bad"],
            row["nonidem"], row["replay"],
        )
    title = f"crash-point matrix: {STORES[args.store].label}"
    text = banner(title) + "\n" + table.render()
    text += (
        f"\n{rep.total_points} crash points executed, "
        f"{len(rep.violations)} violation(s), "
        f"{len(rep.non_idempotent)} non-idempotent recovery run(s), "
        f"{len(rep.replay_mismatches)} replay mismatch(es)"
    )
    for v in rep.violations[:10]:
        text += f"\n  VIOLATION {v}"
    for p in rep.non_idempotent[:10]:
        text += f"\n  NON-IDEMPOTENT {p}"
    if unvisited:
        text += (
            f"\nnever visited by the workload, so never crashed at: "
            f"{', '.join(unvisited)}"
        )
    status = 1 if (args.strict and (unvisited or not rep.ok)) else 0
    return text, rep.as_dict(), status


def _cmd_partitions(args: argparse.Namespace) -> tuple[str, Any]:
    counts = tuple(args.counts)
    tput = exp.partition_scaling(
        partition_counts=counts, ops=args.ops, n_clients=args.clients
    )
    recov = exp.partition_recovery_sweep(partition_counts=counts)
    text = (
        exp.render_partition_scaling(tput)
        + "\n"
        + exp.render_partition_recovery(recov)
    )
    return text, {"throughput_mops": _jsonable(tput), "recovery_ns": _jsonable(recov)}


def _cmd_loadgen(args: argparse.Namespace) -> tuple[str, Any]:
    from repro.loadgen import ArrivalCurve, LoadSpec, TenantSpec, run_load

    rate = args.rate if args.rate is not None else 2_000.0 * args.clients
    curve = ArrivalCurve(kind=args.curve)
    workload_factory = WORKLOADS[args.mix]
    n_tenants = max(1, args.tenants)
    per = args.clients // n_tenants
    tenants = []
    for i in range(n_tenants):
        clients = per + (1 if i < args.clients % n_tenants else 0)
        if clients == 0:
            continue
        tenants.append(
            TenantSpec(
                name=args.mix if n_tenants == 1 else f"{args.mix}-t{i}",
                workload=workload_factory(),
                clients=clients,
                ops_per_client=args.ops,
                rate_ops_s=rate * clients / args.clients,
                slo_ns=args.slo_us * 1_000.0,
                curve=curve,
            )
        )
    spec = LoadSpec(
        tenants=tuple(tenants),
        store=args.store,
        seed=args.seed,
        completion_batching=not args.no_batching,
        batch_bucket_ns=args.bucket_ns,
        admission_watermark=args.admission,
        churn_rotate_every=args.churn,
    )
    report = run_load(spec)
    payload = report.as_dict()
    table = Table(
        ["tenant", "clients", "ops", "err", "kops", "p50", "p99", "p999",
         "slo%", "goodput/s"]
    )
    for t in report.tenants:
        table.add(
            t.name,
            str(t.clients),
            str(t.ops),
            str(t.errors),
            f"{t.throughput_kops:.0f}",
            fmt_ns(t.p50_ns),
            fmt_ns(t.p99_ns),
            fmt_ns(t.p999_ns),
            f"{t.slo_fraction * 100.0:.1f}",
            f"{t.goodput_ops_s:.0f}",
        )
    lines = [
        banner(f"Open-loop load: {report.clients} clients on {report.store}"),
        table.render(),
        f"events/op {report.events_per_op:.2f}"
        + (
            f"  batches {report.sim['batches']}"
            f"  batched waits {report.sim['batched_waits']}"
            if "batches" in report.sim
            else ""
        ),
    ]
    if report.admission is not None:
        a = report.admission
        lines.append(
            f"admission: watermark {a['watermark']}  admitted {a['admitted']}"
            f"  shed {a['shed']}  peak inflight {a['peak_inflight']}"
        )
    if report.resilience["enabled"]:
        r = report.resilience
        lines.append(
            f"resilience: retries {r['retries']}  gave up {r['gave_up']}"
        )
    return "\n".join(lines), payload


def _cmd_staticcheck(args: argparse.Namespace) -> tuple[str, Any, int]:
    from repro.staticcheck import DEFAULT_BASELINE, run_staticcheck

    baseline = None
    if not args.no_baseline:
        baseline = args.baseline or DEFAULT_BASELINE
    rules = (
        {r.strip() for r in args.rules.split(",") if r.strip()}
        if args.rules
        else None
    )
    rep = run_staticcheck(args.root, baseline=baseline, rules=rules)

    table = Table(["checker", "raw findings"])
    for name, count in rep.per_checker.items():
        table.add(name, count)
    text = banner("staticcheck") + "\n" + table.render()
    text += (
        f"\n{rep.modules_scanned} modules / {rep.functions_scanned} "
        f"functions analyzed in {rep.elapsed_s:.2f}s"
    )
    if rep.baseline_path:
        text += (
            f"\nbaseline {rep.baseline_path}: {len(rep.suppressed)} "
            "finding(s) suppressed"
        )
    for f in rep.findings:
        text += "\n" + f.render()
    for s in rep.unused_suppressions:
        text += (
            f"\nunused suppression: {s.rule} path={s.path or '*'} "
            f"({s.reason})"
        )
    status = 0
    if rep.findings:
        text += f"\nFAIL: {len(rep.findings)} unsuppressed finding(s)"
        status = 1
    elif args.strict_baseline and rep.unused_suppressions:
        text += (
            f"\nFAIL: {len(rep.unused_suppressions)} stale "
            "suppression(s) (--strict-baseline)"
        )
        status = 1
    else:
        text += "\nOK: no unsuppressed findings"
    return text, rep.as_dict(), status


def _jsonable(obj: Any) -> Any:
    """Coerce experiment dicts (int keys, tuples) into JSON-safe data."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    status = 0
    try:
        if args.command == "list":
            text, payload = _cmd_list()
        elif args.command == "run":
            text, payload = _cmd_run(args)
        elif args.command == "fig":
            text, payload = _cmd_fig(args)
        elif args.command == "crash":
            text, payload = _cmd_crash(args)
        elif args.command == "chaos":
            text, payload, status = _cmd_chaos(args)
        elif args.command == "crashmatrix":
            text, payload, status = _cmd_crashmatrix(args)
        elif args.command == "partitions":
            text, payload = _cmd_partitions(args)
        elif args.command == "loadgen":
            text, payload = _cmd_loadgen(args)
        elif args.command == "staticcheck":
            text, payload, status = _cmd_staticcheck(args)
        else:  # pragma: no cover - argparse enforces choices
            return 2
    except ConfigError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    print(text)
    json_path = getattr(args, "json", None)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"(json written to {json_path})")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
