"""`bench --suite load`: thousand-client open-loop cells (BENCH_pr10.json).

Cells:

* one 1k-client single-tenant cell per mix (default YCSB-A/B/C) on a
  constant arrival curve, completion batching and admission armed;
* one multi-tenant burst cell — a latency-sensitive ``gold`` tenant on
  a constant curve sharing the store with a ``bulk`` tenant driving
  periodic 4× bursts — reporting per-tenant goodput under distinct SLOs;
* a batching off/on comparison on the largest cell, reporting the
  events-per-op ratio (the PR 6 headroom this engine banks) and the
  wall-clock ops/s ratio.

Simulated percentiles/goodput are deterministic; wall-clock fields
(``wall_s``, ``wall_ops_per_s``) vary run to run and are informational.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.loadgen.arrivals import ArrivalCurve
from repro.loadgen.engine import LoadReport, LoadSpec, run_load
from repro.loadgen.tenants import TenantSpec
from repro.workloads.ycsb import WORKLOADS

__all__ = ["run_load_bench_suite", "load_cell_spec"]

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
    mix: str,
    clients: int,
    ops_per_client: int,
    seed: int,
    *,
    value_len: int = 128,
    key_count: int = 1024,
    curve: Optional[ArrivalCurve] = None,
    admission_watermark: int = 64,
    completion_batching: bool = True,
) -> LoadSpec:
    """The canonical single-tenant cell used by the load suite."""
    w = WORKLOADS[mix](key_count=key_count, value_len=value_len)
    tenant = TenantSpec(
        name=mix,
        workload=w,
        clients=clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * clients,
        slo_ns=_SLO_NS,
        curve=curve or ArrivalCurve(),
    )
    return LoadSpec(
        tenants=(tenant,),
        seed=seed,
        completion_batching=completion_batching,
        batch_bucket_ns=_BUCKET_NS,
        admission_watermark=admission_watermark,
    )


def _timed(spec: LoadSpec) -> dict:
    t0 = time.perf_counter()
    report = run_load(spec)
    wall = time.perf_counter() - t0
    d = report.as_dict()
    d["wall_s"] = wall
    d["wall_ops_per_s"] = (report.total_ops / wall) if wall > 0 else 0.0
    return d


def run_load_bench_suite(
    clients: int = 1000,
    ops_per_client: int = 40,
    seed: int = 42,
    mixes: tuple[str, ...] = ("YCSB-A", "YCSB-B", "YCSB-C"),
) -> dict:
    """Run every load cell; returns the BENCH_pr10.json payload."""
    cells: dict[str, dict] = {}
    for mix in mixes:
        cells[mix] = _timed(
            load_cell_spec(mix, clients, ops_per_client, seed)
        )

    # -- multi-tenant burst cell ---------------------------------------------
    gold_clients = max(1, clients // 4)
    bulk_clients = max(1, clients - gold_clients)
    gold = TenantSpec(
        name="gold",
        workload=WORKLOADS["YCSB-B"](key_count=1024, value_len=128),
        clients=gold_clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * gold_clients,
        slo_ns=15_000.0,
    )
    bulk = TenantSpec(
        name="bulk",
        workload=WORKLOADS["YCSB-A"](key_count=1024, value_len=128),
        clients=bulk_clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * bulk_clients,
        slo_ns=100_000.0,
        curve=ArrivalCurve(kind="burst", burst_factor=4.0),
    )
    cells["burst-multitenant"] = _timed(
        LoadSpec(
            tenants=(gold, bulk),
            seed=seed,
            completion_batching=True,
            batch_bucket_ns=_BUCKET_NS,
            admission_watermark=64,
        )
    )

    # -- completion batching off vs on (same cell, same seed) -----------------
    base = load_cell_spec("YCSB-C", clients, ops_per_client, seed)
    off = _timed(replace(base, completion_batching=False))
    on = _timed(base)
    comparison = {
        "cell": "YCSB-C",
        "clients": clients,
        "off": {
            "events_per_op": off["events_per_op"],
            "wall_s": off["wall_s"],
            "wall_ops_per_s": off["wall_ops_per_s"],
        },
        "on": {
            "events_per_op": on["events_per_op"],
            "wall_s": on["wall_s"],
            "wall_ops_per_s": on["wall_ops_per_s"],
        },
        #: < 1.0 means batching dispatches fewer kernel events per op.
        "events_per_op_ratio": (
            on["events_per_op"] / off["events_per_op"]
            if off["events_per_op"] > 0
            else float("nan")
        ),
        "wall_speedup": (
            on["wall_ops_per_s"] / off["wall_ops_per_s"]
            if off["wall_ops_per_s"] > 0
            else float("nan")
        ),
    }

    return {
        "suite": "load",
        "clients": clients,
        "ops_per_client": ops_per_client,
        "seed": seed,
        "cells": cells,
        "batching_comparison": comparison,
    }


def summarize_report(report: LoadReport) -> dict:
    """Compact digest for CLI table rendering."""
    return report.as_dict()
