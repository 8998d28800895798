"""Thousand-client open-loop load cells (PR 10).

The headline assertion banks PR 6's named headroom: with cross-client
completion batching armed, the kernel dispatches at most 0.8x the
events per operation of the unbatched run on the same 1k-client cell —
a deterministic, seeded comparison (wall-clock speedup is reported but
not asserted; interpreter noise swamps it on shared CI runners).
"""

from dataclasses import replace

from benchmarks.conftest import scaled
from repro.loadgen.engine import run_load
from tests.harness.cells import load_cell_spec

CLIENTS = 1000


def _fmt(report):
    t = report.tenants[0]
    return (
        f"{t.name}: {report.clients} clients, {t.ops} ops, "
        f"p50 {t.p50_ns / 1e3:.1f}us p99 {t.p99_ns / 1e3:.1f}us "
        f"p999 {t.p999_ns / 1e3:.1f}us slo {t.slo_fraction * 100:.1f}% "
        f"goodput {t.goodput_ops_s:.0f}/s events/op {report.events_per_op:.2f}"
    )


def test_thousand_client_completion_batching(show):
    """Batching must cut kernel events/op by >=20% on the 1k-client cell."""
    base = load_cell_spec("YCSB-C", CLIENTS, scaled(40), seed=42)
    off = run_load(replace(base, completion_batching=False))
    on = run_load(base)
    show(
        "1k-client completion batching (YCSB-C):\n"
        f"  off: {_fmt(off)}\n"
        f"  on:  {_fmt(on)}\n"
        f"  events/op ratio {on.events_per_op / off.events_per_op:.3f}"
    )
    assert on.clients == CLIENTS
    assert on.total_errors == off.total_errors == 0
    assert on.sim["batched_waits"] > 0
    assert on.events_per_op <= 0.8 * off.events_per_op


def test_thousand_client_slo_under_load(show):
    """A healthy 1k-client cell meets its SLO almost everywhere."""
    report = run_load(load_cell_spec("YCSB-B", CLIENTS, scaled(40), seed=42))
    show("1k-client YCSB-B cell:\n  " + _fmt(report))
    t = report.tenants[0]
    assert t.ops == CLIENTS * scaled(40)
    assert t.slo_fraction > 0.95
    assert t.goodput_ops_s > 0.9 * t.ops / t.window_ns * 1e9


def test_multitenant_burst_goodput(show):
    """Per-tenant SLO accounting: the bursting bulk tenant degrades its
    own goodput fraction more than the steady gold tenant's."""
    from repro.loadgen.arrivals import ArrivalCurve
    from repro.loadgen.engine import LoadSpec
    from repro.loadgen.tenants import TenantSpec
    from repro.workloads.ycsb import ycsb_a, ycsb_b

    class Burst8(ArrivalCurve):
        burst_factor = 8.0

    gold = TenantSpec(
        name="gold", workload=ycsb_b(key_count=1024, value_len=128),
        clients=100, ops_per_client=scaled(40),
        rate_ops_s=100 * 2_000.0, slo_ns=15_000.0,
    )
    bulk = TenantSpec(
        name="bulk", workload=ycsb_a(key_count=1024, value_len=128),
        clients=400, ops_per_client=scaled(40),
        rate_ops_s=400 * 2_000.0, slo_ns=15_000.0,
        curve=Burst8(kind="burst"),
    )
    report = run_load(
        LoadSpec(
            tenants=(gold, bulk), seed=42,
            completion_batching=True, batch_bucket_ns=256.0,
            admission_watermark=64,
        )
    )
    show(
        "multi-tenant burst cell:\n  "
        + "\n  ".join(_fmt(replace(report, tenants=[t])) for t in report.tenants)
    )
    g, b = report.tenants
    assert g.slo_fraction > b.slo_fraction
    assert g.ops + b.ops == 500 * scaled(40)
