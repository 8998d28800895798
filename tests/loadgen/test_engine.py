"""Open-loop load engine: determinism, SLO accounting, admission
control end-to-end, completion batching, chaos hooks."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan, FaultRule
from repro.loadgen.arrivals import ArrivalCurve
from repro.loadgen.engine import LoadSpec, run_load
from repro.loadgen.tenants import TenantSpec
from repro.stores import STORES
from repro.workloads.ycsb import ycsb_a, ycsb_b, ycsb_f


def small_spec(**kw):
    tenants = kw.pop(
        "tenants",
        (
            TenantSpec(
                name="t0",
                workload=ycsb_b(key_count=128, value_len=64),
                clients=4,
                ops_per_client=25,
                rate_ops_s=4 * 100_000.0,
                slo_ns=25_000.0,
            ),
        ),
    )
    kw.setdefault("settle_ns", 2_000_000.0)
    return LoadSpec(tenants=tenants, **kw)


class TestEngine:
    def test_deterministic_repeat(self):
        spec = small_spec(admission_watermark=4, churn_rotate_every=40)
        assert run_load(spec).as_dict() == run_load(spec).as_dict()

    def test_all_scheduled_ops_complete(self):
        report = run_load(small_spec())
        t = report.tenants[0]
        assert t.ops + t.errors == 4 * 25
        assert report.total_errors == 0

    def test_slo_accounting(self):
        report = run_load(small_spec())
        t = report.tenants[0]
        assert 0.0 <= t.slo_fraction <= 1.0
        # goodput can never exceed delivered throughput
        assert t.goodput_ops_s <= t.ops / t.window_ns * 1e9 + 1e-6
        assert t.p50_ns <= t.p99_ns <= t.p999_ns <= t.max_ns

    def test_multi_tenant_isolation_reports(self):
        gold = TenantSpec(
            name="gold", workload=ycsb_b(key_count=64, value_len=64),
            clients=2, ops_per_client=20, rate_ops_s=200_000.0,
            slo_ns=20_000.0,
        )
        bulk = TenantSpec(
            name="bulk", workload=ycsb_a(key_count=64, value_len=64),
            clients=3, ops_per_client=20, rate_ops_s=300_000.0,
            slo_ns=80_000.0, curve=ArrivalCurve(kind="burst"),
        )
        report = run_load(small_spec(tenants=(gold, bulk)))
        assert [t.name for t in report.tenants] == ["gold", "bulk"]
        assert report.tenants[0].ops == 40
        assert report.tenants[1].ops == 60
        assert report.clients == 5

    def test_rmw_mix_runs(self):
        spec = small_spec(
            tenants=(
                TenantSpec(
                    name="f", workload=ycsb_f(key_count=64, value_len=64),
                    clients=2, ops_per_client=20, rate_ops_s=100_000.0,
                    slo_ns=50_000.0,
                ),
            )
        )
        report = run_load(spec)
        assert report.total_errors == 0
        assert report.tenants[0].ops == 40

    def test_open_loop_latency_includes_queueing(self):
        """Overdriving the store must surface as queueing delay in the
        measured (arrival-anchored) latencies — no coordinated omission."""
        fast = run_load(small_spec()).tenants[0]
        slow = run_load(
            small_spec(
                tenants=(
                    TenantSpec(
                        name="t0",
                        workload=ycsb_b(key_count=128, value_len=64),
                        clients=4,
                        ops_per_client=25,
                        rate_ops_s=4 * 50_000_000.0,  # far over capacity
                        slo_ns=25_000.0,
                    ),
                )
            )
        ).tenants[0]
        assert slow.p99_ns > 2 * fast.p99_ns

    def test_validation(self):
        with pytest.raises(ConfigError):
            LoadSpec(tenants=())
        t = TenantSpec(name="x", workload=ycsb_b(key_count=16, value_len=64))
        with pytest.raises(ConfigError):
            LoadSpec(tenants=(t, t))  # duplicate names
        with pytest.raises(ConfigError):
            LoadSpec(tenants=(t,), admission_watermark=-1)
        with pytest.raises(ConfigError):
            TenantSpec(name="", workload=ycsb_b())
        with pytest.raises(ConfigError):
            TenantSpec(name="x", workload=ycsb_b(), rate_ops_s=0.0)


class TestCompletionBatching:
    def test_batching_reduces_events_and_preserves_results(self):
        base = small_spec()
        on = run_load(base)
        off = run_load(
            LoadSpec(
                tenants=base.tenants, completion_batching=False,
                settle_ns=base.settle_ns,
            )
        )
        assert on.sim["batched_waits"] > 0
        assert on.sim["events_processed"] < off.sim["events_processed"]
        # same ops complete either way
        assert on.tenants[0].ops == off.tenants[0].ops
        assert on.total_errors == off.total_errors == 0

    def test_batching_off_reports_no_counters(self):
        off = run_load(small_spec(completion_batching=False))
        assert "batches" not in off.sim


class TestAdmissionControl:
    def test_shed_and_retry_closes_the_loop(self):
        """A watermark of 1 under a client fan-in must shed requests
        (ERR_BUSY), and the attached retry policy must re-offer them so
        every scheduled op still completes."""
        spec = small_spec(
            tenants=(
                TenantSpec(
                    name="t0",
                    workload=ycsb_a(key_count=64, value_len=64),
                    clients=8,
                    ops_per_client=25,
                    rate_ops_s=8 * 2_000_000.0,  # deliberately bursty
                    slo_ns=100_000.0,
                ),
            ),
            admission_watermark=1,
        )
        report = run_load(spec)
        assert report.admission is not None
        assert report.admission["watermark"] == 1
        assert report.admission["shed"] > 0
        assert report.resilience["enabled"]
        assert report.resilience["retries"] >= report.admission["shed"]
        # the congestion loop converges: nothing is lost
        assert report.tenants[0].ops + report.tenants[0].errors == 200
        assert report.tenants[0].errors == 0
        # everyone admitted eventually departs
        assert report.admission["inflight"] == 0

    def test_admission_off_reports_nothing(self):
        report = run_load(small_spec())
        assert report.admission is None
        assert not report.resilience["enabled"]


@pytest.mark.parametrize("watermark", [0, 2])
@pytest.mark.parametrize("store", list(STORES))
def test_every_store_runs_under_load(store, watermark):
    """Every store serves an open-loop run, and reports admission from
    its partitions when the watermark is armed."""
    spec = small_spec(
        tenants=(
            TenantSpec(
                name="t0",
                workload=ycsb_a(key_count=32, value_len=64),
                clients=8,
                ops_per_client=6,
                rate_ops_s=8 * 400_000.0,
                slo_ns=100_000.0,
            ),
        ),
        store=store,
        admission_watermark=watermark,
        settle_ns=200_000.0,
    )
    report = run_load(spec)
    assert report.tenants[0].ops + report.tenants[0].errors == 48
    if watermark == 0:
        assert report.admission is None
        return
    assert report.admission["watermark"] == 2
    assert report.admission["admitted"] > 0
    assert report.admission["inflight"] == 0


class TestChaosSites:
    def test_client_stall_defers_arrivals(self):
        plan = FaultPlan(
            "stall-everything",
            (
                FaultRule(
                    "client_stall", site="loadgen.arrival",
                    delay_ns=50_000.0, probability=1.0,
                ),
            ),
        )
        clean = run_load(small_spec())
        stalled = run_load(small_spec(fault_plan=plan))
        # every arrival pushed back 50us: the run takes visibly longer
        assert stalled.window_ns > clean.window_ns
        assert stalled.tenants[0].ops == clean.tenants[0].ops

    def test_admission_shed_chaos_forces_busy(self):
        plan = FaultPlan(
            "force-shed",
            (
                FaultRule(
                    "admission_shed", site="admission.enter",
                    probability=0.5, max_fires=20,
                ),
            ),
        )
        spec = small_spec(
            tenants=(
                TenantSpec(
                    name="t0",
                    workload=ycsb_a(key_count=64, value_len=64),
                    clients=4,
                    ops_per_client=25,
                    rate_ops_s=4 * 100_000.0,
                    slo_ns=100_000.0,
                ),
            ),
            admission_watermark=64,  # never organically over
            fault_plan=plan,
        )
        report = run_load(spec)
        assert report.admission["shed"] > 0
        assert report.resilience["retries"] > 0
        assert report.tenants[0].errors == 0  # retries absorb the sheds
