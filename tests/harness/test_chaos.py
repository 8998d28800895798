"""Chaos harness: reproducibility, timing identity, and the shipped gauntlet."""

import pytest

import numpy as np

from repro.errors import ConfigError
from repro.faults.injector import arm_store
from repro.faults.plan import FaultPlan
from repro.faults.plans import shipped_plan_names
from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.runner import RunSpec, run_experiment
from repro.sim.rng import RngRegistry
from repro.workloads.ycsb import WorkloadSpec

#: Small but fault-exposed: boosted probabilities so short CI runs
#: actually exercise the retry/reconnect machinery.
SMALL = dict(n_clients=2, ops_per_client=30, key_count=12, seed=7)
#: ``repro chaos --clients 2 --ops 60``, the CLI's default shape.
CLI_SHAPE = dict(n_clients=2, ops_per_client=60, key_count=24, value_len=128)


class TestReproducibility:
    def test_same_spec_same_report(self):
        spec = ChaosSpec(
            store="efactory", plan="qp-flap", plan_overrides={"probability": 0.05}, **SMALL
        )
        a = run_chaos_experiment(spec)
        b = run_chaos_experiment(spec)
        assert a.fault_schedule == b.fault_schedule
        assert a.as_dict() == b.as_dict()

    def test_seed_changes_schedule(self):
        base = dict(SMALL, plan_overrides={"probability": 0.05})
        a = run_chaos_experiment(ChaosSpec(store="efactory", plan="qp-flap", **base))
        base["seed"] = 8
        b = run_chaos_experiment(ChaosSpec(store="efactory", plan="qp-flap", **base))
        assert a.fault_schedule != b.fault_schedule


class TestArmedEmptyPlanTimingIdentity:
    def test_empty_plan_changes_no_timings(self):
        """Arming an empty plan must leave every simulated timing
        untouched: the hooks' zero-cost-when-armed-but-idle guarantee."""
        spec = RunSpec(
            store="efactory",
            workload=WorkloadSpec("mixed", read_fraction=0.5, key_count=64),
            n_clients=2,
            ops_per_client=40,
            warmup_ops=5,
            seed=5,
        )
        baseline = run_experiment(spec)
        armed = run_experiment(
            spec,
            post_setup=lambda env, setup: arm_store(
                setup, FaultPlan("noop"), rngs=RngRegistry(1)
            ),
        )
        assert armed.window_ns == baseline.window_ns
        assert np.array_equal(armed.latency.array(), baseline.latency.array())


@pytest.mark.parametrize("plan", shipped_plan_names())
def test_efactory_survives_every_shipped_plan(plan):
    """The headline guarantee: zero advertised-guarantee violations for
    eFactory under every shipped chaos plan."""
    report = run_chaos_experiment(ChaosSpec(store="efactory", plan=plan, **SMALL))
    assert report.ok, report.violations
    assert report.weaknesses == []  # efactory advertises consistent GETs
    assert report.audited_keys == SMALL["key_count"]


def test_rpc_baseline_survives_stalls():
    report = run_chaos_experiment(ChaosSpec(store="rpc", plan="rpc-stall", **SMALL))
    assert report.ok, report.violations


def test_heavy_qp_faults_recovered_via_reconnect():
    """Boosted fault rate: retries/reconnects must fire and the store
    must still come out clean."""
    report = run_chaos_experiment(
        ChaosSpec(
            store="efactory",
            plan="drop-completions",
            plan_overrides={"probability": 0.12},
            **SMALL,
        )
    )
    assert report.ok, report.violations
    assert report.resilience["reconnects"] > 0
    assert report.fault_counts.get("completion_drop", 0) > 0
    assert report.availability == 1.0  # every op eventually succeeded


def test_report_shape():
    report = run_chaos_experiment(ChaosSpec(store="efactory", plan="qp-flap", **SMALL))
    d = report.as_dict()
    for field in (
        "store",
        "plan",
        "seed",
        "availability",
        "faults_injected",
        "resilience",
        "violations",
        "weaknesses",
    ):
        assert field in d
    assert 0.0 <= report.availability <= 1.0


def test_trace_records_fault_events():
    report = run_chaos_experiment(
        ChaosSpec(
            store="efactory",
            plan="qp-flap",
            plan_overrides={"probability": 0.08},
            trace=True,
            **SMALL,
        )
    )
    if report.fault_schedule:  # deterministic given the spec
        assert any(k.startswith("fault.") for k in report.trace_counts)


@pytest.mark.parametrize("plan", ["bitrot", "torn-media"])
def test_media_plans_auto_engage_the_scrubber(plan):
    """Media-fault plans run eFactory with the online scrubber armed:
    the report carries its counters and no guarantee is violated (rot
    is repaired by rollback or surfaced as a loud miss, never served)."""
    report = run_chaos_experiment(ChaosSpec(store="efactory", plan=plan, **SMALL))
    assert report.ok, report.violations
    assert set(report.scrub) == {
        "scrubbed", "corrupt_found", "repaired", "unrepairable",
        "reconstructed", "parity_stale", "replica_fetched",
    }
    assert report.scrub["scrubbed"] > 0  # the scrubber really ran


def test_a_cluster_scrub_report_counts_every_node():
    """The report's scrub section and its repair accounting read the
    same scrubbers: every node's, not node 0's."""
    r = run_chaos_experiment(ChaosSpec(
        store="efactory", plan="bitrot-heavy", parity=True, nodes=3,
        replication=2, seed=7, n_clients=2, ops_per_client=20,
    ))
    assert r.repair["detected"] > 0
    assert r.scrub["corrupt_found"] == r.repair["detected"]


def test_rot_pointing_outside_the_pool_still_ends_in_a_report():
    """``python -m repro chaos --plan bitrot-heavy --seeds 13`` (the CLI's
    default shape): a flipped slot-word bit sends the head outside its
    pool; the scrubber treats that as rot instead of dying of the pool's
    bounds error, and the run is judged like any other."""
    report = run_chaos_experiment(
        ChaosSpec(store="efactory", plan="bitrot-heavy", seed=13, n_clients=2,
                  ops_per_client=60, key_count=24, value_len=128)
    )
    assert report.ok, report.violations
    assert report.scrub["corrupt_found"] > 0


@pytest.mark.parametrize(
    "store, seed", [("saw", 7), ("imm", 13), ("forca", 7), ("forca", 13)]
)
def test_a_reply_lost_on_an_errored_qp_is_retried(store, seed):
    """SAW's persist RPC, IMM's durability ack and Forca's ``get_loc``
    RPC run under the retry policy: a reply the server drops on an
    errored QP costs a timeout and a fresh attempt, not a client that
    waits forever."""
    report = run_chaos_experiment(
        ChaosSpec(store=store, plan="qp-flap", seed=seed, **CLI_SHAPE)
    )
    assert report.ok, report.violations
    assert report.resilience["timeouts"] > 0


@pytest.mark.parametrize("store", ["rpc", "saw", "imm"])
def test_media_faults_on_a_baseline_end_in_a_report(store):
    """A rotten index entry on a store without a scrubber fails the GET
    that reads through it (RPC: an error reply; SAW and IMM: a READ
    outside the pool's region) instead of ending the run. These stores
    promise nothing under rot, so the audit only records it."""
    report = run_chaos_experiment(
        ChaosSpec(store=store, plan="bitrot-heavy", seed=7, **CLI_SHAPE)
    )
    assert report.repair["media_faults"] > 0
    assert report.scrub == {}
    assert any("GET failed after faults cleared" in w for w in report.weaknesses)


class TestParityChaos:
    def test_parity_flag_arms_the_integrity_tier(self):
        """``--parity`` layers the self-healing tier onto a media plan:
        the report carries repair outcomes and the coverage ledger, rot
        is repaired by reconstruction before rollback is even tried, and
        no key is cleared."""
        report = run_chaos_experiment(
            ChaosSpec(store="efactory", plan="bitrot", parity=True, **SMALL)
        )
        assert report.ok, report.violations
        assert set(report.repair) == {
            "media_faults", "detected", "reconstructed", "replica_fetched",
            "rolled_back", "cleared", "parity_stale", "tree_rejects",
        }
        assert report.repair["media_faults"] > 0
        assert report.repair["detected"] >= 1
        assert report.repair["reconstructed"] >= 1  # parity repair fired
        assert report.repair["cleared"] == 0  # no key was lost
        assert report.integrity["covered"] > 0  # the ledger was active

    def test_parity_off_reports_no_integrity_counters(self):
        report = run_chaos_experiment(
            ChaosSpec(store="efactory", plan="bitrot", **SMALL)
        )
        assert report.ok, report.violations
        assert report.integrity == {}
        assert report.repair["reconstructed"] == 0


@pytest.mark.parametrize("shape", [{"nodes": 0}, {"replication": 0}])
def test_a_non_positive_cluster_shape_is_rejected(shape):
    """A shape below one node or one copy is an error, not a silent
    standalone run."""
    with pytest.raises(ConfigError, match=f"^{next(iter(shape))} must be >= 1"):
        run_chaos_experiment(ChaosSpec(store="efactory", plan="qp-flap", **shape))


def test_a_migration_needs_a_cluster():
    """A migration on the default one-node shape has nowhere to go: an
    error, not an ``ok`` report with an empty migration section."""
    with pytest.raises(ConfigError, match="^migration needs a cluster shape"):
        run_chaos_experiment(ChaosSpec(migration=(0, 1, 1000.0)))
