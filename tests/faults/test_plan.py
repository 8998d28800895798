"""FaultRule/FaultPlan validation, trigger semantics, shipped plans."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultRule, site_matches
from repro.faults.plans import SHIPPED_PLANS, shipped_plan, shipped_plan_names


class TestSiteMatches:
    def test_exact(self):
        assert site_matches("qp.write", "qp.write")
        assert not site_matches("qp.write", "qp.read")

    def test_wildcard(self):
        assert site_matches("*", "nvm.persist")

    def test_prefix(self):
        assert site_matches("qp.*", "qp.cas")
        assert not site_matches("qp.*", "rpc.dispatch")

    def test_prefix_requires_dot(self):
        # "bg.*" must not match a hypothetical "bgx.y" site
        assert not site_matches("bg.*", "bgx.y")


class TestFaultRule:
    def test_site_defaults_from_kind(self):
        rule = FaultRule("rpc_stall", delay_ns=10.0)
        assert rule.site == "rpc.dispatch"
        assert rule.name == "rpc_stall@rpc.dispatch"

    def test_site_narrowing_allowed(self):
        rule = FaultRule("qp_error", site="qp.read")
        assert rule.site == "qp.read"

    def test_pause_attaches_to_recovery_step(self):
        """Recovery honours a ``pause`` between index-repair steps, so a
        rule may name that site; the kind's default site stays ``bg.*``."""
        assert FaultRule("pause", site="recovery.step").site == "recovery.step"
        assert FaultRule("pause").site == "bg.*"
        with pytest.raises(ConfigError):
            FaultRule("pause", site="qp.read")

    def test_kind_site_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            FaultRule("nvm_spike", site="qp.write")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultRule("power_surge")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"delay_ns": -1.0},
            {"factor": 0.0},
            {"after_op": -1},
            {"after_op": 5, "before_op": 5},
            {"t_start": 10.0, "t_end": 10.0},
            {"max_fires": 0},
        ],
    )
    def test_invalid_triggers_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FaultRule("qp_error", **kwargs)

    def test_eligible_op_window(self):
        rule = FaultRule("qp_error", site="qp.write", after_op=2, before_op=4)
        hits = [rule.eligible("qp.write", i, 0.0) for i in range(6)]
        assert hits == [False, False, True, True, False, False]

    def test_eligible_time_window(self):
        rule = FaultRule("qp_error", t_start=100.0, t_end=200.0)
        assert not rule.eligible("qp.write", 0, 99.9)
        assert rule.eligible("qp.write", 0, 100.0)
        assert not rule.eligible("qp.write", 0, 200.0)

    def test_eligible_site_filter(self):
        rule = FaultRule("qp_error", site="qp.read")
        assert rule.eligible("qp.read", 0, 0.0)
        assert not rule.eligible("qp.write", 0, 0.0)


class TestFaultPlan:
    def test_needs_name(self):
        with pytest.raises(ConfigError):
            FaultPlan("")

    def test_empty_len_iter(self):
        plan = FaultPlan("nothing")
        assert plan.empty
        assert len(plan) == 0
        assert list(plan) == []

    def test_rules_coerced_to_tuple(self):
        plan = FaultPlan("p", rules=[FaultRule("qp_error")])
        assert isinstance(plan.rules, tuple)
        assert len(plan) == 1


class TestShippedPlans:
    def test_registry_names_match(self):
        assert set(shipped_plan_names()) == set(SHIPPED_PLANS)

    @pytest.mark.parametrize("name", sorted(SHIPPED_PLANS))
    def test_every_plan_builds_nonempty(self, name):
        plan = shipped_plan(name)
        assert plan.name == name
        assert not plan.empty
        for rule in plan:
            assert rule.kind in FAULT_KINDS

    def test_overrides_forwarded(self):
        plan = shipped_plan("qp-flap", probability=0.5)
        assert all(rule.probability == 0.5 for rule in plan)

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigError):
            shipped_plan("does-not-exist")
