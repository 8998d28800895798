"""RetryPolicy validation, backoff math, and the degradation state machine."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.policy import ClientResilience, RetryPolicy


def make_res(**constants):
    """A resilience state machine under a policy whose class constants
    are ``constants`` (they are no fields: a subclass overrides them)."""
    policy = type("TestPolicy", (RetryPolicy,), constants)()
    return ClientResilience(policy, np.random.default_rng(0))


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_ns": -1.0},
            {"max_retries": -1},
            {"backoff_base_ns": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"reconnect_ns": -1.0},
            {"degrade_threshold": 0},
            {"degrade_window_ns": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        """A bad deadline is a ``ConfigError``; every other knob is a
        class constant, so passing one at all is a ``TypeError``."""
        error = ConfigError if "timeout_ns" in kwargs else TypeError
        with pytest.raises(error):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_growth_and_cap(self):
        res = make_res(
            backoff_base_ns=100.0,
            backoff_factor=2.0,
            backoff_max_ns=350.0,
            jitter=0.0,
        )
        assert res.backoff_ns(1) == 100.0
        assert res.backoff_ns(2) == 200.0
        assert res.backoff_ns(3) == 350.0  # capped, not 400
        assert res.backoff_ns(4) == 350.0

    def test_jitter_bounds_and_determinism(self):
        res = make_res(backoff_base_ns=1000.0, jitter=0.2)
        values = [res.backoff_ns(1) for _ in range(50)]
        assert all(800.0 <= v <= 1200.0 for v in values)
        res2 = make_res(backoff_base_ns=1000.0, jitter=0.2)
        assert values == [res2.backoff_ns(1) for _ in range(50)]


class TestDegradation:
    def test_below_threshold_no_demotion(self):
        res = make_res(degrade_threshold=3)
        res.note_pure_fault(0, now=0.0)
        res.note_pure_fault(0, now=1.0)
        assert not res.partition_degraded(0, now=2.0)
        assert res.demotions == 0

    def test_success_resets_consecutive_count(self):
        res = make_res(degrade_threshold=2)
        res.note_pure_fault(0, now=0.0)
        res.note_pure_ok(0)
        res.note_pure_fault(0, now=1.0)
        assert not res.partition_degraded(0, now=2.0)

    def test_demote_then_window_then_probe_promote(self):
        res = make_res(degrade_threshold=2, degrade_window_ns=100.0)
        res.note_pure_fault(0, now=0.0)
        res.note_pure_fault(0, now=1.0)  # hits threshold: demoted
        assert res.demotions == 1
        assert res.partition_degraded(0, now=50.0)
        assert res.degraded_partitions(50.0) == [0]
        # window expired: probing, pure reads allowed again
        assert not res.partition_degraded(0, now=101.0 + 1.0)
        res.note_pure_ok(0)  # probe succeeded
        assert res.promotions == 1
        assert not res.partition_degraded(0, now=200.0)

    def test_probe_failure_redemotes_immediately(self):
        res = make_res(degrade_threshold=3, degrade_window_ns=100.0)
        for t in range(3):
            res.note_pure_fault(0, now=float(t))
        assert res.demotions == 1
        assert not res.partition_degraded(0, now=200.0)  # flips to probing
        res.note_pure_fault(0, now=200.0)  # single fault while probing
        assert res.demotions == 2
        assert res.partition_degraded(0, now=250.0)

    def test_partitions_tracked_independently(self):
        res = make_res(degrade_threshold=1, degrade_window_ns=100.0)
        res.note_pure_fault(1, now=0.0)
        assert res.partition_degraded(1, now=10.0)
        assert not res.partition_degraded(0, now=10.0)
        assert res.degraded_partitions(10.0) == [1]


class TestCounters:
    def test_snapshot_surface(self):
        res = make_res()
        res.note_retry("get", 1, "QPError")
        res.note_timeout()
        res.note_reconnect()
        res.note_gave_up("put")
        snap = res.snapshot()
        assert snap == {
            "retries": 1,
            "timeouts": 1,
            "reconnects": 1,
            "gave_up": 1,
            "demotions": 0,
            "promotions": 0,
        }
