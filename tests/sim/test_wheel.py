"""Scheduler behaviour: dispatch order against the seed-heap oracle
(:mod:`tests.sim.heapkernel`) for same-instant groups, near and far-future
times and a schedule-at-now after an idle ``run(until=...)``;
timeout-freelist recycling, absolute-time scheduling, and counters.

The file and a few case names still say "wheel": the cases were written
against the timer wheel the kernel once had, every one of them is a
behaviour any scheduler owes, and their ids are pinned by the tier-1
floor list.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import (
    Environment,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)
from repro.sim.resources import Store
from tests.sim.heapkernel import HeapEnvironment

#: ~131 us, the retired wheel's window: times below it are the verb- and
#: persist-scale delays, multiples of it the far-future timers.
WINDOW = 1024 * 128.0


def _dispatch_order(env_cls, schedule):
    """Schedule ``(delay, priority, tag)`` entries, return dispatch order."""
    env = env_cls()
    order = []
    for delay, priority, tag in schedule:
        ev = env.event()
        ev.callbacks.append(lambda _e, t=tag: order.append(t))
        env.schedule(ev, delay=delay, priority=priority)
    env.run()
    return order


class TestBoundaryOrdering:
    def test_wheel_and_heap_agree_across_horizon(self):
        """Same-timestamp groups around ``WINDOW`` keep the exact
        (time, priority, sequence) order the oracle produces."""
        sched = []
        stamps = (0.0, 100.0, WINDOW - 1.0, WINDOW, WINDOW + 1.0, WINDOW * 3)
        for i, base in enumerate(stamps):
            sched.append((base, PRIORITY_NORMAL, f"n{i}"))
            sched.append((base, PRIORITY_URGENT, f"u{i}"))
            sched.append((base, PRIORITY_NORMAL, f"n{i}b"))
            sched.append((base, PRIORITY_LOW, f"l{i}"))
        order = _dispatch_order(Environment, sched)
        assert order == _dispatch_order(HeapEnvironment, sched)
        assert order[:4] == ["u0", "n0", "n0b", "l0"]

    def test_overflow_migration_preserves_order(self):
        """Two hundred scattered times, most of them far beyond
        ``WINDOW``, dispatch in exactly the order the oracle produces."""
        sched = [
            (float((k * 37) % 5000) * 100.0, PRIORITY_NORMAL, k)
            for k in range(200)
        ]
        assert _dispatch_order(Environment, sched) == _dispatch_order(
            HeapEnvironment, sched
        )

    def test_schedule_behind_cursor_after_idle_run(self):
        """A schedule at ``now`` right after run(until=...) advanced the
        clock past the last event must still dispatch (and first)."""
        env = Environment()
        env.timeout(WINDOW * 2.4)
        env.run(until=WINDOW * 2.5)
        order = []
        ev = env.event()
        ev.callbacks.append(lambda _e: order.append("now"))
        env.schedule(ev, delay=0.0)
        later = env.timeout(1.0)
        later.callbacks.append(lambda _e: order.append("later"))
        env.run()
        assert order == ["now", "later"]


class TestTimeoutFreelist:
    def test_plain_timeout_recycled(self):
        env = Environment()

        def proc():
            t1 = env.timeout(5.0)
            yield t1
            # t1 is recycled only after our resume returns to dispatch
            # (the resumed frame may still inspect it), so reuse shows
            # up one allocation later.
            t2 = env.timeout(7.0)
            assert t2 is not t1
            yield t2
            t3 = env.timeout(3.0)
            assert t3 is t1  # recycled through the freelist
            assert t3.delay == 3.0
            yield t3

        env.run(env.process(proc()))

    def test_subscribed_timeout_not_recycled(self):
        env = Environment()
        seen = []

        def proc():
            t1 = env.timeout(5.0)
            t1.callbacks.append(seen.append)
            yield t1
            t2 = env.timeout(5.0)
            assert t2 is not t1
            yield t2

        env.run(env.process(proc()))
        assert len(seen) == 1

    def test_directly_constructed_timeout_never_pooled(self):
        env = Environment()

        def proc():
            t1 = Timeout(env, 5.0)
            assert not t1._pooled
            yield t1
            assert t1 not in env._free_timeouts

        env.run(env.process(proc()))


class TestAbsoluteScheduling:
    def test_timeout_at_fires_at_absolute_time(self):
        env = Environment()

        def proc():
            yield env.timeout(3.0)
            yield env.timeout_at(10.5)
            assert env.now == 10.5

        env.run(env.process(proc()))

    def test_timeout_at_exact_float(self):
        """timeout_at(when) wakes at exactly ``when`` — no now + delta
        float round-trip (the property the analytic fast path needs)."""
        env = Environment()
        target = 0.1 + 0.2  # not exactly representable as 0.3

        def proc():
            yield env.timeout(1e-3)
            yield env.timeout_at(target)
            assert env.now == target

        env.run(env.process(proc()))

    def test_timeout_at_past_raises(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)
            env.timeout_at(1.0)

        with pytest.raises(SimulationError):
            env.run(env.process(proc()))


class TestCounters:
    def test_events_counters_track(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.timeout(1.0)

        env.run(env.process(proc()))
        # 10 timeouts + the Initialize event + the process-completion event.
        assert env.events_scheduled == 12
        assert env.events_processed == 12


class TestStorePutNowait:
    def test_put_nowait_roundtrip(self):
        env = Environment()
        store = Store(env)

        def proc():
            assert store.put_nowait("a") is True
            got = yield store.get()
            return got

        assert env.run(env.process(proc())) == "a"

    def test_put_nowait_full_store(self):
        env = Environment()
        store = Store(env, capacity=1)
        assert store.put_nowait(1) is True
        assert store.put_nowait(2) is False
        assert list(store.items) == [1]

    def test_put_nowait_hands_to_waiting_getter(self):
        env = Environment()
        store = Store(env)

        def consumer():
            got = yield store.get()
            return got

        # consumer registers its getter, then the producer hands over
        p = env.process(consumer())

        def producer():
            yield env.timeout(1.0)
            assert store.put_nowait("x") is True

        env.process(producer())
        assert env.run(p) == "x"
        assert len(store) == 0
