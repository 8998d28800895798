"""Kernel semantics: events, processes, time, ordering, interrupts."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    PRIORITY_URGENT,
    Timeout,
)


class TestEvent:
    def test_untriggered_state(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_delivers_value(self, env):
        ev = env.event()
        ev.succeed(41)
        assert ev.triggered and ev.ok and ev.value == 41
        env.run()
        assert ev.processed

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_escalates(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defused()
        env.run()  # no raise


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(125.0)
        env.run()
        assert env.now == 125.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_carries_value(self, env):
        def proc():
            got = yield env.timeout(5, value="hello")
            return got

        assert env.run(env.process(proc())) == "hello"


def _sleep(env, delay):
    yield env.timeout(delay)


class TestBadTimes:
    """A NaN or infinite time at the top of the heap would hide every
    event behind it (``nan <= stop_at`` is false), so every way onto the
    queue rejects them with the comparison that rejects the past."""

    ENTRY_POINTS = {
        "schedule": lambda env, x: env.schedule(env.event(), delay=x),
        "schedule_at": lambda env, x: env.schedule_at(env.event(), x),
        "timeout": lambda env, x: env.timeout(x),
        "timeout_at": lambda env, x: env.timeout_at(x),
        "Timeout": lambda env, x: Timeout(env, x),  # timeout() with no freelist
    }

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1.0"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejected_and_queue_untouched(self, env, entry, bad):
        env.run(env.process(_sleep(env, 10.0)))  # now = 10, one recycled timeout
        assert env._free_timeouts
        fired = []
        env.timeout(5.0).callbacks.append(fired.append)
        scheduled = env.events_scheduled
        with pytest.raises(SimulationError):
            self.ENTRY_POINTS[entry](env, float(bad))
        assert env.events_scheduled == scheduled
        assert env.peek() == 15.0
        env.run()
        assert len(fired) == 1 and env.now == 15.0


class TestProcess:
    def test_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return 99

        assert env.run(env.process(proc())) == 99

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(10)
            yield env.timeout(5)
            return env.now

        assert env.run(env.process(proc())) == 15.0

    def test_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_non_event_rejected(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("inner")

        def waiter():
            try:
                yield env.process(failing())
            except RuntimeError as exc:
                return f"caught {exc}"

        assert env.run(env.process(waiter())) == "caught inner"

    def test_unwaited_failure_escalates(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("lonely")

        env.process(failing())
        with pytest.raises(RuntimeError, match="lonely"):
            env.run()

    def test_wait_on_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert ev.processed

        def proc():
            got = yield ev
            return got

        assert env.run(env.process(proc())) == "early"

    def test_processes_communicate_via_events(self, env):
        box = env.event()

        def producer():
            yield env.timeout(7)
            box.succeed("payload")

        def consumer():
            got = yield box
            return (env.now, got)

        env.process(producer())
        assert env.run(env.process(consumer())) == (7.0, "payload")

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(10)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            p.interrupt("wake up")

        env.process(interrupter())
        assert env.run(p) == ("interrupted", "wake up", 10.0)

    def test_interrupted_process_can_continue(self, env):
        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt:
                pass
            yield env.timeout(5)
            return env.now

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            p.interrupt()

        env.process(interrupter())
        assert env.run(p) == 15.0

    def test_uncaught_interrupt_fails_process_quietly(self, env):
        def sleeper():
            yield env.timeout(1000)

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(1)
            p.interrupt("die")

        env.process(interrupter())
        env.run()  # must not escalate
        assert p.triggered and not p.ok

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupt_does_not_consume_target_event(self, env):
        """The event the process waited on still fires for others."""
        shared = env.timeout(50, value="tick")

        def victim():
            try:
                yield shared
            except Interrupt:
                return "out"

        def other():
            got = yield shared
            return got

        v = env.process(victim())

        def interrupter():
            yield env.timeout(1)
            v.interrupt()

        env.process(interrupter())
        o = env.process(other())
        assert env.run(o) == "tick"


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            result = yield AllOf(env, [env.timeout(5, "a"), env.timeout(9, "b")])
            return (env.now, result.values())

        now, values = env.run(env.process(proc()))
        assert now == 9.0
        assert values == ["a", "b"]

    def test_any_of_returns_first(self, env):
        def proc():
            result = yield AnyOf(env, [env.timeout(5, "fast"), env.timeout(9, "slow")])
            return (env.now, result.values())

        now, values = env.run(env.process(proc()))
        assert now == 5.0
        assert values == ["fast"]

    def test_operator_sugar(self, env):
        def proc():
            yield env.timeout(3) & env.timeout(4)
            t_and = env.now
            yield env.timeout(10) | env.timeout(2)
            return (t_and, env.now)

        assert env.run(env.process(proc())) == (4.0, 6.0)

    def test_all_of_fails_fast(self, env):
        bad = env.event()

        def proc():
            try:
                yield AllOf(env, [env.timeout(100), bad])
            except ValueError:
                return env.now

        def failer():
            yield env.timeout(2)
            bad.fail(ValueError("nope"))

        env.process(failer())
        assert env.run(env.process(proc())) == 2.0

    def test_empty_all_of_succeeds_immediately(self, env):
        def proc():
            result = yield AllOf(env, [])
            return len(result)

        assert env.run(env.process(proc())) == 0


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.timeout(100)
        env.run(until=50)
        assert env.now == 50.0

    def test_run_until_past_rejected(self, env):
        env.timeout(10)
        env.run(until=20)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_drains_queue(self, env):
        env.timeout(10)
        env.timeout(30)
        env.run()
        assert env.now == 30.0
        assert env.peek() == float("inf")

    def test_run_until_never_triggering_event(self, env):
        ev = env.event()
        env.timeout(5)
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=ev)

    def test_step_empty_queue_rejected(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestDeterminism:
    def test_same_time_events_process_in_schedule_order(self, env):
        order = []
        for tag in "abc":
            env.timeout(5).callbacks.append(lambda _e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_priority_wins(self, env):
        order = []
        t = env.timeout(5)
        t.callbacks.append(lambda _e: order.append("normal"))
        ev = Event(env)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(lambda _e: order.append("urgent"))

        def scheduler():
            yield env.timeout(5 - 5)  # schedule at t=0
            env.schedule(ev, delay=5, priority=PRIORITY_URGENT)

        env.process(scheduler())
        env.run()
        assert order == ["urgent", "normal"]

    def test_full_simulation_repeatable(self):
        def world(env):
            results = []

            def worker(i):
                yield env.timeout(i * 3.7)
                results.append((env.now, i))
                yield env.timeout(1.1)
                results.append((env.now, -i))

            for i in range(10):
                env.process(worker(i))
            env.run()
            return results

        assert world(Environment()) == world(Environment())


class TestSpawn:
    def test_first_step_runs_inside_the_caller(self, env):
        seen = []

        def child():
            seen.append(("child", env.active_process, env.now))
            yield env.timeout(5)
            seen.append(("child-resumed", env.active_process, env.now))

        def parent():
            yield env.timeout(1)
            scheduled = env.events_scheduled
            proc = env.spawn(child(), name="kid")
            # Only the child's own timeout was scheduled: no Initialize.
            assert env.events_scheduled == scheduled + 1
            seen.append(("parent", env.active_process, env.now))
            return proc

        parent_proc = env.process(parent())
        env.run()
        kid = parent_proc.value
        assert kid.name == "kid"
        assert seen == [
            ("child", kid, 1.0),
            ("parent", parent_proc, 1.0),
            ("child-resumed", kid, 6.0),
        ]

    def test_unobserved_end_is_not_scheduled(self, env):
        def child():
            yield env.timeout(3)
            return "done"

        def parent():
            proc = env.spawn(child())
            yield env.timeout(10)
            return proc

        p = env.process(parent())
        env.run()
        kid = p.value
        assert not kid.is_alive and kid.processed and kid.value == "done"
        # Initialize(parent), the two timeouts and the parent's end.
        assert env.events_scheduled == env.events_processed == 4

    def test_awaited_end_is_still_delivered(self, env):
        def child():
            yield env.timeout(3)
            return 42

        def parent():
            value = yield env.spawn(child())
            return (env.now, value)

        assert env.run(env.process(parent())) == (3.0, 42)

    def test_failure_still_escalates(self, env):
        def child():
            yield env.timeout(2)
            raise ValueError("spawned boom")

        def parent():
            env.spawn(child())
            yield env.timeout(10)

        env.process(parent())
        with pytest.raises(ValueError, match="spawned boom"):
            env.run()

    def test_process_end_is_still_scheduled(self, env):
        def child():
            yield env.timeout(3)

        env.process(child())
        env.run()
        # Initialize, the timeout and the end event: env.process keeps
        # the oracle's counts.
        assert env.events_scheduled == env.events_processed == 3


class TestTraceHookWithSoleWaiterPath:
    @staticmethod
    def _world(env):
        """Sole waiters (timeouts, a process end) and callback events
        (conditions); a hook installed mid-run records what it sees."""
        seen = []

        def hook(now, event):
            seen.append((now, type(event).__name__))

        def worker(i):
            for d in (i + 0.5, 2.0, 0.0):
                yield env.timeout(d)
            return i

        def installer():
            yield env.timeout(2.0)
            env.trace_hook = hook
            yield env.all_of([env.timeout(1.0), env.timeout(2.5)])

        procs = [env.process(worker(i)) for i in range(4)]
        env.process(installer())
        env.run(until=1.9)
        processed_before = env.events_processed
        env.run(env.all_of(procs))
        env.run()
        return seen, env.events_processed - processed_before, env.now

    def test_hook_sees_every_event_in_oracle_order(self):
        from tests.sim.heapkernel import HeapEnvironment

        seen, processed, end = self._world(Environment())
        oracle_seen, oracle_processed, oracle_end = self._world(HeapEnvironment())
        # The installer's own wake-up at t=2 is processed before the hook
        # exists; every later event reaches it.
        assert len(seen) == processed - 1
        assert seen == oracle_seen
        assert (processed, end) == (oracle_processed, oracle_end)
        times = [t for t, _ in seen]
        assert times == sorted(times)

    def test_path_is_live_until_the_hook_is_set(self, monkeypatch):
        # Before the hook exists, some events resume their waiter without
        # a _dispatch call; once it is set, every event goes through it.
        dispatched = []
        dispatch = Environment._dispatch

        def counting(env, event):
            dispatched.append(env.trace_hook is not None)
            dispatch(env, event)

        monkeypatch.setattr(Environment, "_dispatch", counting)
        env = Environment()
        seen, _, _ = self._world(env)
        assert dispatched.count(True) == len(seen)
        assert dispatched.count(False) < env.events_processed - len(seen)
