"""Property-based kernel checks: determinism, clock monotonicity,
conservation under randomly structured process trees, and dispatch order
against the seed-heap oracle."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import (
    Environment,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from tests.sim.heapkernel import HeapEnvironment


@st.composite
def _program(draw):
    """A random little program: list of (spawn_delay, [timeouts])."""
    n_procs = draw(st.integers(1, 6))
    return [
        (
            draw(st.floats(0, 100)),
            draw(st.lists(st.floats(0, 50), min_size=1, max_size=6)),
        )
        for _ in range(n_procs)
    ]


def _execute(program):
    env = Environment()
    log = []

    def worker(pid, delays):
        for i, d in enumerate(delays):
            yield env.timeout(d)
            log.append((env.now, pid, i))

    def spawner():
        for pid, (delay, delays) in enumerate(program):
            yield env.timeout(delay)
            env.process(worker(pid, delays))

    env.process(spawner())
    env.run()
    return log, env.now


@settings(max_examples=60, deadline=None)
@given(_program())
def test_deterministic_replay(program):
    assert _execute(program) == _execute(program)


@settings(max_examples=60, deadline=None)
@given(_program())
def test_clock_monotone_and_complete(program):
    log, end = _execute(program)
    times = [t for t, _, _ in log]
    assert times == sorted(times)
    # every scheduled step ran exactly once
    expected = sum(len(delays) for _, delays in program)
    assert len(log) == expected
    # the final time equals the slowest chain (spawner delays accumulate)
    slowest = 0.0
    spawn_at = 0.0
    for delay, delays in program:
        spawn_at += delay
        slowest = max(slowest, spawn_at + sum(delays))
    assert end == max(times)
    assert abs(max(times) - slowest) < 1e-9 * max(1.0, slowest)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.1, 20), min_size=1, max_size=8),
    st.integers(1, 3),
)
def test_resource_conservation(durations, capacity):
    """Never more than `capacity` concurrent holders, no lost grants."""
    from repro.sim.resources import Resource

    env = Environment()
    res = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]
    served = [0]

    def user(d):
        req = yield from res.acquire()
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield env.timeout(d)
        active[0] -= 1
        served[0] += 1
        res.release(req)

    for d in durations:
        env.process(user(d))
    env.run()
    assert served[0] == len(durations)
    assert peak[0] <= capacity
    assert res.count == 0 and res.queue_length == 0


# -- the scheduler against the oracle -------------------------------------------
# Few distinct times, so ties are the rule; 0.0 is "at now".
_TIMES = st.sampled_from([0.0, 0.0, 1.0, 2.5, 2.5, 100.0, 131072.0, 1e6])
_WAYS_IN = st.sampled_from(
    ["schedule", "schedule_at", "timeout", "timeout_at", "sleeper"]
)
_PRIORITIES = st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW])
#: (way in, time, priority, inserts to make from the callback when it fires)
_INSERT = st.recursive(
    st.tuples(_WAYS_IN, _TIMES, _PRIORITIES, st.just(())),
    lambda kids: st.tuples(
        _WAYS_IN, _TIMES, _PRIORITIES, st.lists(kids, max_size=3).map(tuple)
    ),
    max_leaves=8,
)
_ACTION = st.one_of(
    st.tuples(st.just("insert"), _INSERT),
    st.tuples(st.just("run_until"), _TIMES),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("peek"), st.none()),
)


def _dispatch_trace(env_cls, actions):
    """Drive ``actions`` from outside the loop; every insert logs
    ``(now, tag)`` when it fires and makes its own inserts right there,
    during dispatch. Tags count inserts, so two kernels log the same
    trace iff they dispatch in the same order."""
    env = env_cls()
    log = []
    tags = itertools.count()

    def insert(spec):
        way_in, t, priority, kids = spec
        tag = next(tags)

        def fire(_event=None):
            log.append((env.now, tag))
            for kid in kids:
                insert(kid)

        if way_in == "schedule":
            ev = env.event()
            ev.callbacks.append(fire)
            env.schedule(ev, delay=t, priority=priority)
        elif way_in == "schedule_at":
            ev = env.event()
            ev.callbacks.append(fire)
            env.schedule_at(ev, env.now + t, priority=priority)
        elif way_in == "timeout":
            env.timeout(t).callbacks.append(fire)
        elif way_in == "timeout_at":
            env.timeout_at(env.now + t).callbacks.append(fire)
        else:
            # A process on a bare timeout: the one shape Environment
            # recycles (and the oracle never does).
            def sleeper():
                yield env.timeout(t)
                fire()

            env.process(sleeper())

    for action, arg in actions:
        if action == "insert":
            insert(arg)
        elif action == "run_until":
            env.run(until=env.now + arg)
        elif action == "step":
            if env.peek() != float("inf"):
                env.step()
        else:
            log.append(("peek", env.peek()))
    env.run()
    return log, env.now, env.events_scheduled, env.events_processed


@settings(max_examples=150, deadline=None)
@given(st.lists(_ACTION, min_size=1, max_size=12))
def test_dispatch_order_matches_the_seed_heap(actions):
    """Every way onto the queue, three priorities, ties, inserts made
    during dispatch at ``now`` and later, run(until=) stop/resume and
    peek/step between them: same trace, same clock, same counters."""
    assert _dispatch_trace(Environment, actions) == _dispatch_trace(
        HeapEnvironment, actions
    )
