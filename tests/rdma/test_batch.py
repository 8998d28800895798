"""The completion grid: one plain kernel event per occupied tick, shared by
every wait on that tick."""

from repro.nvm.device import NVMDevice
from repro.rdma.batch import CompletionBatcher
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment, Event, Interrupt


def _waiter(bat, log, name, when):
    """Wait on the grid for ``when``; log the resume (or the interrupt)."""
    env = bat.env
    try:
        yield bat.wait_until(when)
    except Interrupt:
        log.append((name, "interrupted", env.now))
        return
    log.append((name, env.now))


def test_waiters_of_one_tick_resume_in_registration_order_from_one_event(env):
    bat = CompletionBatcher(env, 100.0)
    log = []
    for name, when in [("a", 150.0), ("b", 101.0), ("c", 200.0), ("d", 199.5)]:
        env.spawn(_waiter(bat, log, name, when))
    shared = bat.wait_until(120.0)
    assert env.events_scheduled == 1
    env.run()
    assert log == [("a", 200.0), ("b", 200.0), ("c", 200.0), ("d", 200.0)]
    assert env.events_processed == 1
    assert shared.processed and bat._ticks[2] is shared
    assert (bat.batches, bat.batched_waits) == (1, 5)


def test_a_lone_waiter_rides_the_tick_event_itself(env):
    bat = CompletionBatcher(env, 100.0)
    log = []
    env.spawn(_waiter(bat, log, "a", 30.0))
    tick = bat._ticks[1]
    assert tick._waiter is not None and tick.callbacks == []
    env.run()
    assert log == [("a", 100.0)] and env.events_processed == 1


def test_a_wait_at_an_already_dispatched_tick_instant_gets_a_new_event(env):
    bat = CompletionBatcher(env, 100.0)
    first = bat.wait_until(100.0)
    log = []

    def again():
        yield first
        ev = bat.wait_until(100.0)  # the tick being dispatched right now
        assert ev is not first and not ev.processed
        assert bat.wait_until(60.0) is ev
        log.append(("registered", env.now))
        yield ev
        log.append(("again", env.now))

    def other():
        yield first
        log.append(("other", env.now))

    env.spawn(again())
    env.spawn(other())
    env.run()
    assert log == [("registered", 100.0), ("other", 100.0), ("again", 100.0)]
    assert env.events_processed == 2
    assert (bat.batches, bat.batched_waits) == (2, 3)


def _interrupted_run(interrupt):
    env = Environment()
    bat = CompletionBatcher(env, 100.0)
    log = []
    procs = {
        name: env.spawn(_waiter(bat, log, name, when))
        for name, when in [("a", 150.0), ("b", 160.0), ("c", 170.0), ("d", 250.0)]
    }

    def killer():
        yield env.timeout(50.0)
        for name in interrupt:
            procs[name].interrupt("stop")
        yield env.timeout(1.0)  # the interrupts land first
        log.append(("pending", bat.pending))

    env.process(killer())
    env.run()
    return log, bat


def test_an_interrupted_waiter_leaves_the_others_resume_instants_unchanged():
    plain, _ = _interrupted_run(())
    # "a" is the tick event's sole-waiter slot, "c" one of its callbacks.
    cut, bat = _interrupted_run(("a", "c"))
    assert plain == [
        ("pending", 4), ("a", 200.0), ("b", 200.0), ("c", 200.0), ("d", 300.0),
    ]
    assert cut == [
        ("a", "interrupted", 50.0), ("c", "interrupted", 50.0),
        ("pending", 2), ("b", 200.0), ("d", 300.0),
    ]
    assert bat.batches == 2


def test_a_tick_whose_waiters_were_all_interrupted_still_counts_as_a_batch():
    log, bat = _interrupted_run(("a", "b", "c"))
    assert log[-1] == ("d", 300.0)
    assert (bat.batches, bat.batched_waits, bat.pending) == (2, 4, 0)


def test_batches_batched_waits_and_pending_keep_their_meanings(env):
    bat = CompletionBatcher(env, 100.0)
    log = []
    for i, when in enumerate((10.0, 20.0, 30.0, 250.0, 260.0)):
        env.spawn(_waiter(bat, log, i, when))
    # batched_waits: waits registered; batches: ticks dispatched;
    # pending: waits registered and not yet resumed.
    assert (bat.batched_waits, bat.batches, bat.pending) == (5, 0, 5)
    env.run(until=150.0)
    assert (bat.batched_waits, bat.batches, bat.pending) == (5, 1, 2)
    env.run()
    assert (bat.batched_waits, bat.batches, bat.pending) == (5, 2, 0)
    assert len(log) == 5


def test_the_tick_table_stays_bounded_over_100k_sequential_ticks(env):
    bat = CompletionBatcher(env, 128.0)
    sizes = []
    log = []
    env.spawn(_waiter(bat, log, "far", 1e9))  # one long-lived tick throughout

    def ticker():
        for i in range(100_000):
            yield bat.wait_until(env.now + 1.0)
            if i % 1000 == 0:
                sizes.append(len(bat._ticks))

    env.spawn(ticker())
    env.run()
    assert max(sizes) <= 3
    assert len(bat._order) == len(bat._ticks) <= 3
    assert bat.batches == 100_001 and log == [("far", 1e9)]


def test_no_tick_event_is_ever_a_pooled_timeout(env):
    bat = CompletionBatcher(env, 100.0)
    seen = []

    def waiter(offset):
        for _ in range(200):
            ev = bat.wait_until(env.now + offset)
            seen.append(ev)
            yield ev
            yield env.timeout(7.0)  # pooled timeouts cycle between ticks

    env.spawn(waiter(30.0))
    env.spawn(waiter(45.0))
    env.run()
    assert seen and all(type(ev) is Event for ev in seen)
    assert not {id(ev) for ev in seen} & {id(ev) for ev in env._free_timeouts}


def test_verbs_on_the_grid_share_tick_events_and_never_pool_them(monkeypatch):
    seen = []
    wait_until = CompletionBatcher.wait_until

    def spy(self, when):
        ev = wait_until(self, when)
        seen.append(ev)
        return ev

    monkeypatch.setattr(CompletionBatcher, "wait_until", spy)
    env = Environment()
    fabric = Fabric(env)
    bat = fabric.enable_completion_batching(256.0)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    mr = server.register_memory(0, 1 << 20)
    eps = [fabric.connect(fabric.create_node(f"c{i}"), server) for i in range(16)]
    data = []

    def client(k, ep):
        yield env.timeout(k * 3.0)
        yield from ep.write(mr.rkey, k * 4096, bytes([k]) * 128)
        data.append((yield from ep.read(mr.rkey, k * 4096, 128)))

    for k, ep in enumerate(eps):
        env.process(client(k, ep))
    env.run()
    assert sorted(data) == [bytes([k]) * 128 for k in range(16)]
    assert all(type(ev) is Event for ev in seen)
    assert len(seen) == bat.batched_waits
    assert bat.batches == len({id(ev) for ev in seen}) < bat.batched_waits
