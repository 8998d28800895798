"""Interrupted waiters must never leak reservations or swallow items.

Regression tests for the crash-fidelity bugs these hooks fixed: a server
stopped mid-crash leaves processes interrupted while queued on the NIC
engine (Resource), the SRQ (FilterStore) or a mailbox (Store) — none of
which may strand later traffic.
"""

import gc
import weakref

from repro.rdma.verbs import Message, Opcode
from repro.sim.kernel import Environment, Interrupt
from repro.sim.resources import FilterStore, Resource, Store


class _TrackedMessage(Message):
    __slots__ = ("__weakref__",)


def test_interrupted_resource_waiter_releases_queue_slot(env):
    res = Resource(env, capacity=1)
    order = []

    def holder():
        req = yield from res.acquire()
        yield env.timeout(100)
        res.release(req)

    def victim():
        try:
            yield from res.acquire()
        except Interrupt:
            order.append("victim interrupted")

    def survivor():
        yield env.timeout(10)
        req = yield from res.acquire()
        order.append(("survivor got it", env.now))
        res.release(req)

    env.process(holder())
    v = env.process(victim())
    env.process(survivor())

    def killer():
        yield env.timeout(5)
        v.interrupt()

    env.process(killer())
    env.run()
    assert order == ["victim interrupted", ("survivor got it", 100.0)]
    assert res.count == 0 and res.queue_length == 0


def test_interrupted_store_getter_does_not_swallow_item(env):
    store = Store(env)
    got = []

    def victim():
        try:
            yield store.get()
        except Interrupt:
            pass

    def survivor():
        yield env.timeout(10)
        item = yield store.get()
        got.append(item)

    v = env.process(victim())
    env.process(survivor())

    def killer_then_put():
        yield env.timeout(5)
        v.interrupt()
        yield env.timeout(10)
        yield store.put("precious")

    env.process(killer_then_put())
    env.run()
    assert got == ["precious"]


def test_interrupted_filterstore_getter_pruned(env):
    fs = FilterStore(env)
    got = []

    def victim():
        try:
            yield fs.get(lambda x: True)
        except Interrupt:
            pass

    def survivor():
        yield env.timeout(10)
        item = yield fs.get(lambda x: x == "msg")
        got.append(item)

    v = env.process(victim())
    env.process(survivor())

    def driver():
        yield env.timeout(5)
        v.interrupt()
        yield env.timeout(10)
        fs.put("msg")

    env.process(driver())
    env.run()
    assert got == ["msg"]
    assert len(fs._getters) == 0


def test_bare_unyielded_event_still_served(env):
    """A get event not yet yielded (no callbacks) must still be served —
    abandonment only triggers via explicit unsubscription."""
    box = Store(env)
    ev = box.get()  # no process attached yet
    box.put("item")
    assert ev.triggered

    def late_waiter():
        got = yield ev
        return got, env.now

    assert env.run(env.process(late_waiter())) == ("item", 0.0)
    assert len(box) == 0


def test_interrupt_before_first_step_is_deliverable(env):
    """A process interrupted before it ever ran still gets the
    interrupt right after its first yield."""
    log = []

    def proc():
        try:
            yield env.timeout(1000)
        except Interrupt as i:
            log.append(i.cause)

    p = env.process(proc())
    p.interrupt("early")  # before the Initialize event processed
    env.run()
    assert log == ["early"]


def test_served_blocking_get_is_freed_by_refcount(env):
    """A served getter leaves no reference cycle behind: with the cycle
    collector off, its wait event (seen through the predicate its wait
    entry holds) and the Message it delivered die with the getter."""
    fs = FilterStore(env)
    refs = []

    def getter():
        pred = lambda m: m.imm == 7  # noqa: E731
        refs.append(weakref.ref(pred))
        msg = yield fs.get(pred)
        refs.append(weakref.ref(msg))

    enabled = gc.isenabled()
    gc.disable()
    try:
        env.process(getter())
        env.run()  # the getter blocks: nothing matches yet
        fs.put(_TrackedMessage(Opcode.SEND, None, 8, imm=7))
        env.run()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
