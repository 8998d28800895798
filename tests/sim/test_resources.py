"""Resource, Store and FilterStore semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.sim.resources import FilterStore, Resource, Store


class TestResource:
    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert r1.triggered and r2.triggered and not r3.triggered
        assert res.count == 2 and res.queue_length == 1

    def test_release_grants_fifo(self, env):
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        r3 = res.request()
        res.release(r1)
        assert r2.triggered and not r3.triggered
        res.release(r2)
        assert r3.triggered

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r2)  # cancel while queued
        r3 = res.request()
        res.release(r1)
        assert r3.triggered

    def test_release_unknown_rejected(self, env):
        res = Resource(env, capacity=1)
        r1 = res.request()
        res.release(r1)
        with pytest.raises(SimulationError):
            res.release(r1)

    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)
        done = []

        def user(i):
            with res.request() as req:
                yield req
                yield env.timeout(10)
                done.append((i, env.now))

        env.process(user(0))
        env.process(user(1))
        env.run()
        assert done == [(0, 10.0), (1, 20.0)]

    def test_acquire_helper(self, env):
        res = Resource(env, capacity=1)

        def proc():
            req = yield from res.acquire()
            assert res.count == 1
            res.release(req)
            return res.count

        assert env.run(env.process(proc())) == 0

    def test_serializes_contending_processes(self, env):
        """Throughput through a capacity-1 resource is one holder at a time."""
        res = Resource(env, capacity=1)
        spans = []

        def user():
            req = yield from res.acquire()
            start = env.now
            yield env.timeout(5)
            res.release(req)
            spans.append((start, env.now))

        for _ in range(4):
            env.process(user())
        env.run()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert s2 >= e1


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            out = []
            for _ in range(3):
                item = yield store.get()
                out.append(item)
            return out

        env.process(producer())
        assert env.run(env.process(consumer())) == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (env.now, item)

        def producer():
            yield env.timeout(42)
            store.put("x")

        env.process(producer())
        assert env.run(env.process(consumer())) == (42.0, "x")

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until 'a' consumed
            return env.now

        def consumer():
            yield env.timeout(30)
            yield store.get()

        env.process(consumer())
        assert env.run(env.process(producer())) == 30.0

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() == (False, None)
        store.put("z")
        env.run()
        assert store.try_get() == (True, "z")

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestFilterStore:
    def test_predicate_skips_nonmatching(self, env):
        fs = FilterStore(env)
        fs.put("apple")
        fs.put("banana")

        def proc():
            item = yield fs.get(lambda x: x.startswith("b"))
            return item

        assert env.run(env.process(proc())) == "banana"
        assert fs.items == ["apple"]

    def test_waiting_getter_woken_by_match(self, env):
        fs = FilterStore(env)

        def consumer():
            item = yield fs.get(lambda x: x == "target")
            return (env.now, item)

        def producer():
            yield env.timeout(5)
            fs.put("noise")
            yield env.timeout(5)
            fs.put("target")

        env.process(producer())
        assert env.run(env.process(consumer())) == (10.0, "target")
        assert fs.items == ["noise"]

    def test_two_getters_different_predicates(self, env):
        fs = FilterStore(env)
        got = {}

        def consumer(name, pred):
            item = yield fs.get(pred)
            got[name] = item

        env.process(consumer("evens", lambda x: x % 2 == 0))
        env.process(consumer("odds", lambda x: x % 2 == 1))

        def producer():
            yield env.timeout(1)
            fs.put(3)
            fs.put(4)

        env.process(producer())
        env.run()
        assert got == {"evens": 4, "odds": 3}

    def test_try_get_with_predicate(self, env):
        fs = FilterStore(env)
        fs.put(1)
        fs.put(2)
        ok, item = fs.try_get(lambda x: x > 1)
        assert (ok, item) == (True, 2)
        assert fs.try_get(lambda x: x > 10) == (False, None)

    def test_unfiltered_get_is_fifo(self, env):
        fs = FilterStore(env)
        fs.put("first")
        fs.put("second")

        def proc():
            a = yield fs.get()
            b = yield fs.get()
            return [a, b]

        assert env.run(env.process(proc())) == ["first", "second"]
