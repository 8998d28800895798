"""Two-stage log cleaning (§4.4): correctness under concurrency."""

import pytest

from repro.sim.kernel import Environment
from tests.conftest import run1, small_store


def _key(i: int) -> bytes:
    return f"key-{i:012d}".encode()


class TestCleaningCycle:
    def _fill(self, env, setup, n_keys=20, versions=3, vlen=64):
        c = setup.client()

        def work():
            for v in range(versions):
                for i in range(n_keys):
                    yield from c.put(_key(i), f"v{v:03d}".encode() + bytes([i]) * (vlen - 4))

        run1(env, work())
        env.run(until=env.now + 500_000)  # background settles

    def test_cleaning_preserves_every_key(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup)
        server = setup.server

        proc = server.trigger_cleaning()
        env.run(proc)
        assert server.metrics()["cleaner"]["cycles"] == 1

        c = setup.client()

        def check():
            out = []
            for i in range(20):
                v = yield from c.get(_key(i), size_hint=64)
                out.append(v[:4] == b"v002" and v[4:] == bytes([i]) * 60)
            return out

        assert all(run1(env, check()))

    def test_cleaning_reclaims_stale_versions(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup, n_keys=10, versions=5)
        server = setup.server
        (part,) = server.partitions
        old_pool = part.pools[part.write_pool_id]
        used_before = old_pool.used

        proc = server.trigger_cleaning()
        env.run(proc)
        new_pool = part.pools[part.write_pool_id]
        # 50 versions compacted to 10 live objects
        assert new_pool.used < used_before
        assert len(new_pool.allocations) == 10
        assert part.cleaner.stats.moved == 10
        assert part.cleaner.stats.skipped_stale == 40

    def test_write_pool_swapped(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup, n_keys=4)
        server = setup.server
        (part,) = server.partitions
        before = part.write_pool_id
        env.run(server.trigger_cleaning())
        assert part.write_pool_id == 1 - before
        # old pool recycled
        assert part.pools[before].used == 0

    def test_entries_point_to_new_pool_after_cleaning(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup, n_keys=8)
        server = setup.server
        new_pool_id = 1 - server.partitions[0].write_pool_id
        env.run(server.trigger_cleaning())
        for i in range(8):
            found = server.lookup_slot(_key(i))
            assert found is not None
            _, cur, alt = found
            assert cur is not None and cur.pool == new_pool_id
            assert alt is None  # promoted and cleared

    def test_moved_objects_are_durable(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup, n_keys=6)
        server = setup.server
        (part,) = server.partitions
        env.run(server.trigger_cleaning())
        for i in range(6):
            found = server.lookup_slot(_key(i))
            from repro.baselines.base import ObjectLocation

            cur = found[1]
            loc = ObjectLocation(pool=cur.pool, offset=cur.offset, size=cur.size)
            img = part.read_object(loc)
            assert img.durable
            pool = part.pools[cur.pool]
            assert server.device.is_persistent(pool.abs_addr(cur.offset), cur.size)

    def test_second_cycle_works(self, env):
        setup = small_store("efactory", env)
        self._fill(env, setup, n_keys=5)
        server = setup.server
        env.run(server.trigger_cleaning())
        self._fill(env, setup, n_keys=5)  # more garbage
        env.run(server.trigger_cleaning())
        assert server.metrics()["cleaner"]["cycles"] == 2
        c = setup.client()

        def check():
            return (yield from c.get(_key(0), size_hint=64))

        assert run1(env, check())[:4] == b"v002"


class TestConcurrentOperations:
    def test_ops_during_cleaning_survive(self, env):
        """Clients keep reading and writing throughout a cleaning cycle;
        afterwards every key serves its newest value."""
        setup = small_store("efactory", env, pool_size=1 << 20)
        server = setup.server
        c = setup.client()
        writer_c = type(c)(env, server, name="writer2")

        def preload():
            for i in range(16):
                yield from c.put(_key(i), b"base" + bytes([i]) * 60)

        run1(env, preload())
        env.run(until=env.now + 500_000)

        latest = {}

        def churn():
            for round_ in range(30):
                i = round_ % 16
                value = f"r{round_:03d}".encode() + bytes([i]) * 59
                yield from writer_c.put(_key(i), value)
                latest[i] = value
                got = yield from writer_c.get(_key(i), size_hint=64)
                assert got == value, (round_, got[:8])

        churn_proc = env.process(churn())
        clean_proc = server.trigger_cleaning()
        env.run(env.all_of([churn_proc, clean_proc]))

        def verify():
            for i, expected in latest.items():
                got = yield from c.get(_key(i), size_hint=64)
                assert got == expected, i
            return True

        assert run1(env, verify())

    def test_clients_notified_and_restored(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def preload():
            for i in range(6):
                yield from c.put(_key(i), b"x" * 64)

        run1(env, preload())
        env.run(until=env.now + 300_000)
        server = setup.server
        clean = server.trigger_cleaning()

        def poller():
            # poll until cleaning mode observed, then until restored
            saw_cleaning = False
            for _ in range(10_000):
                if c.cleaning_mode:
                    saw_cleaning = True
                if saw_cleaning and not c.cleaning_mode:
                    return True
                yield env.timeout(1_000)
            return False

        p = env.process(poller())
        assert env.run(p) is True

    def test_reads_during_cleaning_use_rpc(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def preload():
            for i in range(6):
                yield from c.put(_key(i), b"y" * 64)

        run1(env, preload())
        env.run(until=env.now + 300_000)
        server = setup.server
        clean = server.trigger_cleaning()

        def read_during():
            # wait until the notification arrives, then read
            while not c.cleaning_mode:
                yield env.timeout(500)
            before = c.fallback_reads
            yield from c.get(_key(0), size_hint=64)
            return c.fallback_reads - before

        assert env.run(env.process(read_during())) == 1

    def test_trigger_is_idempotent_while_running(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def preload():
            for i in range(4):
                yield from c.put(_key(i), b"z" * 64)

        run1(env, preload())
        p1 = setup.server.trigger_cleaning()
        assert setup.server.trigger_cleaning() is None
        env.run(p1)
        assert setup.server.metrics()["cleaner"]["cycles"] == 1


class TestAutoTrigger:
    def test_cleaning_fires_when_pool_fills(self, env):
        setup = small_store(
            "efactory",
            env,
            pool_size=64 * 1024,
            auto_clean=True,
            reserve_fraction=0.3,
        )
        c = setup.client()

        def work():
            # each object ~192B aligned; write until past the threshold
            for i in range(260):
                yield from c.put(_key(i % 40), bytes([i % 256]) * 100)

        run1(env, work())
        env.run(until=env.now + 2_000_000)
        assert setup.server.metrics()["cleaner"]["cycles"] >= 1
