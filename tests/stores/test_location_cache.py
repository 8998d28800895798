"""Client-side location cache: one-READ GETs with the object image as
the staleness detector, and per-partition flushes on cleaning and
degradation."""

import random

import pytest

from repro.core import EFactoryClient
from repro.faults.policy import RetryPolicy
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store


def _key(i: int) -> bytes:
    return f"key-{i:012d}".encode()


@pytest.fixture
def cached(monkeypatch):
    """Clients keep a 128-entry location cache."""
    monkeypatch.setattr(EFactoryClient, "loc_cache_size", 128)


class TestCachedReads:
    @pytest.mark.usefixtures("cached")
    def test_warm_get_hits_and_matches(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(_key(1), b"a" * 64)
            yield env.timeout(200_000)  # verifier persists
            return (yield from c.get(_key(1), size_hint=64))

        assert run1(env, work()) == b"a" * 64
        # PUT warmed the cache via _note_alloc: the GET was a hit.
        assert c.cache_hits == 1 and c.cache_misses == 0

    @pytest.mark.usefixtures("cached")
    def test_cached_get_is_faster_than_uncached(self):
        """One READ instead of two: a hit costs at most 1/1.3 of a miss
        (≈ 1/2 measured), sharded or not."""
        for parts in (1, 4):
            env = Environment()
            setup = small_store("efactory", env, num_partitions=parts)
            c = setup.client()

            def work():
                yield from c.put(_key(2), b"b" * 64)
                yield env.timeout(200_000)
                t0 = env.now
                yield from c.get(_key(2), size_hint=64)  # hit: one READ
                t_hit = env.now - t0
                c._loc_cache.clear()
                t0 = env.now
                yield from c.get(_key(2), size_hint=64)  # miss: two READs
                t_miss = env.now - t0
                return t_hit, t_miss

            t_hit, t_miss = run1(env, work())
            assert (c.cache_hits, c.cache_misses) == (1, 1), parts
            assert t_miss >= 1.3 * t_hit, (parts, t_hit, t_miss)

    def test_disabled_by_default(self, env):
        assert EFactoryClient.loc_cache_size == 0
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(_key(3), b"c" * 64)
            yield env.timeout(200_000)
            yield from c.get(_key(3), size_hint=64)

        run1(env, work())
        assert c.cache_hits == 0
        assert len(c._loc_cache) == 0


@pytest.mark.usefixtures("cached")
class TestStaleness:
    def test_overwrite_invalidates_cached_slot(self, env):
        """After an overwrite the cached (old) slot's image carries a
        set nxt_ptr: the client must detect it, drop the entry, and
        return the new value."""
        setup = small_store("efactory", env, n_clients=2)
        c = setup.client(0)
        c2 = setup.client(1)

        def work():
            yield from c.put(_key(4), b"old" + b"x" * 61)
            yield env.timeout(200_000)
            yield from c.get(_key(4), size_hint=64)  # warm hit on v1
            # Overwrite through a *different* client so this client's
            # cache still points at the superseded version.
            yield from c2.put(_key(4), b"new" + b"y" * 61)
            yield env.timeout(200_000)
            return (yield from c.get(_key(4), size_hint=64))

        got = run1(env, work())
        assert got == b"new" + b"y" * 61

    def test_delete_invalidates_cached_slot(self, env):
        from repro.rdma.rpc import RpcFault

        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(_key(5), b"d" * 64)
            yield env.timeout(200_000)
            yield from c.get(_key(5), size_hint=64)
            yield from c.delete(_key(5))
            assert _key(5) not in c._loc_cache  # dropped eagerly
            try:
                yield from c.get(_key(5), size_hint=64)
            except RpcFault:
                return "gone"
            return "found"

        assert run1(env, work()) == "gone"


@pytest.mark.usefixtures("cached")
class TestFlushes:
    def test_cleaning_start_flushes_partition(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def fill():
            for i in range(8):
                for v in range(2):
                    yield from c.put(_key(i), bytes([v]) * 64)
            yield env.timeout(500_000)
            for i in range(8):
                yield from c.get(_key(i), size_hint=64)

        run1(env, fill())
        assert len(c._loc_cache) == 8
        env.run(setup.server.trigger_cleaning())
        # The cleaning-start notice flushed every entry on partition 0.
        assert len(c._loc_cache) == 0

    def test_degradation_flushes_partition(self, env):
        setup = small_store("efactory", env)
        c = setup.client()
        res = c.enable_resilience(RetryPolicy(), random.Random(7))

        def work():
            yield from c.put(_key(6), b"e" * 64)
            yield env.timeout(200_000)
            yield from c.get(_key(6), size_hint=64)
            assert len(c._loc_cache) == 1
            # Demote partition 0 (threshold consecutive pure faults).
            for _ in range(res.policy.degrade_threshold):
                res.note_pure_fault(0, env.now)
            yield from c.get(_key(6), size_hint=64)

        run1(env, work())
        assert c.degraded_reads == 1
        assert len(c._loc_cache) == 0
