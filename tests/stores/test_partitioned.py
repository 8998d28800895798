"""Partitioned server core: key routing, shard isolation, recovery.

The router is shared between server and client (both hash the key
fingerprint), so the pure one-sided READ path never needs an extra
round trip to discover the partition.  Every test here runs with
``num_partitions > 1``; the ``num_partitions=1`` configuration is
covered by the entire rest of the suite (it is the seed behaviour).
"""

import pytest

from repro.errors import ConfigError
from repro.kv.hashtable import key_fingerprint, partition_of_fp
from tests.conftest import run1, small_store


def _key(i: int) -> bytes:
    return f"key-{i:012d}".encode()


def _key_on_partition(part: int, n_parts: int, skip: int = 0) -> bytes:
    """A key the router maps to ``part`` (``skip`` picks later matches)."""
    for i in range(100_000):
        k = _key(i)
        if partition_of_fp(key_fingerprint(k), n_parts) == part:
            if skip == 0:
                return k
            skip -= 1
    raise AssertionError(f"no key found for partition {part}")


class TestRouting:
    def test_client_and_server_agree(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        server, c = setup.server, setup.client()
        for i in range(256):
            fp = key_fingerprint(_key(i))
            expected = partition_of_fp(fp, 4)
            assert server.partition_for_key(_key(i)).part_id == expected
            assert c.partition_of(fp) == expected

    def test_router_covers_all_partitions(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        server = setup.server
        hit = {server.partition_for_key(_key(i)).part_id for i in range(512)}
        assert hit == {0, 1, 2, 3}

    def test_single_partition_compat_facade(self, env):
        """At N=1 the server is its one partition: state is reached only
        through ``server.partitions``, with no monolith aliases on top."""
        setup = small_store("efactory", env)
        server = setup.server
        assert len(server.partitions) == 1
        part = server.partitions[0]
        for name in ("table", "pools", "write_pool_id"):
            assert not hasattr(server, name)
            assert hasattr(part, name)
        # no RPC budget resource at N=1: zero extra yields on dispatch
        assert part.cpu is None

    def test_multi_partition_has_budget(self, env):
        setup = small_store("efactory", env, num_partitions=2)
        for part in setup.server.partitions:
            assert part.cpu is not None


class TestPartitionedRoundtrip:
    N_KEYS = 128

    def test_put_get_across_partitions(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        c = setup.client()

        def work():
            for i in range(self.N_KEYS):
                yield from c.put(_key(i), bytes([i % 256]) * 64)
            out = []
            for i in range(self.N_KEYS):
                v = yield from c.get(_key(i), size_hint=64)
                out.append(v == bytes([i % 256]) * 64)
            return out

        assert all(run1(env, work()))

    def test_reads_stay_on_pure_path(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        c = setup.client()

        def load():
            for i in range(self.N_KEYS):
                yield from c.put(_key(i), b"p" * 64)

        run1(env, load())
        env.run(until=env.now + 1_000_000)  # verifier drains, all durable

        def read_all():
            for i in range(self.N_KEYS):
                yield from c.get(_key(i), size_hint=64)

        run1(env, read_all())
        assert c.pure_reads == self.N_KEYS
        assert c.fallback_reads == 0

    def test_keys_land_in_owning_partition(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        server, c = setup.server, setup.client()

        def load():
            for i in range(self.N_KEYS):
                yield from c.put(_key(i), b"q" * 64)

        run1(env, load())
        for i in range(self.N_KEYS):
            part = server.partition_for_key(_key(i))
            found = part.lookup_slot(_key(i))
            assert found is not None and found[1] is not None
            # the object lives in that partition's own log pool
            pool = part.pools[found[1].pool]
            assert found[1].offset < pool.size


class TestPartitionLocalCleaning:
    def _fill(self, env, setup, n_keys=64, versions=3):
        c = setup.client()

        def work():
            for v in range(versions):
                for i in range(n_keys):
                    yield from c.put(
                        _key(i), f"v{v:03d}".encode() + bytes([i]) * 60
                    )

        run1(env, work())
        env.run(until=env.now + 500_000)

    def test_cleaning_one_partition_leaves_others_pure(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        server = setup.server
        self._fill(env, setup)
        c = setup.client()

        target = server.partition_for_key(_key(0)).part_id
        other_key = next(
            _key(i)
            for i in range(1, 64)
            if server.partition_for_key(_key(i)).part_id != target
        )
        other_part = server.partition_for_key(other_key).part_id

        clean = server.trigger_cleaning(part_id=target)
        assert clean is not None

        def read_during():
            # wait until the client learns partition `target` is cleaning
            while not c.partition_cleaning(target):
                yield env.timeout(500)
            assert not c.partition_cleaning(other_part)
            pure0, fb0 = c.pure_reads, c.fallback_reads
            yield from c.get(other_key, size_hint=64)      # untouched shard
            yield from c.get(_key(0), size_hint=64)        # cleaning shard
            return (c.pure_reads - pure0, c.fallback_reads - fb0)

        pure_delta, fallback_delta = env.run(env.process(read_during()))
        assert pure_delta == 1      # other partition stayed one-sided
        assert fallback_delta == 1  # cleaning partition fell back to RPC
        env.run(clean)

    def test_cleaning_state_is_per_partition(self, env):
        setup = small_store("efactory", env, num_partitions=4)
        server = setup.server
        self._fill(env, setup)
        target = server.partition_for_key(_key(0)).part_id
        clean = server.trigger_cleaning(part_id=target)

        def probe():
            yield env.timeout(10_000)
            states = [p.cleaning_active for p in server.partitions]
            return states

        states = env.run(env.process(probe()))
        assert states[target] is True
        assert sum(states) == 1
        env.run(clean)
        assert server.partitions[target].cleaner.stats.cycles == 1
        for pid, part in enumerate(server.partitions):
            if pid != target:
                assert part.cleaner.stats.cycles == 0

    def test_trigger_all_partitions_cleans_each(self, env):
        setup = small_store("efactory", env, num_partitions=2)
        server = setup.server
        self._fill(env, setup)
        done = server.trigger_cleaning()
        env.run(done)
        assert server.metrics()["cleaner"]["cycles"] == 2  # partition-summed

        c = setup.client()

        def check():
            out = []
            for i in range(64):
                v = yield from c.get(_key(i), size_hint=64)
                out.append(v[:4] == b"v002")
            return out

        assert all(run1(env, check()))


class TestPartitionedRecovery:
    def test_recovery_merges_all_shards(self, env):
        from repro.core.recovery import recover_bucketized

        setup = small_store("efactory", env, num_partitions=4)
        server, c = setup.server, setup.client()

        def load():
            for i in range(96):
                yield from c.put(_key(i), bytes([i]) * 64)

        run1(env, load())
        env.run(until=env.now + 1_000_000)
        server.stop()

        report = env.run(env.process(recover_bucketized(server)))
        assert report.keys_recovered == 96
        assert report.keys_lost == 0
        # one head per pool per partition (dual pools x 4 shards)
        assert len(report.pool_heads) == 8


class TestPartitionConfig:
    def test_erda_rejects_partitions(self, env):
        with pytest.raises(ConfigError):
            small_store("erda", env, num_partitions=2)

    def test_buckets_must_divide(self, env):
        with pytest.raises(ConfigError):
            small_store("efactory", env, table_buckets=510, num_partitions=4)
