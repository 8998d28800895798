"""eFactory-specific machinery: hybrid reads, the background verifier,
timeout invalidation, the version list, delete."""

import pytest

from repro.baselines.base import ObjectLocation
from repro.errors import KeyNotFoundError, StoreError
from repro.kv.objects import FLAG_VALID, HEADER_SIZE
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-000000000efa"


class TestHybridRead:
    def test_durable_object_served_by_pure_rdma(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"v" * 64)
            yield env.timeout(200_000)  # background thread persists
            yield from c.get(KEY, size_hint=64)

        run1(env, work())
        assert c.pure_reads == 1 and c.fallback_reads == 0

    def test_read_write_race_falls_back_to_rpc(self, env):
        """A GET issued right after PUT sees no durability flag and must
        re-read through the RPC path (Figure 6 steps 5-9). The background
        thread's retry is pushed out so it cannot win the race."""
        setup = small_store("efactory", env, bg_retry_delay_ns=1e6)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"w" * 4096)
            return (yield from c.get(KEY, size_hint=4096))  # immediately

        assert run1(env, work()) == b"w" * 4096
        assert c.fallback_reads == 1

    def test_fallback_read_is_slower(self, env):
        setup = small_store("efactory", env, bg_retry_delay_ns=1e6)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"z" * 4096)
            t0 = env.now
            yield from c.get(KEY, size_hint=4096)  # fallback
            t_fallback = env.now - t0
            yield env.timeout(2_000_000)
            t0 = env.now
            yield from c.get(KEY, size_hint=4096)  # pure
            t_pure = env.now - t0
            return t_fallback, t_pure

        t_fallback, t_pure = run1(env, work())
        assert t_fallback > t_pure

    def test_nohr_always_uses_rpc(self, env):
        setup = small_store("efactory_nohr", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"n" * 64)
            yield env.timeout(200_000)
            yield from c.get(KEY, size_hint=64)
            yield from c.get(KEY, size_hint=64)

        run1(env, work())
        # With hybrid read disabled the pure path is never attempted:
        # these are rpc-only reads, not fallbacks.
        assert c.pure_reads == 0 and c.fallback_reads == 0
        assert c.rpc_only_reads == 2

    def test_rpc_fallback_serves_durable_version_during_race(self, env):
        """While the newest version is in flight, the server must serve
        the previous intact version, never the torn head."""
        setup = small_store("efactory", env)
        a, = setup.clients
        b_setup = setup  # second client on the same server
        b = type(a)(env, setup.server, name="reader")
        results = {}

        def writer():
            yield from a.put(KEY, b"OLD!" * 16)
            yield env.timeout(200_000)  # OLD becomes durable
            yield from a.put(KEY, b"NEW!" * 1024)  # 4 KiB, slow write

        def reader():
            # land mid-second-write: after its alloc, before data arrives
            yield env.timeout(200_000 + 5_500)
            value = yield from b.get(KEY, size_hint=4096)
            results["value"] = value

        w = env.process(writer())
        r = env.process(reader())
        env.run(env.all_of([w, r]))
        v = results["value"]
        assert v == b"OLD!" * 16 or v == b"NEW!" * 1024  # never torn


class TestBackgroundVerifier:
    def test_stats_progress(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(5):
                yield from c.put(f"key-{i:012d}".encode(), b"x" * 64)

        run1(env, work())
        env.run(until=env.now + 500_000)
        stats = setup.server.metrics()["verifier"]
        assert stats["persisted"] == 5
        assert stats["backlog"] == 0

    def test_request_handler_sets_flag_and_bg_skips(self, env):
        """A racing GET persists the object itself; the background
        thread later skips it via the durability flag (§4.3.2)."""
        setup = small_store(
            "efactory", env, bg_idle_poll_ns=1e6, bg_retry_delay_ns=1e6
        )
        c = setup.client()

        def work():
            yield from c.put(KEY, b"r" * 64)
            yield from c.get(KEY, size_hint=64)  # fallback persists it

        run1(env, work())
        env.run(until=env.now + 3_000_000)
        stats = setup.server.metrics()["verifier"]
        assert stats["skipped"] >= 1

    def test_timeout_invalidates_never_completed_write(self, env):
        """An allocation whose one-sided WRITE never arrives is marked
        invalid after the timeout (§4.3.2)."""
        setup = small_store("efactory", env, verify_timeout_ns=30_000.0)
        server = setup.server
        c = setup.client()

        def work():
            # allocate but never write the value (simulates client death)
            resp = yield from c.alloc_rpc(KEY, 64, 0xBAD)
            return resp

        resp = run1(env, work())
        env.run(until=env.now + 400_000)
        loc = ObjectLocation(
            pool=resp["pool"], offset=resp["obj_off"], size=resp["size"]
        )
        img = server.partitions[0].read_object(loc)
        assert not img.valid
        assert server.metrics()["verifier"]["invalidated"] == 1

    def test_inflight_write_retried_not_invalidated(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"ok" * 32)

        run1(env, work())
        env.run(until=env.now + 500_000)
        stats = setup.server.metrics()["verifier"]
        assert stats["invalidated"] == 0
        assert stats["persisted"] == 1


class TestVersionList:
    def test_chain_links_all_versions(self, env):
        setup = small_store("efactory", env)
        c = setup.client()
        server = setup.server

        def work():
            for i in range(4):
                yield from c.put(KEY, f"ver{i}".encode() + b"." * 60)

        run1(env, work())
        # walk the chain from the entry
        found = server.lookup_slot(KEY)
        loc = ObjectLocation(
            pool=found[1].pool, offset=found[1].offset, size=found[1].size
        )
        part = server.partition_for_key(KEY)
        seen = []
        while loc is not None:
            img = part.read_object(loc)
            seen.append(img.value[:4])
            loc = part.previous_location(loc)
        assert seen == [b"ver3", b"ver2", b"ver1", b"ver0"]


class TestDelete:
    def test_delete_removes_key(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"d" * 64)
            yield from c.delete(KEY)
            yield from c.get(KEY, size_hint=64)

        with pytest.raises(StoreError):
            run1(env, work())

    def test_delete_missing_key_faults(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.delete(b"key-000000nothere")

        with pytest.raises(RpcFault):
            run1(env, work())

    def test_reput_after_delete(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"one" * 21 + b"x")
            yield from c.delete(KEY)
            yield from c.put(KEY, b"two" * 21 + b"y")
            return (yield from c.get(KEY, size_hint=64))

        assert run1(env, work())[:3] == b"two"
