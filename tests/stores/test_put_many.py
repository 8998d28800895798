"""The doorbell-batched PUT pipeline: equivalence with sequential PUTs,
amortization counters, error surfacing, and crash-point spot-checks."""

import numpy as np
import pytest

from repro.core import EFactoryClient
from repro.crc.cost import CRC_COST
from repro.core.recovery import recover_bucketized
from repro.errors import QPError, StoreError
from repro.kv.hashtable import Slot
from repro.kv.objects import value_intact
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store


def _key(i: int) -> bytes:
    return f"key-{i:012d}".encode()


def _items(n: int, vlen: int = 64):
    return [(_key(i), bytes([i % 251]) * vlen) for i in range(n)]


BATCHED = dict(bg_batch=8)


@pytest.fixture
def put_batch_8(monkeypatch):
    """Clients cut chunks of 8 PUTs (``put_window`` stays 2)."""
    monkeypatch.setattr(EFactoryClient, "put_batch", 8)


@pytest.fixture
def cached(monkeypatch):
    """Clients keep a 64-entry location cache."""
    monkeypatch.setattr(EFactoryClient, "loc_cache_size", 64)


@pytest.mark.usefixtures("put_batch_8", "cached")
class TestEquivalence:
    def test_roundtrip_matches_sequential(self, env):
        items = _items(30)
        setup = small_store("efactory", env, **BATCHED)
        c = setup.client()

        def work():
            yield from c.put_many(items)
            yield env.timeout(1_000_000)
            got = []
            for key, value in items:
                got.append((yield from c.get(key, size_hint=64)) == value)
            return got

        assert all(run1(env, work()))

    def test_same_final_state_as_sequential(self, monkeypatch):
        """Batched and sequential ingestion leave the same KV contents."""

        def final_values(batched: bool):
            env = Environment()
            monkeypatch.setattr(EFactoryClient, "loc_cache_size", 64 if batched else 0)
            overrides = dict(BATCHED) if batched else {}
            setup = small_store("efactory", env, **overrides)
            c = setup.client()
            items = _items(20)

            def work():
                if batched:
                    yield from c.put_many(items)
                else:
                    for key, value in items:
                        yield from c.put(key, value)
                yield env.timeout(1_000_000)
                out = []
                for key, _ in items:
                    out.append((yield from c.get(key, size_hint=64)))
                return out

            return run1(env, work())

        assert final_values(True) == final_values(False)

    def test_default_put_many_is_sequential_puts(self, env):
        """Stores without the pipeline fall back to per-item put()."""
        setup = small_store("rpc", env)
        c = setup.client()
        items = _items(6)

        def work():
            yield from c.put_many(items)
            out = []
            for key, value in items:
                out.append((yield from c.get(key, size_hint=64)) == value)
            return out

        assert all(run1(env, work()))


@pytest.mark.usefixtures("put_batch_8", "cached")
class TestAmortization:
    def test_counters(self, env):
        setup = small_store("efactory", env, **BATCHED)
        c = setup.client()
        items = _items(24)  # 3 chunks of 8

        run1(env, c.put_many(items))
        assert c.ep.stats["doorbell_batches"] == 3
        assert setup.server.rpc.served_by_op["alloc_batch"] == 3
        assert "alloc" not in setup.server.rpc.served_by_op

    def test_pipeline_is_faster_than_sequential(self):
        def elapsed(batched: bool) -> float:
            env = Environment()
            setup = small_store("efactory", env, **BATCHED)
            c = setup.client()
            items = _items(32)
            t0 = env.now

            def work():
                if batched:
                    yield from c.put_many(items)
                else:
                    for key, value in items:
                        yield from c.put(key, value)

            run1(env, work())
            return env.now - t0

        assert elapsed(True) < elapsed(False) / 2  # the >=2x claim

    def test_single_chunk_one_rpc(self, env):
        setup = small_store("efactory", env, **BATCHED)
        c = setup.client()
        run1(env, c.put_many(_items(8)))
        assert setup.server.rpc.served_by_op["alloc_batch"] == 1
        assert setup.server.rpc.requests_served == 1


class TestLargeValues:
    def test_chunks_close_before_the_verify_window(self, env):
        """16 x 4 KiB of client CRC (70 us) between the alloc_batch grant
        and the WRITEs overran ``verify_timeout_ns`` (50 us): the verifier
        invalidated slots whose PUT was then acknowledged, and a third of
        the keys read back "no intact version". Chunks now also close on
        their summed CRC cost."""
        items = _items(64, vlen=4096)
        setup = small_store("efactory", env, pool_size=4 << 20)
        c = setup.client()
        assert 16 * CRC_COST.cost_ns(4096) > setup.server.verify_timeout_ns

        def work():
            yield from c.put_many(items)
            yield env.timeout(1_000_000)
            got = []
            for key, _ in items:
                got.append((yield from c.get(key, size_hint=4096)))
            return got

        assert run1(env, work()) == [value for _, value in items]
        # more, smaller alloc_batch round trips than 64 / put_batch
        assert setup.server.rpc.served_by_op["alloc_batch"] > 64 // c.put_batch

    @pytest.mark.usefixtures("put_batch_8")
    def test_small_values_still_chunk_by_put_batch(self, env):
        setup = small_store("efactory", env)
        run1(env, setup.client().put_many(_items(30)))
        assert setup.server.rpc.served_by_op["alloc_batch"] == 4


@pytest.mark.usefixtures("put_batch_8", "cached")
class TestErrors:
    def test_per_item_alloc_error_raises(self, env):
        """A pool too small for the batch surfaces as an RpcFault, not a
        silent partial write."""
        setup = small_store("efactory", env, **dict(BATCHED, pool_size=4096))
        c = setup.client()
        items = _items(64, vlen=512)

        def work():
            try:
                yield from c.put_many(items)
            except (RpcFault, StoreError):
                return "raised"
            return "ok"

        assert run1(env, work()) == "raised"


@pytest.mark.usefixtures("put_batch_8", "cached")
class TestCrashSpotCheck:
    """Crash the server at several points inside a put_many and verify
    the recovered media never lies: every object whose durable flag
    survived must pass CRC (the doorbell batch must not let a torn
    value masquerade as durable)."""

    @pytest.mark.parametrize("crash_after_ns", [3_000, 6_000, 12_000, 25_000])
    def test_durable_flags_honest_after_crash(self, crash_after_ns):
        env = Environment()
        setup = small_store("efactory", env, **BATCHED)
        c = setup.client()
        items = _items(16)

        def driver():
            try:
                yield from c.put_many(items)
            except (QPError, RpcFault, StoreError):
                pass

        proc = env.process(driver())
        env.run(until=env.now + crash_after_ns)
        setup.server.stop()
        setup.fabric.crash_node(
            setup.server.node, np.random.default_rng(7), evict_probability=0.5
        )
        setup.fabric.restart_node(setup.server.node)
        # Drain the aftermath: the client proc may stay blocked forever
        # on a response the dead server will never send — that's fine,
        # we only need in-flight WRITE failures to resolve.
        env.run(until=env.now + 500_000)

        env.run(env.process(recover_bucketized(setup.server)))
        for part in setup.server.partitions:
            for pool in part.pools:
                for alloc in pool.allocations:
                    loc = Slot(
                        pool=pool.pool_id, offset=alloc.offset, size=alloc.size
                    )
                    img = part.read_object(loc)
                    if img.well_formed and img.valid and img.durable:
                        assert value_intact(img), (
                            f"torn-but-durable object at {crash_after_ns}ns "
                            f"(pool {pool.pool_id} off {alloc.offset})"
                        )
