"""The coalesced background verifier (bg_batch > 1): same persisted
outcome as the polling thread (bg_batch == 1), with batch/flush/wakeup
accounting."""

from repro.core import EFactoryClient, EFactoryServer
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store


def _key(i: int) -> bytes:
    return f"key-{i:012d}".encode()


def _run_ingest(bg_batch: int, n: int = 24):
    env = Environment()
    setup = small_store("efactory", env, bg_batch=bg_batch)
    c = setup.client()
    items = [(_key(i), bytes([i]) * 64) for i in range(n)]

    def work():
        for key, value in items:
            yield from c.put(key, value)

    run1(env, work())
    env.run(until=env.now + 3_000_000)
    return env, setup, c, items


class TestEquivalence:
    def test_same_persisted_set_as_unbatched(self):
        """Every object the poll loop persists, the batched loop
        persists too — durability must not depend on the ablation."""
        results = {}
        for bg_batch in (1, 8):
            env, setup, c, items = _run_ingest(bg_batch)
            stats = setup.server.metrics()["verifier"]
            assert stats["persisted"] == len(items)
            assert stats["backlog"] == 0

            def check():
                out = []
                for key, value in items:
                    out.append((yield from c.get(key, size_hint=64)) == value)
                return out

            assert all(run1(env, check()))
            # All post-settle reads were pure one-sided reads: the
            # durability flags really are set on media.
            results[bg_batch] = c.read_stats()["pure"]
        assert results[1] == results[8] == 24

    def test_timeout_invalidation_still_works(self, monkeypatch):
        """An allocation whose WRITE never arrives is still invalidated
        by the batched loop (retry bookkeeping is shared)."""
        monkeypatch.setattr(EFactoryServer, "verify_timeout_ns", 30_000.0)
        env = Environment()
        setup = small_store("efactory", env, bg_batch=8)
        c = setup.client()

        def work():
            # Allocate but never write the value (client death).
            return (yield from c.alloc_rpc(_key(0), 64, 0xBAD))

        run1(env, work())
        env.run(until=env.now + 400_000)
        assert setup.server.metrics()["verifier"]["invalidated"] == 1


class TestAccounting:
    def test_batch_counters_present_and_used(self, monkeypatch):
        """A put_many burst lands adjacent allocations close together:
        the batched verifier must gather them into multi-object passes
        with coalesced flush runs."""
        monkeypatch.setattr(EFactoryClient, "put_batch", 8)
        env = Environment()
        setup = small_store("efactory", env, bg_batch=8)
        c = setup.client()
        items = [(_key(i), bytes([i]) * 64) for i in range(24)]
        run1(env, c.put_many(items))
        env.run(until=env.now + 3_000_000)
        stats = setup.server.metrics()["verifier"]
        assert stats["persisted"] == len(items)
        assert stats["batches"] >= 1
        assert stats["wakeups"] >= 1
        assert stats["coalesced_flushes"] >= 1
        # Batching amortizes: far fewer passes than objects.
        assert stats["batches"] < len(items)

    def test_unbatched_reports_zero_batches(self):
        """At ``bg_batch == 1`` every pass that finds work is a
        one-object batch: it counts, but nothing coalesces and no
        wakeup fires (the idle thread polls)."""
        env, setup, _c, _items = _run_ingest(bg_batch=1)
        stats = setup.server.metrics()["verifier"]
        assert stats["batches"] == (
            stats["persisted"] + stats["skipped"]
            + stats["invalidated"] + stats["requeued"]
        )
        assert stats["batches"] > 0
        assert stats["coalesced_flushes"] == 0
        assert stats["wakeups"] == 0

    def test_counters_surface_in_server_metrics(self):
        env, setup, _c, _items = _run_ingest(bg_batch=8)
        verifier = setup.server.metrics()["verifier"]
        for key in ("batches", "coalesced_flushes", "wakeups"):
            assert key in verifier
