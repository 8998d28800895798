"""The self-healing integrity tier (PR 8): per-stripe parity + checksum
ledger let the scrubber rebuild a rotten durable head *in place* —
keeping the newest acked version — instead of rolling back or clearing.
Its integrity tree adds end-to-end detection on the cache-warm 1-READ
GET path."""

import pytest

from repro.core.config import DEFAULT_PARITY_STRIPE_KB
from repro.integrity import ABSENT_TIER, PARITY_PAGE, PartitionIntegrity, PoolIntegrity
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import HEADER_SIZE
from repro.stores import STORES
from tests.conftest import run1, small_store
from tests.harness.cells import BenchSpec, bench_cell

#: Scrubber + the integrity tier at the shipped defaults.
PARITY = {
    "scrub_interval_ns": 2_000.0,
    "parity_stripe_kb": 4,
}


def _key(i):
    return f"integ-{i:010d}".encode()


def _head_loc(setup, key, part_id=0):
    part = setup.server.partitions[part_id]
    entry_off = part.table.find(key_fingerprint(key))
    assert entry_off is not None
    cur = part.table.read_cur(entry_off)
    assert cur is not None
    return part, cur


def _corrupt_value(setup, key, part_id=0):
    """Flip one bit in ``key``'s head value; returns the stripe index."""
    part, cur = _head_loc(setup, key, part_id)
    pool = part.pools[cur.pool]
    addr = pool.abs_addr(cur.offset) + HEADER_SIZE + len(key)
    setup.server.device.buffer.corrupt(addr, "bitflip")
    stripe_bytes = setup.server.config.parity_stripe_kb * 1024
    return (cur.pool, (cur.offset + HEADER_SIZE + len(key)) // stripe_bytes)


def _settle(env, ns=800_000):
    env.run(until=env.now + ns)


def _wait_for_scrub(env, setup, field, deadline_ns=80_000_000):
    scrubber = setup.server.partitions[0].scrubber
    deadline = env.now + deadline_ns
    while env.now < deadline and scrubber.stats()[field] == 0:
        env.run(until=env.now + 1_000_000)
    return scrubber.stats()


def _end_of_pools(server):
    """Device bytes the table and every partition's pools take."""
    last = server.partitions[-1].pools[-1]
    return -(-(last.base + last.size) // 4096) * 4096


class TestConfig:
    def test_defaults_off(self, env):
        """Off is an absent layer: every partition holds the one
        stateless absent tier and the device carries no parity region."""
        setup = small_store("efactory", env, num_partitions=2)
        server = setup.server
        assert server.config.parity_stripe_kb == 0
        assert all(p.integrity is ABSENT_TIER for p in server.partitions)
        assert server.device.buffer.size == _end_of_pools(server)
        assert "integrity" not in server.metrics()

    def test_parity_on_attaches_the_tier(self, env):
        setup = small_store("efactory", env, num_partitions=2, parity_stripe_kb=4)
        server = setup.server
        tiers = [p.integrity for p in server.partitions]
        assert all(type(t) is PartitionIntegrity for t in tiers)
        assert tiers[0] is not tiers[1]
        assert server.device.buffer.size > _end_of_pools(server)
        assert "integrity" in server.metrics()

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_the_absent_tier_schedules_nothing(self, env, store):
        """Without parity, settling, flushing and rebuilding the tier
        are generators that yield no event."""
        setup = small_store(store, env)
        part = setup.server.partitions[0]
        loc = Slot(pool=0, offset=0, size=HEADER_SIZE)
        before = env.events_scheduled
        for gen in (
            part.integrity.settle_batch([(loc, None)]),
            part.integrity.flush(),
            part.integrity.rebuild(),
        ):
            assert list(gen) == []
        assert env.events_scheduled == before
        assert part.integrity.stats() == {}
        assert not part.integrity.covered(loc)


class TestParityMath:
    """PoolIntegrity against a raw device window (no store)."""

    def _pool(self, env):
        from repro.kv.logpool import LogPool
        from repro.nvm.device import NVMDevice

        device = NVMDevice(env, 64 << 10)
        # data window [0, 32K), integrity regions carved after it
        pool = LogPool(device, base=0, size=32 << 10)
        return pool, PoolIntegrity(device, pool, 4096, 32 << 10)

    def test_reconstruct_single_fault(self, env):
        pool, pi = self._pool(env)
        a = bytes(range(64)) * 2
        b = bytes(reversed(range(64))) * 2
        pool.write(0, a)
        pool.write(2048, b)  # same 4K stripe, same parity columns
        pi.cover(0, a)
        pi.cover(2048, b)
        pool.write(0, b"\x00" * 128)  # destroy a entirely
        assert pi.reconstruct(0, 128, lambda raw: raw == a) == a

    def test_multi_fault_same_stripe_fails(self, env):
        pool, pi = self._pool(env)
        a, b = b"A" * 128, b"B" * 128
        pool.write(0, a)
        pool.write(2048, b)
        pi.cover(0, a)
        pi.cover(2048, b)
        pool.write(0, b"\x00" * 128)
        pool.write(2048, b"\x00" * 128)
        assert pi.reconstruct(0, 128, lambda raw: raw == a) is None

    def test_different_stripes_are_independent(self, env):
        pool, pi = self._pool(env)
        a, b = b"A" * 128, b"B" * 128
        pool.write(0, a)
        pool.write(4096, b)  # next stripe
        pi.cover(0, a)
        pi.cover(4096, b)
        pool.write(0, b"\x00" * 128)
        pool.write(4096, b"\x00" * 128)
        assert pi.reconstruct(0, 128, lambda raw: raw == a) == a
        assert pi.reconstruct(4096, 128, lambda raw: raw == b) == b

    def test_mutation_keeps_parity_current(self, env):
        pool, pi = self._pool(env)
        a = b"A" * 128
        pool.write(0, a)
        pi.cover(0, a)
        old = bytes(pool.read(8, 8))
        pool.write(8, b"XYZWXYZW")  # in-place field update
        pi.mutate(0, 8, old)
        expect = bytes(pool.read(0, 128))
        pool.write(0, b"\x00" * 128)
        assert pi.reconstruct(0, 128, lambda raw: raw == expect) == expect

    def test_page_column_mapping(self):
        # byte at pool offset o lands in parity column o % PARITY_PAGE
        assert PARITY_PAGE == 256


class TestReconstructingRepair:
    def test_single_fault_head_rebuilt_in_place(self, env):
        """The PR-8 acceptance bar: a single-fault-per-stripe corruption
        of a durable head is repaired by reconstruction — the *newest*
        version survives; no rollback, no cleared key."""
        setup = small_store("efactory", env, **PARITY)
        c = setup.client()
        v1, v2 = b"A" * 64, b"B" * 64

        run1(env, c.put(_key(0), v1))
        _settle(env)
        run1(env, c.put(_key(0), v2))
        _settle(env)

        _corrupt_value(setup, _key(0))
        stats = _wait_for_scrub(env, setup, "reconstructed")
        assert stats["reconstructed"] >= 1
        assert stats["repaired"] == 0  # no rollback
        assert stats["unrepairable"] == 0  # no cleared key
        got = run1(env, c.get(_key(0), size_hint=64))
        assert got == v2  # the newest version, rebuilt in place

    def test_every_stripe_single_fault_all_reconstructed(self, env):
        """Seeded sweep: one corruption per distinct stripe, across many
        keys — every one must come back by reconstruction."""
        setup = small_store("efactory", env, **PARITY)
        c = setup.client()
        # Values must never equal freshly-zeroed pool bytes (an all-zero
        # value "verifies" before the WRITE even lands); 160-byte values
        # also spread the log across several 4K stripes.
        values = {i: bytes([i + 1]) * 160 for i in range(24)}

        def load():
            for i, v in values.items():
                yield from c.put(_key(i), v)

        run1(env, load())
        _settle(env, 3_000_000)

        hit_stripes, corrupted = set(), []
        for i in values:
            part, cur = _head_loc(setup, _key(i))
            stripe = (cur.pool, (cur.offset + HEADER_SIZE + 16) // 4096)
            if stripe in hit_stripes:
                continue  # one fault per stripe only
            hit_stripes.add(stripe)
            _corrupt_value(setup, _key(i))
            corrupted.append(i)
        assert len(corrupted) >= 2  # the sweep spans several stripes

        deadline = env.now + 120_000_000
        scrubber = setup.server.partitions[0].scrubber
        while (
            env.now < deadline
            and scrubber.stats()["reconstructed"] < len(corrupted)
        ):
            env.run(until=env.now + 1_000_000)
        stats = scrubber.stats()
        assert stats["reconstructed"] == len(corrupted)
        assert stats["repaired"] == 0
        assert stats["unrepairable"] == 0
        for i in corrupted:
            assert run1(env, c.get(_key(i), size_hint=160)) == values[i]

    def test_multi_fault_stripe_falls_back_to_rollback(self, env):
        """Two faults in one stripe *on the same parity column* defeat
        single parity: the scrubber escalates to the PR-6 version
        rollback instead of serving rot."""
        setup = small_store("efactory", env, **PARITY)
        c = setup.client()
        v1a, v1b = b"C" * 160, b"D" * 160
        v2 = b"E" * 160

        run1(env, c.put(_key(50), v1a))
        _settle(env)
        run1(env, c.put(_key(50), v1b))
        _settle(env)
        run1(env, c.put(_key(51), v2))
        _settle(env)

        part, head1 = _head_loc(setup, _key(50))
        _p, head2 = _head_loc(setup, _key(51))
        # 216-byte objects round to 256-byte slots, so the two heads sit
        # exactly one PARITY_PAGE apart: value byte j occupies the same
        # parity column in both. Two same-column faults in one stripe
        # are un-reconstructible from single parity.
        assert (head1.offset - head2.offset) % 256 == 0
        assert head1.offset // 4096 == head2.offset // 4096
        pool = part.pools[head1.pool]
        for head in (head1, head2):
            setup.server.device.buffer.corrupt(
                pool.abs_addr(head.offset) + HEADER_SIZE + 16 + 10, "bitflip"
            )

        stats = _wait_for_scrub(env, setup, "parity_stale")
        assert stats["parity_stale"] >= 1  # reconstruction was tried
        # key 50 rolled back to its intact older version; key 51 had no
        # older version left and was cleared (loud miss, never rot).
        deadline = env.now + 80_000_000
        scrubber = setup.server.partitions[0].scrubber
        while env.now < deadline and scrubber.stats()["repaired"] == 0:
            env.run(until=env.now + 1_000_000)
        stats = scrubber.stats()
        assert stats["repaired"] >= 1
        assert run1(env, c.get(_key(50), size_hint=160)) == v1a


class TestIntegrityTree:
    def test_warm_cache_get_detects_rot_end_to_end(self, env):
        """With the tier on, a cache-warm 1-READ GET re-validates the
        image against the ledger: rotten bytes are rejected client-side
        instead of being returned."""
        setup = small_store(
            "efactory", env, loc_cache_size=64,
            parity_stripe_kb=4,
        )
        c = setup.client()
        run1(env, c.put(_key(70), b"E" * 64))
        _settle(env)
        assert run1(env, c.get(_key(70), size_hint=64)) == b"E" * 64

        _corrupt_value(setup, _key(70))
        run1(env, c.get(_key(70), size_hint=64))
        assert c.tree_rejects >= 1  # detected on the 1-READ path
        assert c.read_stats()["tree_rejects"] == c.tree_rejects

    def test_intact_warm_gets_pass_the_tree(self, env):
        setup = small_store(
            "efactory", env, loc_cache_size=64,
            parity_stripe_kb=4,
        )
        c = setup.client()
        run1(env, c.put(_key(71), b"F" * 64))
        _settle(env)
        for _ in range(4):
            assert run1(env, c.get(_key(71), size_hint=64)) == b"F" * 64
        assert c.tree_rejects == 0
        assert c.cache_hits >= 4

    def test_the_stripe_size_alone_turns_the_tree_on(self, env):
        """``parity_stripe_kb > 0`` is the whole switch: no second knob
        is needed for warm GETs to be checked against the ledger."""
        setup = small_store("efactory", env, loc_cache_size=64, parity_stripe_kb=4)
        c = setup.client()
        run1(env, c.put(_key(72), b"G" * 64))
        _settle(env)
        for _ in range(3):
            assert run1(env, c.get(_key(72), size_hint=64)) == b"G" * 64
        assert setup.server.metrics()["integrity"]["tree_checks"] > 0


class TestGarbageAccounting:
    """Satellite 1 regression: retired rot must be charged as garbage so
    the cleaning trigger eventually reclaims it (it used to sit outside
    the trigger forever)."""

    def test_retired_rot_charges_garbage(self, env):
        setup = small_store("efactory", env, scrub_interval_ns=2_000.0)
        c = setup.client()
        run1(env, c.put(_key(80), b"G" * 64))
        _settle(env)
        part, cur = _head_loc(setup, _key(80))
        pool = part.pools[cur.pool]
        assert pool.garbage_bytes == 0
        setup.server.device.buffer.corrupt(
            pool.abs_addr(cur.offset) + HEADER_SIZE + 16, "bitflip"
        )
        stats = _wait_for_scrub(env, setup, "unrepairable")
        assert stats["unrepairable"] >= 1
        assert pool.garbage_bytes >= cur.size

    def test_garbage_feeds_the_cleaning_trigger(self, env):
        setup = small_store("efactory", env)
        pool = setup.server.partitions[0].pools[0]
        assert not pool.needs_cleaning()
        pool.add_garbage(int(pool.size * pool.reserve_fraction) + 64)
        assert pool.needs_cleaning()
        pool.reset()
        assert pool.garbage_bytes == 0


class TestCleaningMigration:
    """Satellite 3: an entry migrated by log cleaning (old copy carries
    FLAG_TRANS) that is hit by bitrot at its *new* home must be repaired
    there on the next scrubber lap."""

    def test_mid_migration_rot_repaired_at_new_home(self, env):
        setup = small_store("efactory", env, **PARITY)
        server = setup.server
        c = setup.client()
        values = {i: bytes([64 + i]) * 64 for i in range(12)}

        def load():
            for i, v in values.items():
                yield from c.put(_key(90 + i), v)

        run1(env, load())
        _settle(env, 3_000_000)

        part = server.partitions[0]
        old_wp = part.write_pool_id
        new_pool_id = 1 - old_wp
        proc = server.trigger_cleaning()
        assert proc is not None
        # Pause mid-cycle: at least one object moved, cycle not finished.
        deadline = env.now + 50_000_000
        while env.now < deadline and part.cleaner.stats.moved < 1:
            env.run(until=env.now + 10_000)
        assert part.cleaner.stats.moved >= 1

        # Rot the freshly-moved copy at its new home.
        new_pool = part.pools[new_pool_id]
        moved = new_pool.allocations[0]
        setup.server.device.buffer.corrupt(
            new_pool.abs_addr(moved.offset) + HEADER_SIZE + 16 + 5, "bitflip"
        )

        env.run(proc)  # let the cleaning cycle finish
        stats = _wait_for_scrub(env, setup, "reconstructed")
        assert stats["reconstructed"] >= 1
        assert stats["unrepairable"] == 0
        for i, v in values.items():
            assert run1(env, c.get(_key(90 + i), size_hint=64)) == v


class TestRecoveryRebuild:
    def test_parity_rebuilt_after_crash_still_reconstructs(self, env):
        """Crash + recover wipes nothing: the rebuilt parity/ledger must
        keep reconstructing post-recovery rot."""
        import numpy as np

        from repro.core.recovery import recover_bucketized

        setup = small_store("efactory", env, **PARITY)
        c = setup.client()
        run1(env, c.put(_key(99), b"H" * 64))
        _settle(env)

        server = setup.server
        server.stop()
        setup.fabric.crash_node(server.node, np.random.default_rng(3), 0.0)
        setup.fabric.restart_node(server.node)
        run1(env, recover_bucketized(server))
        server.start()
        integ = server.partitions[0].integrity
        assert integ is not None and integ.rebuilds >= 1

        _corrupt_value(setup, _key(99))
        stats = _wait_for_scrub(env, setup, "reconstructed")
        assert stats["reconstructed"] >= 1
        assert run1(env, c.get(_key(99), size_hint=64)) == b"H" * 64


class TestPutOverhead:
    def test_parity_put_overhead_within_budget(self):
        """192 sequential 64 B PUTs with the tier off vs on: parity,
        ledger and tree ride the background verifier, so the acked-PUT
        path loses at most 15% of its simulated throughput (none,
        measured) while the extra background work is really done."""
        off = bench_cell(BenchSpec(bench="put", ops=192, value_len=64))
        on = bench_cell(
            BenchSpec(
                bench="put", ops=192, value_len=64,
                config_overrides={"parity_stripe_kb": DEFAULT_PARITY_STRIPE_KB},
            )
        )
        assert on["ops_per_sec"] >= 0.85 * off["ops_per_sec"], (off, on)
        assert on["events_processed"] > off["events_processed"]
