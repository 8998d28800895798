"""Post-crash recovery: pool scans, version rollback, Erda's two-slot
recovery, durable-flag trust."""

import numpy as np
import pytest

from repro.core.recovery import recover_bucketized, recover_erda, scan_pool
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.kv.hashtable import key_fingerprint
from repro.kv.objects import HEADER_SIZE
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.keyspace import make_value, parse_value
from tests.conftest import run1, small_store


def _key(i):
    return f"key-{i:012d}".encode()


def _crash(setup, seed=0, evict=0.5):
    setup.server.stop()
    setup.fabric.crash_node(
        setup.server.node, np.random.default_rng(seed), evict
    )
    setup.fabric.restart_node(setup.server.node)


class TestScanPool:
    def test_rebuilds_journal_from_headers(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(6):
                yield from c.put(_key(i), bytes([i]) * 64)

        run1(env, work())
        env.run(until=env.now + 500_000)
        pool = setup.server.partitions[0].pools[0]
        expected = [(a.offset, a.size) for a in pool.allocations]
        _crash(setup, evict=1.0)  # keep everything for a clean scan
        scanned = scan_pool(pool)
        assert [(a.offset, a.size) for a in scanned] == expected

    def test_scan_stops_at_torn_header(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(3):
                yield from c.put(_key(i), bytes([i]) * 64)

        run1(env, work())
        env.run(until=env.now + 500_000)
        pool = setup.server.partitions[0].pools[0]
        # corrupt the second object's magic
        second = pool.allocations[1]
        pool.write(second.offset, b"\xff\xff")
        assert len(scan_pool(pool)) == 1


class TestBucketizedRecovery:
    def test_all_durable_objects_recovered(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(10):
                yield from c.put(_key(i), make_value(i, 1, 64))

        run1(env, work())
        env.run(until=env.now + 800_000)  # all durable
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_bucketized(setup.server)))
        assert report.keys_recovered == 10
        assert report.keys_lost == 0
        assert report.pool_heads[0] > 0

    def test_torn_head_rolls_back_to_previous(self, env):
        setup = small_store("efactory", env)
        server = setup.server
        c = setup.client()

        def work():
            yield from c.put(_key(1), make_value(1, 1, 64))
            yield env.timeout(500_000)  # v1 durable
            # v2: allocate but never deliver the value (torn write)
            yield from c.alloc_rpc(_key(1), 64, 0xBAD)

        run1(env, work())
        # crash before the background timeout hits
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_bucketized(server)))
        assert report.keys_rolled_back == 1
        found = server.lookup_slot(_key(1))
        img = server.partition_for_key(_key(1)).read_object(found[1])
        assert parse_value(img.value) == (1, 1)

    def test_never_durable_key_cleared(self, env):
        setup = small_store("efactory", env)
        server = setup.server
        c = setup.client()

        def work():
            yield from c.alloc_rpc(_key(7), 64, 0xBAD)  # value never sent

        run1(env, work())
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_bucketized(server)))
        assert report.keys_lost == 1
        found = server.lookup_slot(_key(7))
        assert found is None or found[1] is None

    def test_durable_flag_short_circuits_crc(self, env):
        """Recovery trusts an on-media durability flag (flag is only
        flushed after the value, so it can't lie)."""
        setup = small_store("imm", env)
        c = setup.client()

        def work():
            yield from c.put(_key(3), make_value(3, 1, 64))

        run1(env, work())
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_bucketized(setup.server)))
        # IMM stores no CRC (crc=0); only flag trust can recover it
        assert report.keys_recovered == 1

    def test_recovery_idempotent(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(5):
                yield from c.put(_key(i), make_value(i, 1, 64))

        run1(env, work())
        env.run(until=env.now + 800_000)
        _crash(setup, evict=0.0)
        r1 = env.run(env.process(recover_bucketized(setup.server)))
        r2 = env.run(env.process(recover_bucketized(setup.server)))
        assert r1.keys_recovered == r2.keys_recovered == 5
        assert r2.keys_lost == 0

    def test_recovery_charges_time(self, env):
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            for i in range(5):
                yield from c.put(_key(i), make_value(i, 1, 64))

        run1(env, work())
        env.run(until=env.now + 800_000)
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_bucketized(setup.server)))
        assert report.duration_ns > 0


class TestErdaRecovery:
    def test_intact_entries_survive(self, env):
        setup = small_store("erda", env)
        server = setup.server
        c = setup.client()

        def work():
            for i in range(6):
                yield from c.put(_key(i), make_value(i, 1, 64))

        run1(env, work())
        # force everything durable (as if naturally evicted over time)
        server.device.buffer.flush_all()
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_erda(server)))
        assert report.keys_recovered == 6

    def test_torn_latest_rolls_to_off2(self, env):
        setup = small_store("erda", env)
        server = setup.server
        c = setup.client()

        def work():
            yield from c.put(_key(2), make_value(2, 1, 64))

        run1(env, work())
        server.device.buffer.flush_all()  # v1 fully durable

        def work2():
            yield from c.put(_key(2), make_value(2, 2, 64))

        run1(env, work2())
        # flush only metadata region (the table), not v2's data
        server.device.buffer.flush(0, server.partitions[0].table.table_bytes)
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_erda(server)))
        assert report.keys_rolled_back == 1
        found = server.partitions[0].table.lookup(key_fingerprint(_key(2)))
        assert found[1].off1 is not None

    def test_unrecoverable_key_cleared(self, env):
        setup = small_store("erda", env)
        server = setup.server
        c = setup.client()

        def work():
            yield from c.put(_key(4), make_value(4, 1, 64))

        run1(env, work())
        # persist the index but none of the data
        server.device.buffer.flush(0, server.partitions[0].table.table_bytes)
        _crash(setup, evict=0.0)
        report = env.run(env.process(recover_erda(server)))
        assert report.keys_lost == 1
        found = server.partitions[0].table.lookup(key_fingerprint(_key(4)))
        assert found is None or found[1].off1 is None

    def test_partition_filtered_step_rule_matches(self):
        """Erda's index is partition 0, so its recovery steps fire
        ``recovery.step`` for partition 0 and a rule filtered to it
        matches. ``pause`` validates against ``bg.*``: the ``*`` pattern
        is how a plan attaches one here, and the partition filter keeps
        it off every context-free site."""
        delay = 5_000.0

        def recovery(rule):
            env = Environment()
            setup = small_store("erda", env)
            server = setup.server

            def work():
                for i in range(4):
                    yield from setup.client().put(_key(i), make_value(i, 1, 64))

            run1(env, work())
            server.device.buffer.flush_all()
            _crash(setup, evict=0.0)
            injector = None
            if rule is not None:
                plan = FaultPlan("step-pause", (rule,))
                injector = FaultInjector(env, plan, RngRegistry(1))
                server.device.injector = injector
            report = env.run(env.process(recover_erda(server)))
            return report, injector

        base, _ = recovery(None)
        rule = FaultRule(kind="pause", site="*", partition=0, delay_ns=delay)
        paused, injector = recovery(rule)
        assert paused.keys_recovered == base.keys_recovered == 4
        assert paused.duration_ns == pytest.approx(base.duration_ns + 4 * delay)
        assert {(ev.site, ev.partition) for ev in injector.events} == {
            ("recovery.step", 0)
        }

    def test_wrong_table_type_rejected(self, env):
        setup = small_store("efactory", env)
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            env.run(env.process(recover_erda(setup.server)))
