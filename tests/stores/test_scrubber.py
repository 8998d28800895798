"""The online scrubber: latent media rot on a durable-flagged head is
found by CRC re-verification and repaired by version-list rollback —
the hole eFactory's durability-flag shortcut leaves open."""

import pytest

from repro.errors import StoreError
from repro.kv.hashtable import Slot, key_fingerprint
from repro.kv.objects import HEADER_SIZE
from tests.conftest import run1, small_store

SCRUB = {"scrub_interval_ns": 2_000.0}


def _key(i):
    return f"scrub-{i:010d}".encode()


def _head_value_addr(setup, key):
    """Device address of the first value byte of ``key``'s head object."""
    part = setup.server.partitions[0]
    entry_off = part.table.find(key_fingerprint(key))
    assert entry_off is not None
    cur = part.table.read_cur(entry_off)
    assert cur is not None
    return part.pools[cur.pool].abs_addr(cur.offset) + HEADER_SIZE + len(key)


def _settle(env, setup, ns=800_000):
    env.run(until=env.now + ns)


def _wait_for_scrub(env, setup, field, deadline_ns=80_000_000):
    server = setup.server
    deadline = env.now + deadline_ns
    while env.now < deadline and server.metrics()["scrubber"][field] == 0:
        env.run(until=env.now + 1_000_000)
    return server.metrics()["scrubber"]


class TestRepair:
    def test_bitrot_on_head_rolls_back_to_previous_version(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()
        v1, v2 = b"A" * 64, b"B" * 64

        run1(env, c.put(_key(0), v1))
        _settle(env, setup)  # v1 durable
        run1(env, c.put(_key(0), v2))
        _settle(env, setup)  # v2 durable — the trusted head

        setup.server.device.corrupt(_head_value_addr(setup, _key(0)), "bitflip")
        stats = _wait_for_scrub(env, setup, "repaired")
        assert stats["corrupt_found"] >= 1
        assert stats["repaired"] >= 1
        assert stats["unrepairable"] == 0

        got = run1(env, c.get(_key(0), size_hint=64))
        assert got == v1  # rolled back — never the torn bytes

    def test_rot_with_no_intact_version_clears_the_key(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()

        run1(env, c.put(_key(1), b"C" * 64))
        _settle(env, setup)

        setup.server.device.corrupt(_head_value_addr(setup, _key(1)), "bitflip")
        stats = _wait_for_scrub(env, setup, "unrepairable")
        assert stats["unrepairable"] >= 1
        # a cleared key is a loud miss, not silently served rot
        with pytest.raises(StoreError):
            run1(env, c.get(_key(1), size_hint=64))

    def test_rot_in_the_slot_word_is_handled_not_raised(self, env):
        """A rotten ``cur`` word whose offset lies outside the pool fails
        ``LogPool.abs_addr`` (``PoolExhaustedError``), not the device's
        bounds check; the scrubber used to die of it mid-lap."""
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()

        run1(env, c.put(_key(2), b"D" * 64))
        _settle(env, setup)

        part = setup.server.partitions[0]
        entry_off = part.table.find(key_fingerprint(_key(2)))
        cur = part.table.read_cur(entry_off)
        outside = part.pools[cur.pool].size + 4096
        part.table.set_cur(entry_off, Slot(cur.pool, cur.size, outside))

        stats = _wait_for_scrub(env, setup, "unrepairable")
        assert stats["corrupt_found"] >= 1
        assert stats["unrepairable"] >= 1
        with pytest.raises(StoreError):
            run1(env, c.get(_key(2), size_hint=64))

    def test_intact_store_scrubs_clean(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()

        def work():
            for i in range(8):
                yield from c.put(_key(10 + i), bytes([i]) * 64)

        run1(env, work())
        _settle(env, setup)
        _wait_for_scrub(env, setup, "scrubbed")
        stats = setup.server.metrics()["scrubber"]
        assert stats["scrubbed"] >= 1
        assert stats["corrupt_found"] == 0


class TestWiring:
    def test_disabled_by_default(self, env):
        setup = small_store("efactory", env)
        assert setup.server.config.scrub_interval_ns == 0.0
        assert not any(p.scrubber.active for p in setup.server.partitions)

    def test_metrics_expose_scrub_counters(self, env):
        setup = small_store("efactory", env, **SCRUB)
        metrics = setup.server.metrics()
        assert set(metrics["scrubber"]) == {
            "scrubbed", "corrupt_found", "repaired", "unrepairable",
            "reconstructed", "parity_stale", "replica_fetched",
        }
        assert "verifier" in metrics and "cleaner" in metrics

    def test_partitioned_scrubbers_cover_all_partitions(self, env):
        setup = small_store("efactory", env, num_partitions=4, **SCRUB)
        c = setup.client()

        def work():
            for i in range(16):
                yield from c.put(_key(30 + i), bytes([i]) * 64)

        run1(env, work())
        _settle(env, setup)
        _wait_for_scrub(env, setup, "scrubbed")
        scrubbers = {id(p.scrubber): p.scrubber for p in setup.server.partitions}
        assert len(scrubbers) == 4
        assert all(sc.active for sc in scrubbers.values())
