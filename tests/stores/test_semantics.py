"""Per-scheme semantic differences: durability points, verification
placement, metadata publish ordering."""

import pytest

from repro.baselines.base import ObjectLocation
from repro.errors import CorruptObjectError, KeyNotFoundError
from repro.kv.hashtable import key_fingerprint
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-00000000sema"


def _object_loc(server, key):
    from repro.kv.hopscotch import HopscotchTable
    from repro.kv.objects import HEADER_SIZE, object_size, parse_header

    part = server.partition_for_key(key)
    if isinstance(part.table, HopscotchTable):
        found = part.table.lookup(key_fingerprint(key))
        assert found is not None and found[1].off1 is not None
        off = found[1].off1
        hdr = parse_header(part.pools[0].read(off, HEADER_SIZE))
        return ObjectLocation(
            pool=0, offset=off, size=object_size(hdr.klen, hdr.vlen)
        )
    found = server.lookup_slot(key)
    assert found is not None
    _, cur, _ = found
    return ObjectLocation(pool=cur.pool, offset=cur.offset, size=cur.size)


def _is_durable(server, key):
    loc = _object_loc(server, key)
    pool = server.partition_for_key(key).pools[loc.pool]
    return server.device.is_persistent(pool.abs_addr(loc.offset), loc.size)


class TestDurabilityPoint:
    @pytest.mark.parametrize("store", ["rpc", "saw", "imm"])
    def test_durable_when_put_returns(self, env, store):
        setup = small_store(store, env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"must-persist" * 4)

        run1(env, work())
        assert _is_durable(setup.server, KEY)

    @pytest.mark.parametrize("store", ["ca", "erda", "forca"])
    def test_not_durable_when_put_returns(self, env, store):
        setup = small_store(store, env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"still-volatile" * 4)

        run1(env, work())
        assert not _is_durable(setup.server, KEY)

    def test_efactory_durable_asynchronously(self, env):
        """eFactory's PUT returns before durability; the background
        thread persists shortly after (§4.3.2)."""
        setup = small_store("efactory", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"async-durable!" * 4)

        run1(env, work())
        assert not _is_durable(setup.server, KEY)  # ack preceded durability
        env.run(until=env.now + 200_000)  # let the background thread run
        assert _is_durable(setup.server, KEY)
        part = setup.server.partition_for_key(KEY)
        img = part.read_object(_object_loc(setup.server, KEY))
        assert img.durable  # flag set too


class TestMetadataPublishOrder:
    @pytest.mark.parametrize("store", ["saw", "imm"])
    def test_not_indexed_until_durable(self, env, store):
        """SAW/IMM update metadata only after the data is durable, so a
        reader never needs verification (§5.3.1/5.3.2)."""
        setup = small_store(store, env)
        c = setup.client()
        probe = {}

        def writer():
            yield from c.put(KEY, b"v" * 64)

        def prober():
            # between alloc and the durability point: ~6 us in
            yield env.timeout(6_000)
            found = setup.server.lookup_slot(KEY)
            # the fp may be claimed, but no version may be published
            probe["indexed_midway"] = found is not None and found[1] is not None

        env.process(prober())
        run1(env, writer())
        assert probe["indexed_midway"] is False
        found = setup.server.lookup_slot(KEY)
        assert found is not None and found[1] is not None

    @pytest.mark.parametrize("store", ["efactory", "ca", "forca"])
    def test_indexed_at_alloc(self, env, store):
        """Client-active schemes expose the entry before data arrives —
        that is exactly why they need verification machinery."""
        setup = small_store(store, env)
        c = setup.client()
        probe = {}

        def writer():
            yield from c.put(KEY, b"v" * 4096)

        def prober():
            yield env.timeout(5_500)  # after alloc RPC, before WRITE acks
            found = setup.server.lookup_slot(KEY)
            probe["indexed_midway"] = found is not None

        env.process(prober())
        run1(env, writer())
        assert probe["indexed_midway"] is True


class TestVerificationPlacement:
    def test_erda_detects_torn_value_and_rolls_back(self, env):
        """Corrupt the latest version in place: Erda's client CRC must
        reject it and serve the previous version."""
        setup = small_store("erda", env)
        c = setup.client()
        server = setup.server

        def work():
            yield from c.put(KEY, b"A" * 64)
            yield from c.put(KEY, b"B" * 64)
            # tear the latest version's value behind the index's back
            found = server.partitions[0].table.lookup(key_fingerprint(KEY))
            off1 = found[1].off1
            from repro.kv.objects import HEADER_SIZE

            server.partitions[0].pools[0].write(off1 + HEADER_SIZE + len(KEY), b"X" * 10)
            return (yield from c.get(KEY, size_hint=64))

        assert run1(env, work()) == b"A" * 64  # rolled back to previous

    def test_erda_both_versions_torn_is_unrecoverable(self, env):
        setup = small_store("erda", env)
        c = setup.client()
        server = setup.server

        def work():
            from repro.kv.objects import HEADER_SIZE

            yield from c.put(KEY, b"A" * 64)
            yield from c.put(KEY, b"B" * 64)
            found = server.partitions[0].table.lookup(key_fingerprint(KEY))
            for off in (found[1].off1, found[1].off2):
                server.partitions[0].pools[0].write(off + HEADER_SIZE + len(KEY), b"X" * 8)
            yield from c.get(KEY, size_hint=64)

        with pytest.raises(CorruptObjectError):
            run1(env, work())

    def test_erda_requires_size_hint(self, env):
        setup = small_store("erda", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"A" * 64)
            yield from c.get(KEY)

        from repro.errors import StoreError

        with pytest.raises(StoreError, match="size hint"):
            run1(env, work())

    def test_forca_persists_on_read_path(self, env):
        """Forca flushes the object while serving the GET (§5.3.4)."""
        setup = small_store("forca", env)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"F" * 64)
            assert not _is_durable(setup.server, KEY)
            yield from c.get(KEY, size_hint=64)

        run1(env, work())
        assert _is_durable(setup.server, KEY)

    def test_forca_rolls_back_past_torn_head(self, env):
        setup = small_store("forca", env)
        c = setup.client()
        server = setup.server

        def work():
            from repro.kv.objects import HEADER_SIZE

            yield from c.put(KEY, b"A" * 64)
            yield from c.put(KEY, b"B" * 64)
            loc = _object_loc(server, KEY)
            server.partitions[0].pools[0].write(
                loc.offset + HEADER_SIZE + len(KEY), b"X" * 8
            )
            return (yield from c.get(KEY, size_hint=64))

        assert run1(env, work()) == b"A" * 64

    def test_ca_returns_torn_data_blindly(self, env):
        """The unsafe baseline: no verification anywhere."""
        setup = small_store("ca", env)
        c = setup.client()
        server = setup.server

        def work():
            from repro.kv.objects import HEADER_SIZE

            yield from c.put(KEY, b"GOOD" * 16)
            loc = _object_loc(server, KEY)
            server.partitions[0].pools[0].write(loc.offset + HEADER_SIZE + len(KEY), b"EVIL")
            return (yield from c.get(KEY, size_hint=64))

        value = run1(env, work())
        assert value.startswith(b"EVIL")  # served without complaint
