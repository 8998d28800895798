"""Bucketized NVM hash table."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StoreError
from repro.kv.hashtable import (
    ENTRY_SIZE,
    HashTableGeometry,
    NvmHashTable,
    Slot,
    client_lookup_bucket,
    key_fingerprint,
)
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment


@pytest.fixture
def table(env):
    geom = HashTableGeometry(n_buckets=64, slots_per_bucket=4, probe_limit=4)
    device = NVMDevice(env, geom.table_bytes + 4096)
    return NvmHashTable(device, 0, geom)


class TestSlotPacking:
    def test_roundtrip(self):
        slot = Slot(pool=1, size=4096, offset=123456)
        assert Slot.unpack(slot.pack()) == slot

    def test_invalid_word_is_none(self):
        assert Slot.unpack(0) is None
        assert Slot.unpack(123456) is None  # valid bit clear

    def test_range_checks(self):
        with pytest.raises(StoreError):
            Slot(pool=2, size=0, offset=0).pack()
        with pytest.raises(StoreError):
            Slot(pool=0, size=1 << 22, offset=0).pack()
        with pytest.raises(StoreError):
            Slot(pool=0, size=0, offset=1 << 40).pack()

    @given(
        pool=st.integers(0, 1),
        size=st.integers(0, (1 << 22) - 1),
        offset=st.integers(0, (1 << 40) - 1),
    )
    def test_roundtrip_property(self, pool, size, offset):
        slot = Slot(pool=pool, size=size, offset=offset)
        assert Slot.unpack(slot.pack()) == slot


class TestGeometry:
    def test_sizes(self):
        g = HashTableGeometry(n_buckets=8, slots_per_bucket=4)
        assert g.bucket_bytes == 4 * ENTRY_SIZE
        assert g.table_bytes == 8 * 4 * ENTRY_SIZE

    def test_bucket_offset_wraps(self):
        g = HashTableGeometry(n_buckets=8)
        assert g.bucket_offset(9) == g.bucket_offset(1)

    def test_validation(self):
        with pytest.raises(StoreError):
            HashTableGeometry(n_buckets=0)


class TestFingerprint:
    def test_never_zero(self):
        assert key_fingerprint(b"") != 0
        assert key_fingerprint(b"anything") != 0

    def test_deterministic(self):
        assert key_fingerprint(b"k") == key_fingerprint(b"k")


class TestTableOps:
    def test_find_or_create_then_find(self, table):
        fp = key_fingerprint(b"alpha")
        off = table.find_or_create(fp)
        assert table.find(fp) == off
        assert table.find_or_create(fp) == off  # idempotent

    def test_find_missing(self, table):
        assert table.find(key_fingerprint(b"ghost")) is None

    def test_slot_lifecycle(self, table):
        fp = key_fingerprint(b"k")
        off = table.find_or_create(fp)
        assert table.read_cur(off) is None
        slot = Slot(pool=0, size=100, offset=640)
        table.set_cur(off, slot)
        assert table.read_cur(off) == slot
        table.clear_cur(off)
        assert table.read_cur(off) is None

    def test_promote_alt(self, table):
        fp = key_fingerprint(b"k")
        off = table.find_or_create(fp)
        old = Slot(pool=0, size=100, offset=0)
        new = Slot(pool=1, size=100, offset=64)
        table.set_cur(off, old)
        table.set_alt(off, new)
        table.promote_alt(off)
        assert table.read_cur(off) == new
        assert table.read_alt(off) is None

    def test_probe_overflow_raises(self, env):
        geom = HashTableGeometry(n_buckets=4, slots_per_bucket=1, probe_limit=1)
        table = NvmHashTable(NVMDevice(env, geom.table_bytes), 0, geom)
        # two fps landing in the same bucket exhaust its single slot
        fps = []
        fp = 1
        while len(fps) < 2:
            if fp % 4 == 0:
                fps.append(fp)
            fp += 1
        table.find_or_create(fps[0])
        with pytest.raises(StoreError, match="overflow"):
            table.find_or_create(fps[1])

    def test_iter_entries(self, table):
        for key in (b"a", b"b", b"c"):
            off = table.find_or_create(key_fingerprint(key))
            table.set_cur(off, Slot(pool=0, size=1, offset=0))
        entries = list(table.iter_entries())
        assert len(entries) == 3

    def test_persist_entry(self, table):
        fp = key_fingerprint(b"p")
        off = table.find_or_create(fp)
        table.set_cur(off, Slot(pool=0, size=8, offset=0))
        table.persist_entry(off)
        assert table.device.buffer.is_persistent(table.base + off, ENTRY_SIZE)


class TestClientLookup:
    def test_client_parses_what_server_wrote(self, table):
        fp = key_fingerprint(b"shared-key")
        off = table.find_or_create(fp)
        slot = Slot(pool=0, size=312, offset=1280)
        table.set_cur(off, slot)
        geom = table.geom
        bucket = geom.bucket_of(fp)
        raw = table.device.buffer.read(
            table.base + geom.bucket_offset(bucket), geom.bucket_bytes
        )
        found = client_lookup_bucket(raw, fp, geom)
        assert found is not None
        cur, alt = found
        assert cur == slot and alt is None

    def test_client_miss_returns_none(self, table):
        geom = table.geom
        raw = b"\x00" * geom.bucket_bytes
        assert client_lookup_bucket(raw, 12345, geom) is None

    def test_wrong_length_rejected(self, table):
        with pytest.raises(StoreError):
            client_lookup_bucket(b"\x00" * 10, 1, table.geom)
