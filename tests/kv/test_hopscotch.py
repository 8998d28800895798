"""Hopscotch table and Erda's two-version atomic region."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StoreError
from repro.kv.hopscotch import (
    ERDA_ENTRY_SIZE,
    ERDA_GRANULE,
    HopscotchTable,
    TwoVersions,
    client_scan_neighborhood,
)
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment


@pytest.fixture
def table(env):
    t = HopscotchTable(NVMDevice(env, 1 << 16), 0, n_buckets=256, H=8)
    return t


class TestTwoVersions:
    def test_roundtrip(self):
        region = TwoVersions(off1=160, off2=320, tag=5)
        assert TwoVersions.unpack(region.pack()) == region

    def test_none_encoding(self):
        region = TwoVersions(off1=None, off2=None, tag=0)
        assert TwoVersions.unpack(region.pack()) == region
        assert region.pack() == 0

    def test_offset_zero_is_representable(self):
        region = TwoVersions(off1=0, off2=None)
        assert TwoVersions.unpack(region.pack()).off1 == 0

    def test_push_shifts_versions(self):
        r0 = TwoVersions(off1=None, off2=None, tag=0)
        r1 = r0.push(64)
        r2 = r1.push(128)
        assert (r2.off1, r2.off2) == (128, 64)
        r3 = r2.push(192)
        assert (r3.off1, r3.off2) == (192, 128)  # 64 fell off: only two

    def test_tag_wraps(self):
        r = TwoVersions(off1=None, off2=None, tag=255).push(16)
        assert r.tag == 0

    def test_misaligned_offset_rejected(self):
        with pytest.raises(StoreError):
            TwoVersions(off1=17, off2=None).pack()

    @given(
        off1=st.one_of(st.none(), st.integers(0, 1 << 20).map(lambda x: x * 16)),
        off2=st.one_of(st.none(), st.integers(0, 1 << 20).map(lambda x: x * 16)),
        tag=st.integers(0, 255),
    )
    def test_roundtrip_property(self, off1, off2, tag):
        region = TwoVersions(off1=off1, off2=off2, tag=tag)
        assert TwoVersions.unpack(region.pack()) == region


class TestHopscotch:
    def test_insert_lookup(self, table):
        region = table.insert_or_update(1234, 160)
        assert region.off1 == 160 and region.off2 is None
        found = table.lookup(1234)
        assert found is not None and found[1].off1 == 160

    def test_update_pushes_version(self, table):
        table.insert_or_update(1234, 160)
        region = table.insert_or_update(1234, 320)
        assert (region.off1, region.off2) == (320, 160)

    def test_lookup_missing(self, table):
        assert table.lookup(999) is None

    def test_entries_stay_in_neighborhood(self, table):
        """Insert colliding keys; every entry must remain within H of
        its home bucket (the hopscotch invariant clients rely on)."""
        home = 10
        fps = [home + k * table.n_buckets for k in range(1, table.H + 1)]
        for i, fp in enumerate(fps):
            table.insert_or_update(fp, i * 16)
        for fp in fps:
            found = table.lookup(fp)
            assert found is not None
            idx, _ = found
            assert 0 <= idx - table.home_of(fp) < table.H

    def test_displacement_moves_blockers(self, env):
        """Fill a neighborhood, then insert keys that force hops."""
        table = HopscotchTable(NVMDevice(env, 1 << 16), 0, n_buckets=64, H=4)
        # keys homed at consecutive buckets create pressure
        inserted = []
        for fp in range(1, 40):
            try:
                table.insert_or_update(fp, (fp % 100) * 16)
                inserted.append(fp)
            except StoreError:
                break
        for fp in inserted:
            found = table.lookup(fp)
            assert found is not None, fp
            idx, region = found
            assert idx - table.home_of(fp) < table.H

    def test_neighborhood_offset_span(self, table):
        off, length = table.neighborhood_offset(5)
        assert off == 5 * ERDA_ENTRY_SIZE
        assert length == table.H * ERDA_ENTRY_SIZE

    def test_neighborhood_clamped_at_table_end(self, table):
        fp = table.n_buckets - 2
        off, length = table.neighborhood_offset(fp)
        assert off + length <= table.table_bytes


class TestClientScan:
    def test_finds_entry_in_raw_bytes(self, table):
        table.insert_or_update(42, 480)
        off, length = table.neighborhood_offset(42)
        raw = table.device.buffer.read(table.base + off, length)
        region = client_scan_neighborhood(raw, 42)
        assert region is not None and region.off1 == 480

    def test_miss(self, table):
        raw = b"\x00" * (4 * ERDA_ENTRY_SIZE)
        assert client_scan_neighborhood(raw, 7) is None

    def test_bad_length_rejected(self):
        with pytest.raises(StoreError):
            client_scan_neighborhood(b"\x00" * 10, 7)
