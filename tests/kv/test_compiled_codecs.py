"""The compiled record codecs against their declarations.

``StructLayout`` compiles each declaration once; ``build_header``,
``parse_object`` / ``parse_header`` and the hash-table entry accessors
call the compiled structs directly. These differential properties hold
each fast path to the generic layout calls (and ``parse_object`` to the
implementation it replaced, kept here as the reference), on every
buffer type a reader hands in.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, CorruptObjectError
from repro.kv.hashtable import (
    ENTRY_LAYOUT,
    ENTRY_SIZE,
    HashTableGeometry,
    NvmHashTable,
    Slot,
    client_lookup_bucket,
)
from repro.kv.objects import (
    HEADER_SIZE,
    NULL_PTR,
    OBJ_MAGIC,
    OBJECT_HEADER,
    ObjectImage,
    build_header,
    parse_header,
    parse_object,
)
from repro.mem.layout import StructLayout
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u64 = st.integers(0, (1 << 64) - 1)
BUFFERS = (bytes, bytearray, memoryview)


def reference_parse_object(raw) -> ObjectImage:
    """``parse_object`` as it read before the header codec was compiled."""
    raw = bytes(raw)
    if len(raw) < HEADER_SIZE:
        raise CorruptObjectError(
            f"object fragment of {len(raw)} bytes is smaller than a header"
        )
    hdr = OBJECT_HEADER.unpack(raw[:HEADER_SIZE])
    well_formed = (
        hdr.magic == OBJ_MAGIC and HEADER_SIZE + hdr.klen + hdr.vlen <= len(raw)
    )
    if well_formed:
        key = raw[HEADER_SIZE : HEADER_SIZE + hdr.klen]
        value = raw[HEADER_SIZE + hdr.klen : HEADER_SIZE + hdr.klen + hdr.vlen]
    else:
        key = b""
        value = b""
    return ObjectImage(
        flags=hdr.flags,
        klen=hdr.klen,
        vlen=hdr.vlen,
        crc=hdr.crc,
        pre_ptr=hdr.pre_ptr,
        nxt_ptr=hdr.nxt_ptr,
        ts=hdr.ts,
        key=key,
        value=value,
        well_formed=well_formed,
    )


def reference_parse_header(raw):
    raw = bytes(raw)
    if len(raw) < HEADER_SIZE:
        return None
    hdr = OBJECT_HEADER.unpack(raw[:HEADER_SIZE])
    return hdr if hdr.magic == OBJ_MAGIC else None


def assert_same_image(got: ObjectImage, want: ObjectImage) -> None:
    assert got == want
    assert type(got.key) is bytes and type(got.value) is bytes


@st.composite
def object_bytes(draw):
    """Header + key + value with the lengths the header claims, then
    possibly truncated, extended or given a bad magic."""
    klen = draw(st.integers(0, 40))
    vlen = draw(st.integers(0, 200))
    header = OBJECT_HEADER.pack(
        magic=draw(st.sampled_from([OBJ_MAGIC, OBJ_MAGIC, 0, OBJ_MAGIC ^ 1])),
        flags=draw(u8),
        rsv=draw(u8),
        klen=klen,
        rsv2=draw(u16),
        vlen=vlen,
        crc=draw(u32),
        pre_ptr=draw(u64),
        nxt_ptr=draw(u64),
        ts=draw(u64),
    )
    body = draw(st.binary(min_size=klen + vlen, max_size=klen + vlen))
    raw = header + body + draw(st.binary(max_size=16))
    cut = draw(st.integers(0, len(raw)))
    return raw[: draw(st.sampled_from([len(raw), cut]))]


class TestObjectHeader:
    @given(flags=u8, klen=u16, vlen=u32, crc=u32, pre=u64, nxt=u64, ts=u64)
    def test_build_header_is_the_declared_pack(self, flags, klen, vlen, crc, pre, nxt, ts):
        got = build_header(
            flags=flags, klen=klen, vlen=vlen, crc=crc, pre_ptr=pre, nxt_ptr=nxt, ts=ts
        )
        assert got == OBJECT_HEADER.pack(
            magic=OBJ_MAGIC, flags=flags, rsv=0, klen=klen, rsv2=0, vlen=vlen,
            crc=crc, pre_ptr=pre, nxt_ptr=nxt, ts=ts,
        )

    def test_build_header_defaults(self):
        assert build_header(flags=1, klen=2, vlen=3, crc=4) == OBJECT_HEADER.pack(
            magic=OBJ_MAGIC, flags=1, rsv=0, klen=2, rsv2=0, vlen=3, crc=4,
            pre_ptr=NULL_PTR, nxt_ptr=NULL_PTR, ts=0,
        )

    @settings(max_examples=300)
    @given(raw=object_bytes(), kind=st.sampled_from(BUFFERS))
    def test_parse_object_matches_reference(self, raw, kind):
        if len(raw) < HEADER_SIZE:
            with pytest.raises(CorruptObjectError) as want:
                reference_parse_object(kind(bytearray(raw)))
            with pytest.raises(CorruptObjectError) as got:
                parse_object(kind(bytearray(raw)))
            assert str(got.value) == str(want.value)
            return
        assert_same_image(
            parse_object(kind(bytearray(raw))), reference_parse_object(raw)
        )

    @given(raw=object_bytes(), kind=st.sampled_from(BUFFERS))
    def test_parse_header_matches_reference(self, raw, kind):
        assert parse_header(kind(bytearray(raw))) == reference_parse_header(raw)

    @pytest.mark.parametrize("kind", BUFFERS)
    def test_named_edge_cases(self, kind):
        good = build_header(flags=3, klen=4, vlen=6, crc=9) + b"keys" + b"value!"
        bad_magic = b"\x00\x00" + good[2:]
        overrun = build_header(flags=3, klen=4, vlen=7, crc=9) + b"keys" + b"value!"
        for raw in (good, bad_magic, overrun, good + b"trailing"):
            assert_same_image(
                parse_object(kind(bytearray(raw))), reference_parse_object(raw)
            )
        assert parse_object(kind(bytearray(good))).well_formed
        assert not parse_object(kind(bytearray(bad_magic))).well_formed
        assert not parse_object(kind(bytearray(overrun))).well_formed
        with pytest.raises(CorruptObjectError, match="smaller than a header"):
            parse_object(kind(bytearray(good[: HEADER_SIZE - 1])))

    def test_parse_of_a_live_view_owns_its_bytes(self):
        buf = bytearray(build_header(flags=1, klen=3, vlen=3, crc=0) + b"keyval")
        img = parse_object(memoryview(buf))
        buf[HEADER_SIZE:] = b"XXXXXX"
        assert (img.key, img.value) == (b"key", b"val")


class TestLayoutCompiled:
    """Every compiled call against ``struct`` driven by the declaration."""

    LAYOUTS = (OBJECT_HEADER, ENTRY_LAYOUT)

    @staticmethod
    def declared_format(layout: StructLayout) -> str:
        return "<" + "".join(fs.code for fs in layout.fields)

    @given(data=st.data())
    def test_pack_unpack_field_by_field(self, data):
        for layout in self.LAYOUTS:
            values = {
                fs.name: data.draw(st.integers(0, (1 << (8 * fs.size)) - 1))
                for fs in layout.fields
            }
            raw = layout.pack(**values)
            ordered = [values[fs.name] for fs in layout.fields]
            assert raw == struct.pack(self.declared_format(layout), *ordered)
            assert tuple(layout.unpack(raw)) == tuple(ordered)
            assert layout.unpack_from(b"\xee" * 3 + raw, 3)._asdict() == values
            for fs in layout.fields:
                assert layout.pack_field(fs.name, values[fs.name]) == struct.pack(
                    "<" + fs.code, values[fs.name]
                )
                assert layout.unpack_field(fs.name, raw) == values[fs.name]
                assert raw[fs.offset : fs.offset + fs.size] == layout.pack_field(
                    fs.name, values[fs.name]
                )

    def test_errors_survive_compilation(self):
        full = {fs.name: 0 for fs in ENTRY_LAYOUT.fields}
        with pytest.raises(ConfigError, match="missing fields: \\['rsv'\\]"):
            ENTRY_LAYOUT.pack(fp=0, cur=0, alt=0)
        with pytest.raises(ConfigError, match="missing fields: \\['rsv'\\]"):
            ENTRY_LAYOUT.pack(fp=0, cur=0, alt=0, zz=1)
        with pytest.raises(ConfigError, match="unknown fields: \\['zz'\\]"):
            ENTRY_LAYOUT.pack(**full, zz=1)
        with pytest.raises(ConfigError, match="needs 32 bytes"):
            ENTRY_LAYOUT.unpack(b"\x00" * 31)
        for call in (
            lambda: ENTRY_LAYOUT.spec("nope"),
            lambda: ENTRY_LAYOUT.offset_of("nope"),
            lambda: ENTRY_LAYOUT.size_of("nope"),
            lambda: ENTRY_LAYOUT.pack_field("nope", 1),
            lambda: ENTRY_LAYOUT.unpack_field("nope", b"\x00" * 32),
        ):
            with pytest.raises(ConfigError, match="no field 'nope'"):
                call()

    def test_single_and_empty_layouts(self):
        one = StructLayout("one", [("x", "H")])
        assert one.pack(x=7) == b"\x07\x00" and one.unpack(b"\x07\x00").x == 7
        with pytest.raises(ConfigError, match="missing"):
            one.pack()
        empty = StructLayout("empty", [])
        assert empty.size == 0 and empty.pack() == b"" and tuple(empty.unpack(b"")) == ()


slots = st.builds(
    Slot,
    pool=st.integers(0, 1),
    size=st.integers(0, (1 << 22) - 1),
    offset=st.integers(0, (1 << 40) - 1),
)


class TestHashEntry:
    GEOM = HashTableGeometry(n_buckets=8, slots_per_bucket=4, probe_limit=2)

    def fresh_table(self) -> NvmHashTable:
        return NvmHashTable(NVMDevice(Environment(), self.GEOM.table_bytes), 0, self.GEOM)

    def raw_entry(self, table: NvmHashTable, off: int) -> bytes:
        return bytes(table.device.buffer.view(table.base + off, ENTRY_SIZE))

    @settings(max_examples=60)
    @given(fp=st.integers(1, (1 << 64) - 1), cur=slots, alt=slots)
    def test_writes_and_reads_match_the_layout(self, fp, cur, alt):
        table = self.fresh_table()
        off = table.find_or_create(fp)
        table.set_cur(off, cur)
        table.set_alt(off, alt)
        raw = self.raw_entry(table, off)
        assert raw == ENTRY_LAYOUT.pack(fp=fp, cur=cur.pack(), alt=alt.pack(), rsv=0)
        for field, word in (("fp", fp), ("cur", cur.pack()), ("alt", alt.pack())):
            at = ENTRY_LAYOUT.offset_of(field)
            assert raw[at : at + 8] == ENTRY_LAYOUT.pack_field(field, word)
        assert table.read_entry(off) == ENTRY_LAYOUT.unpack(raw)
        assert table.read_cur(off) == Slot.unpack(ENTRY_LAYOUT.unpack(raw).cur) == cur
        assert table.read_alt(off) == Slot.unpack(ENTRY_LAYOUT.unpack(raw).alt) == alt
        table.promote_alt(off)
        raw = self.raw_entry(table, off)
        assert ENTRY_LAYOUT.unpack(raw) == (fp, alt.pack(), 0, 0)
        table.clear_cur(off)
        assert table.read_cur(off) is None and table.read_alt(off) is None

    @given(
        entries=st.lists(st.tuples(u64, u64, u64, u64), min_size=4, max_size=4),
        pick=st.integers(0, 4),
        kind=st.sampled_from(BUFFERS),
    )
    def test_client_bucket_parse_matches_the_layout(self, entries, pick, kind):
        raw = b"".join(
            ENTRY_LAYOUT.pack(fp=fp, cur=cur, alt=alt, rsv=rsv)
            for fp, cur, alt, rsv in entries
        )
        fp = entries[pick][0] if pick < 4 else 0x5EED
        want = None
        for s in range(self.GEOM.slots_per_bucket):
            entry = ENTRY_LAYOUT.unpack_from(raw, s * ENTRY_SIZE)
            if entry.fp == fp:
                want = Slot.unpack(entry.cur), Slot.unpack(entry.alt)
                break
        assert client_lookup_bucket(kind(bytearray(raw)), fp, self.GEOM) == want
