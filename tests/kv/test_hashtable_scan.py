"""The range-at-a-time index paths against the per-entry walks they
replaced. The reference loops below are the old implementations, kept
here on purpose: same offsets, same order, same cursor, same laps, same
``bytes_read`` — the windowed search may only change what the host pays.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scrub import Scrubber
from repro.errors import StoreError
from repro.kv.hashtable import (
    ENTRY_LAYOUT,
    ENTRY_SIZE,
    HashTableGeometry,
    NvmHashTable,
    Slot,
)
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment

BASE = 96  # the table need not start at the device origin


# -- per-entry references ------------------------------------------------------------


def ref_iter_entries(table):
    total = table.geom.n_buckets * table.geom.slots_per_bucket
    for i in range(total):
        off = i * ENTRY_SIZE
        entry = table.read_entry(off)
        if entry.fp != 0:
            yield off, entry


def ref_scrub_next(table, cursor):
    """One scrubber tick: ``(cursor, (entry_off, fp, cur) | None)``."""
    total = table.geom.n_buckets * table.geom.slots_per_bucket
    for _ in range(total):
        entry_off = (cursor % total) * ENTRY_SIZE
        cursor += 1
        entry = table.read_entry(entry_off)
        if entry.fp == 0:
            continue
        cur = table.read_cur(entry_off)
        if cur is None:
            continue
        return cursor, (entry_off, entry.fp, cur)
    return cursor, None


def ref_probe(geom, fp):
    home = geom.bucket_of(fp)
    for b in range(geom.probe_limit):
        for s in range(geom.slots_per_bucket):
            yield geom.entry_offset(home + b, s)


def ref_find(table, fp):
    for off in ref_probe(table.geom, fp):
        if table.read_entry(off).fp == fp:
            return off
    return None


def ref_find_or_create(table, fp):
    free = None
    for off in ref_probe(table.geom, fp):
        entry = table.read_entry(off)
        if entry.fp == fp:
            return off
        if entry.fp == 0 and free is None:
            free = off
    if free is None:
        raise StoreError("hash table overflow")
    table.device.write_atomic64(
        table.base + free, ENTRY_LAYOUT.pack_field("fp", fp)
    )
    return free


# -- helpers ---------------------------------------------------------------------------


def make_table(n_buckets, slots, probe_limit=4):
    geom = HashTableGeometry(n_buckets, slots, probe_limit)
    device = NVMDevice(Environment(), BASE + geom.table_bytes + 40)
    return NvmHashTable(device, BASE, geom)


def fill(table, live):
    """``live``: entry index -> has a valid ``cur``."""
    for i, valid in live.items():
        cur = Slot(pool=0, size=64, offset=64 * i).pack() if valid else 0
        table.device.buffer.write(
            table.base + i * ENTRY_SIZE,
            ENTRY_LAYOUT.pack(fp=i + 1, cur=cur, alt=0, rsv=0),
        )


def bytes_read(table):
    return table.device.buffer.stats.bytes_read


def recording_scrubber(table, cursor):
    """A real Scrubber over ``table`` whose per-entry work is a recorder."""
    env = table.device.env
    part = SimpleNamespace(table=table, part_id=0)
    server = SimpleNamespace(
        env=env,
        partitions=[part],
        num_partitions=1,
        device=table.device,
    )
    scrubber = Scrubber(server, part)
    scrubber._cursor = cursor
    hits = []

    def record(entry_off, fp, cur):
        hits.append((entry_off, fp, cur))
        yield env.timeout(0)

    scrubber._scrub_entry = record
    return scrubber, hits


def counted(table, fn):
    """``fn()`` and the ``bytes_read`` it cost."""
    before = bytes_read(table)
    out = fn()
    return out, bytes_read(table) - before


def check_sweeps(table, start):
    want, want_cost = counted(table, lambda: list(ref_iter_entries(table)))
    assert counted(table, lambda: list(table.iter_entries())) == (want, want_cost)

    scrubber, hits = recording_scrubber(table, start)
    total = table.geom.n_buckets * table.geom.slots_per_bucket
    cursor = start
    for _ in range(len(want) + 3):  # past a full lap, whatever the start
        (cursor, hit), want_cost = counted(table, lambda: ref_scrub_next(table, cursor))
        hits.clear()
        _, cost = counted(table, lambda: list(scrubber._scrub_next()))
        assert hits == ([hit] if hit is not None else [])
        assert scrubber._cursor == cursor
        assert scrubber.laps == cursor // total
        assert cost == want_cost


# -- sweeps ----------------------------------------------------------------------------


@st.composite
def tables(draw):
    n_buckets = draw(st.sampled_from([1, 3, 64, 65, 300, 700]))
    slots = draw(st.integers(1, 4))
    total = n_buckets * slots
    shape = draw(st.sampled_from(["empty", "full", "last_bucket", "sparse", "dense"]))
    if shape == "empty":
        indices = []
    elif shape == "full":
        indices = range(total)
    elif shape == "last_bucket":
        indices = range(total - slots, total)
    else:
        most = 12 if shape == "sparse" else total
        indices = draw(st.sets(st.integers(0, total - 1), max_size=most))
    # an entry whose fp is set but whose cur is invalid is a torn insert
    live = {i: draw(st.booleans()) for i in indices}
    start = draw(st.integers(0, 3 * total))
    return n_buckets, slots, live, start


@settings(max_examples=60, deadline=None)
@given(tables())
def test_sweeps_match_the_per_entry_walk(case):
    n_buckets, slots, live, start = case
    table = make_table(n_buckets, slots)
    fill(table, live)
    check_sweeps(table, start)


@pytest.mark.parametrize("where", ["nowhere", "first", "last_bucket"])
def test_default_geometry_reaches_the_window_cap(where):
    """8192x4 entries: an empty stretch longer than every window size."""
    table = make_table(8192, 4)
    total = 8192 * 4
    live = {"nowhere": {}, "first": {0: True}, "last_bucket": {total - 2: True}}[where]
    fill(table, live)
    check_sweeps(table, start=total // 2 + 5)


def test_sweep_sees_an_entry_added_behind_a_pause():
    """No view survives the caller's yield: an entry that appears ahead
    of a paused sweep is found, as the per-entry walk found it."""
    table = make_table(64, 4)
    fill(table, {3: True})
    sweep = table.iter_entries()
    assert next(sweep)[0] == 3 * ENTRY_SIZE
    fill(table, {200: True})
    assert [off for off, _ in sweep] == [200 * ENTRY_SIZE]


# -- probe window ----------------------------------------------------------------------


@st.composite
def probe_cases(draw):
    n_buckets = draw(st.integers(1, 8))
    slots = draw(st.integers(1, 3))
    probe_limit = draw(st.integers(1, 10))  # > n_buckets: the window laps the table
    fps = draw(st.lists(st.integers(1, 40), min_size=1, max_size=40))
    return n_buckets, slots, probe_limit, fps


@settings(max_examples=80, deadline=None)
@given(probe_cases())
def test_probe_window_matches_the_per_entry_probe(case):
    n_buckets, slots, probe_limit, fps = case
    new = make_table(n_buckets, slots, probe_limit)
    ref = make_table(n_buckets, slots, probe_limit)
    for fp in fps:
        try:
            want = ref_find_or_create(ref, fp)
        except StoreError:
            with pytest.raises(StoreError, match="overflow"):
                new.find_or_create(fp)
            want = None
        else:
            assert new.find_or_create(fp) == want
        assert new.find(fp) == ref_find(ref, fp) == want
        new_img, ref_img = new.device.buffer, ref.device.buffer
        assert new_img.read(0, new_img.size) == ref_img.read(0, ref_img.size)
        assert bytes_read(new) == bytes_read(ref)


def test_wrapping_probe_finds_creates_and_overflows():
    table = make_table(n_buckets=8, slots=2, probe_limit=4)
    home7 = [fp for fp in range(1, 200) if fp % 8 == 7][:9]
    offs = [table.find_or_create(fp) for fp in home7[:8]]
    # buckets 7, 0, 1, 2 in probe order, two slots each
    assert offs == [
        table.geom.entry_offset(b, s) for b in (7, 0, 1, 2) for s in (0, 1)
    ]
    assert [table.find(fp) for fp in home7[:8]] == offs
    assert table.find(home7[8]) is None
    with pytest.raises(StoreError, match="overflow in bucket 7"):
        table.find_or_create(home7[8])
