"""Log-structured pool allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PoolExhaustedError
from repro.kv.logpool import LogPool
from repro.nvm.device import NVMDevice
from repro.sim.kernel import Environment


@pytest.fixture
def pool(env):
    return LogPool(NVMDevice(env, 1 << 16), base=0, size=1 << 16)


class TestAllocate:
    def test_append_only_monotone(self, pool):
        offs = [pool.allocate(100) for _ in range(5)]
        assert offs == sorted(offs)
        assert all(o % pool.align == 0 for o in offs)

    def test_alignment_rounds_up(self, pool):
        a = pool.allocate(1)
        b = pool.allocate(1)
        assert b - a == pool.align

    def test_exhaustion(self, env):
        pool = LogPool(NVMDevice(env, 4096), base=0, size=256)
        pool.allocate(200)
        with pytest.raises(PoolExhaustedError):
            pool.allocate(200)

    def test_zero_size_rejected(self, pool):
        with pytest.raises(PoolExhaustedError):
            pool.allocate(0)

    def test_journal_records_every_allocation(self, pool):
        pool.allocate(10)
        pool.allocate(20)
        assert [(a.offset, a.size) for a in pool.allocations] == [
            (0, 10),
            (64, 20),
        ]

    def test_can_fit(self, env):
        pool = LogPool(NVMDevice(env, 4096), base=0, size=128)
        assert pool.can_fit(128)
        pool.allocate(64)
        assert pool.can_fit(64)
        assert not pool.can_fit(65)


class TestCleaningTrigger:
    def test_needs_cleaning_threshold(self, env):
        pool = LogPool(
            NVMDevice(env, 4096), base=0, size=1024, reserve_fraction=0.25
        )
        assert not pool.needs_cleaning()
        pool.allocate(720)  # rounds to 768 used; 256 free = threshold
        assert pool.needs_cleaning()

    def test_reset(self, pool):
        pool.allocate(100)
        pool.reset()
        assert pool.used == 0 and not pool.allocations
        assert pool.allocate(10) == 0


class TestAddressing:
    def test_abs_addr(self, env):
        pool = LogPool(NVMDevice(env, 1 << 16), base=4096, size=8192)
        assert pool.abs_addr(64) == 4160

    def test_abs_addr_bounds(self, pool):
        with pytest.raises(PoolExhaustedError):
            pool.abs_addr(1 << 16)

    def test_read_write_through_base(self, env):
        dev = NVMDevice(env, 1 << 16)
        pool = LogPool(dev, base=1024, size=4096)
        pool.write(0, b"at base")
        assert dev.buffer.read(1024, 7) == b"at base"
        assert pool.read(0, 7) == b"at base"

    def test_bad_align_rejected(self, env):
        with pytest.raises(PoolExhaustedError):
            LogPool(NVMDevice(env, 4096), 0, 4096, align=48)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 500), max_size=40))
def test_allocations_never_overlap_property(sizes):
    env = Environment()
    pool = LogPool(NVMDevice(env, 1 << 16), base=0, size=1 << 16)
    spans = []
    for size in sizes:
        if not pool.can_fit(size):
            break
        off = pool.allocate(size)
        spans.append((off, off + size))
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert s2 >= e1
