"""NVMDevice: timed operations and cost model."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nvm.device import NVMDevice, NVMTiming
from repro.sim.kernel import Environment


class TestTiming:
    def test_cost_functions_affine(self):
        t = NVMTiming()
        assert t.copy_cost(0) == t.store_ns
        assert t.copy_cost(1000) == t.store_ns + 1000 * t.copy_ns_per_byte
        assert t.read_cost(64) == t.read_base_ns + 64 * t.read_ns_per_byte

    def test_flush_cost_per_line(self):
        t = NVMTiming()
        one = t.flush_cost(1)
        assert one == t.flush_line_ns + t.fence_ns
        assert t.flush_cost(65) == 2 * t.flush_line_ns + t.fence_ns

    def test_validation(self):
        with pytest.raises(ConfigError):
            NVMTiming(fence_ns=-1)


class TestDevice:
    def test_copy_in_charges_time_and_writes(self, env):
        dev = NVMDevice(env, 4096)

        def proc():
            yield from dev.copy_in(100, b"payload")
            return env.now

        elapsed = env.run(env.process(proc()))
        assert elapsed == pytest.approx(dev.timing.copy_cost(7))
        assert dev.buffer.read(100, 7) == b"payload"
        assert not dev.buffer.is_persistent(100, 7)

    def test_persist_charges_and_flushes(self, env):
        dev = NVMDevice(env, 4096)
        dev.buffer.write(0, b"x" * 100)

        def proc():
            lines = yield from dev.persist(0, 100)
            return lines, env.now

        lines, elapsed = env.run(env.process(proc()))
        assert lines == 2
        assert elapsed == pytest.approx(dev.timing.flush_cost(100))
        assert dev.buffer.is_persistent(0, 100)

    def test_persist_clean_range_charges_full_sweep(self, env):
        """Timing covers issuing CLWBs even over clean lines."""
        dev = NVMDevice(env, 4096)

        def proc():
            lines = yield from dev.persist(0, 128)
            return lines, env.now

        lines, elapsed = env.run(env.process(proc()))
        assert lines == 0
        assert elapsed == pytest.approx(dev.timing.flush_cost(128))

    def test_crash_delegates(self, env):
        dev = NVMDevice(env, 4096)
        dev.buffer.write(0, b"gone")
        dev.buffer.crash(np.random.default_rng(0), evict_probability=0.0)
        assert dev.buffer.read(0, 4) == b"\x00" * 4
