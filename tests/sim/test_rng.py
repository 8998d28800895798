"""Deterministic RNG stream registry."""

import numpy as np
from hypothesis import given, strategies as st

from repro.sim import rng
from repro.sim.rng import RngRegistry, fnv1a_64


class TestFnv:
    def test_known_vectors(self):
        # FNV-1a 64 reference values
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64("a") == fnv1a_64(b"a")

    @given(st.binary(max_size=64))
    def test_fits_64_bits(self, data):
        assert 0 <= fnv1a_64(data) < 1 << 64

    @given(st.binary(min_size=1, max_size=32))
    def test_sensitive_to_last_byte(self, data):
        flipped = data[:-1] + bytes([data[-1] ^ 0xFF])
        assert fnv1a_64(data) != fnv1a_64(flipped)

    @given(
        st.one_of(
            st.binary(max_size=48),
            st.text(max_size=24),
            st.binary(max_size=48).map(bytearray),
            st.binary(max_size=48).map(memoryview),
        )
    )
    def test_every_input_type_hashes_like_the_loop(self, data):
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        # Twice: a memoised bytes input must give the loop's value on a hit too.
        assert fnv1a_64(data) == fnv1a_64(data) == _fnv_loop(raw)

    def test_memo_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(rng, "_FNV_MEMO", {})
        monkeypatch.setattr(rng, "_FNV_MEMO_CAP", 8)
        for i in range(100):
            data = (i % 37).to_bytes(4, "little")
            assert fnv1a_64(data) == _fnv_loop(data)
            assert len(rng._FNV_MEMO) <= 8


def _fnv_loop(data: bytes) -> int:
    """FNV-1a 64 written out, the reference the memoised hash must equal."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestRegistry:
    def test_memoised(self):
        reg = RngRegistry(1)
        assert reg.stream("x") is reg.stream("x")

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("workload").random(8)
        b = RngRegistry(7).stream("workload").random(8)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        reg = RngRegistry(7)
        a = reg.stream("a").random(64)
        b = reg.stream("b").random(64)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("s").random(8)
        b = RngRegistry(2).stream("s").random(8)
        assert not np.array_equal(a, b)

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(3)
        s = reg1.stream("main")
        _ = s.random(4)
        rest1 = s.random(8)

        reg2 = RngRegistry(3)
        s2 = reg2.stream("main")
        _ = s2.random(4)
        _ = reg2.stream("unrelated").random(100)  # interleaved new stream
        rest2 = s2.random(8)
        assert np.array_equal(rest1, rest2)

    def test_fork_independent(self):
        parent = RngRegistry(5)
        child = parent.fork("child")
        assert not np.array_equal(
            parent.stream("s").random(8), child.stream("s").random(8)
        )
