"""Workload generation: distributions, keys, verifiable values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.keyspace import make_key, make_value, parse_value
from repro.workloads.ycsb import (
    WORKLOADS,
    Op,
    update_only,
    ycsb_a,
    ycsb_b,
    ycsb_c,
    ycsb_d,
    ycsb_e,
    ycsb_f,
)
from repro.workloads.zipf import (
    RotatingHotSet,
    ScrambledZipfian,
    SkewedLatest,
    UniformGenerator,
    ZipfianGenerator,
    zeta,
)


class TestZipf:
    def test_zeta_known_values(self):
        assert zeta(1, 0.99) == 1.0
        assert zeta(2, 0.5) == pytest.approx(1 + 2 ** -0.5)

    def test_ranks_in_range(self):
        gen = ZipfianGenerator(100)
        rng = np.random.default_rng(0)
        ranks = gen.sample(rng, size=10_000)
        assert ranks.min() >= 0 and ranks.max() < 100

    def test_skew_head_is_hot(self):
        """Rank 0 must dominate: the long-tailed property the paper's
        read-write races depend on."""
        gen = ZipfianGenerator(1000, theta=0.99)
        rng = np.random.default_rng(1)
        ranks = gen.sample(rng, size=50_000)
        share0 = np.mean(ranks == 0)
        share_tail = np.mean(ranks >= 500)
        assert share0 > 0.10  # theory: 1/zeta(1000, .99) ~= 0.13
        assert share0 > share_tail

    def test_monotone_popularity(self):
        gen = ZipfianGenerator(50, theta=0.9)
        rng = np.random.default_rng(2)
        ranks = gen.sample(rng, size=100_000)
        counts = np.bincount(ranks, minlength=50)
        # popularity decreases from head to tail (allow sampling noise
        # by comparing coarse buckets)
        assert counts[:5].sum() > counts[5:15].sum() > counts[30:50].sum()

    def test_scalar_sampling(self):
        gen = ZipfianGenerator(10)
        rng = np.random.default_rng(3)
        r = gen.sample(rng)
        assert isinstance(r, int) and 0 <= r < 10

    def test_scrambled_spreads_hot_keys(self):
        gen = ScrambledZipfian(1000)
        rng = np.random.default_rng(4)
        keys = np.asarray(gen.sample(rng, size=20_000))
        assert keys.min() >= 0 and keys.max() < 1000
        # the hottest key is no longer id 0
        hot = np.bincount(keys, minlength=1000).argmax()
        counts = np.bincount(keys, minlength=1000)
        assert counts[hot] > 0.1 * keys.size

    def test_scrambled_deterministic(self):
        a = ScrambledZipfian(100).sample(np.random.default_rng(5), size=50)
        b = ScrambledZipfian(100).sample(np.random.default_rng(5), size=50)
        assert np.array_equal(a, b)

    def test_uniform(self):
        gen = UniformGenerator(10)
        rng = np.random.default_rng(6)
        keys = gen.sample(rng, size=10_000)
        counts = np.bincount(keys, minlength=10)
        assert counts.min() > 800  # roughly flat

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianGenerator(0)
        with pytest.raises(WorkloadError):
            ZipfianGenerator(10, theta=1.5)
        with pytest.raises(WorkloadError):
            UniformGenerator(-1)


class TestSkewedLatest:
    def test_latest_keys_are_hot(self):
        gen = SkewedLatest(1000, theta=0.99)
        rng = np.random.default_rng(10)
        keys = np.asarray(gen.sample(rng, size=50_000))
        assert keys.min() >= 0 and keys.max() < 1000
        # the skew anchors at the end of the key space
        assert np.mean(keys == 999) > 0.10
        assert np.mean(keys >= 900) > np.mean(keys < 100)

    def test_scalar(self):
        k = SkewedLatest(10).sample(np.random.default_rng(11))
        assert isinstance(k, int) and 0 <= k < 10


class TestRotatingHotSet:
    def test_seeded_determinism(self):
        a = RotatingHotSet(512, rotate_every=100).sample(
            np.random.default_rng(12), size=1000
        )
        b = RotatingHotSet(512, rotate_every=100).sample(
            np.random.default_rng(12), size=1000
        )
        assert np.array_equal(a, b)

    def test_bulk_equals_incremental(self):
        """Bulk sampling across epoch boundaries must match drawing one
        key at a time (each draw salted by the epoch it falls in)."""
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        gen_a = RotatingHotSet(256, rotate_every=7)
        gen_b = RotatingHotSet(256, rotate_every=7)
        bulk = gen_a.sample(rng_a, size=50)
        singles = [gen_b.sample(rng_b) for _ in range(50)]
        assert bulk.tolist() == singles

    def test_rotation_moves_the_hot_set(self):
        gen = RotatingHotSet(4096, rotate_every=1000)
        hot0 = set(gen.hot_keys(top=20, epoch=0))
        hot1 = set(gen.hot_keys(top=20, epoch=1))
        assert hot0 != hot1
        # re-salting is a scatter, not a shift: overlap is incidental
        assert len(hot0 & hot1) < 10

    def test_same_epoch_is_stable(self):
        gen = RotatingHotSet(4096, rotate_every=1000)
        assert gen.hot_keys(top=10, epoch=3) == gen.hot_keys(top=10, epoch=3)

    def test_epoch_advances_with_draws(self):
        gen = RotatingHotSet(128, rotate_every=50)
        rng = np.random.default_rng(14)
        assert gen.epoch == 0
        gen.sample(rng, size=49)
        assert gen.epoch == 0
        gen.sample(rng)
        assert gen.epoch == 1

    def test_hot_keys_dominate_within_epoch(self):
        gen = RotatingHotSet(1024, rotate_every=100_000)
        rng = np.random.default_rng(15)
        keys = gen.sample(rng, size=50_000)
        hot = gen.hot_keys(top=10, epoch=0)
        share = np.isin(keys, hot).mean()
        assert share > 0.3  # zipf(0.99) mass of the top-10 ranks

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RotatingHotSet(100, rotate_every=0)


class TestKeyspace:
    def test_make_key_fixed_width(self):
        assert make_key(0) == b"user000000000000"
        assert make_key(42, key_len=32) == b"user" + b"0" * 26 + b"42"
        assert len(make_key(5, 20)) == 20

    def test_key_overflow_rejected(self):
        with pytest.raises(WorkloadError):
            make_key(10**13, key_len=16)
        with pytest.raises(WorkloadError):
            make_key(1, key_len=8)

    def test_value_roundtrip(self):
        v = make_value(7, 3, 64)
        assert len(v) == 64
        assert parse_value(v) == (7, 3)

    def test_minimum_value_size(self):
        assert parse_value(make_value(1, 1, 16)) == (1, 1)
        with pytest.raises(WorkloadError):
            make_value(1, 1, 8)

    def test_torn_value_detected(self):
        v = bytearray(make_value(7, 3, 128))
        v[64] ^= 0xFF
        assert parse_value(bytes(v)) is None

    def test_wrong_header_detected(self):
        v = bytearray(make_value(7, 3, 64))
        v[0] ^= 0x01  # key_id now 6: pattern no longer matches
        assert parse_value(bytes(v)) is None

    def test_short_value_is_none(self):
        assert parse_value(b"short") is None

    @given(
        kid=st.integers(0, 2**32),
        ver=st.integers(0, 2**32),
        vlen=st.integers(16, 512),
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, kid, ver, vlen):
        assert parse_value(make_value(kid, ver, vlen)) == (kid, ver)

    @given(
        kid=st.integers(0, 100),
        ver=st.integers(0, 100),
        vlen=st.integers(17, 128),
        pos=st.integers(0, 1000),
    )
    @settings(max_examples=50)
    def test_any_corruption_detected(self, kid, ver, vlen, pos):
        v = bytearray(make_value(kid, ver, vlen))
        v[pos % vlen] ^= 0x5A
        assert parse_value(bytes(v)) is None


class TestYcsbSpecs:
    def test_canonical_mixes(self):
        assert ycsb_c().read_fraction == 1.0
        assert ycsb_b().read_fraction == 0.95
        assert ycsb_a().read_fraction == 0.5
        assert update_only().read_fraction == 0.0
        assert ycsb_f().rmw_fraction == 0.5
        assert set(WORKLOADS) == {
            "YCSB-C", "YCSB-B", "YCSB-A", "YCSB-D", "YCSB-E", "YCSB-F",
            "update-only",
        }
        # sweeps iterate WORKLOADS in order; the original five must keep
        # their positions with D/E appended after them
        assert list(WORKLOADS)[:5] == [
            "YCSB-C", "YCSB-B", "YCSB-A", "YCSB-F", "update-only"
        ]

    def test_client_stream_mix(self):
        spec = ycsb_b(key_count=100)
        rng = np.random.default_rng(0)
        ops = spec.client_stream(rng, 5000)
        reads = sum(1 for op in ops if op.kind == "get")
        assert 0.93 < reads / 5000 < 0.97
        assert all(0 <= op.key_id < 100 for op in ops)

    def test_stream_deterministic(self):
        spec = ycsb_a(key_count=64)
        a = spec.client_stream(np.random.default_rng(9), 100)
        b = spec.client_stream(np.random.default_rng(9), 100)
        assert a == b

    def test_uniform_distribution_option(self):
        spec = ycsb_c(key_count=10, distribution="uniform")
        ops = spec.client_stream(np.random.default_rng(1), 1000)
        counts = np.bincount([op.key_id for op in ops], minlength=10)
        assert counts.min() > 50

    def test_ycsb_f_stream_mix(self):
        spec = ycsb_f(key_count=64)
        ops = spec.client_stream(np.random.default_rng(2), 4000)
        from collections import Counter

        kinds = Counter(op.kind for op in ops)
        assert kinds["put"] == 0
        assert 0.45 < kinds["rmw"] / 4000 < 0.55
        assert 0.45 < kinds["get"] / 4000 < 0.55

    def test_mix_ratio_convergence(self):
        """Over 100k draws every mix converges to its nominal op ratios
        (the load engine's per-tenant accounting depends on this)."""
        rng = np.random.default_rng(20)
        for factory, fractions in [
            (ycsb_a, {"get": 0.50, "put": 0.50}),
            (ycsb_b, {"get": 0.95, "put": 0.05}),
            (ycsb_c, {"get": 1.0}),
            (ycsb_f, {"get": 0.50, "rmw": 0.50}),
            (update_only, {"put": 1.0}),
        ]:
            spec = factory(key_count=1024)
            ops = spec.client_stream(rng, 100_000)
            assert len(ops) == 100_000
            from collections import Counter

            kinds = Counter(op.kind for op in ops)
            for kind, frac in fractions.items():
                assert abs(kinds[kind] / 100_000 - frac) < 0.01, (
                    spec.name, kind,
                )

    def test_ycsb_d_reads_latest(self):
        spec = ycsb_d(key_count=1000)
        ops = spec.client_stream(np.random.default_rng(21), 20_000)
        gets = np.array([op.key_id for op in ops if op.kind == "get"])
        assert gets.size > 18_000  # 95% reads
        # "latest" skew: the high end of the id space dominates
        assert np.mean(gets >= 900) > np.mean(gets < 100)
        assert np.mean(gets == 999) > 0.10

    def test_ycsb_e_scan_bursts(self):
        spec = ycsb_e(key_count=512, max_scan_len=8)
        n_ops = 20_000
        ops = spec.client_stream(np.random.default_rng(22), n_ops)
        # scans expand but the stream is truncated at exactly the budget
        assert len(ops) == n_ops
        kinds = {op.kind for op in ops}
        assert kinds == {"get", "put"}  # scans degrade to point GETs
        # ~5% puts of *application* ops; after expansion the put share
        # of store ops shrinks by the mean scan length
        put_frac = sum(1 for op in ops if op.kind == "put") / n_ops
        assert 0.002 < put_frac < 0.04
        # expansion produces sequential runs: many successors are +1
        ids = np.array([op.key_id for op in ops])
        seq = np.mean((ids[1:] - ids[:-1]) % 512 == 1)
        assert seq > 0.5

    def test_scan_free_stream_unchanged_by_scan_fields(self):
        """Scan support must not disturb the rng draw sequence of
        scan-free workloads (fig1/fig2 bit-identity)."""
        a = ycsb_b(key_count=64).client_stream(np.random.default_rng(23), 500)
        b = ycsb_b(key_count=64, max_scan_len=99).client_stream(
            np.random.default_rng(23), 500
        )
        assert a == b

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ycsb_a(key_count=0)
        with pytest.raises(WorkloadError):
            ycsb_a(value_len=8)
        with pytest.raises(WorkloadError):
            ycsb_c(rmw_fraction=0.5)  # 100% reads leave no rmw budget
        with pytest.raises(WorkloadError):
            ycsb_e(max_scan_len=0)
        with pytest.raises(WorkloadError):
            # scan budget exceeded: 95% reads leave only 5%
            ycsb_b(scan_fraction=0.5)


def _fresh_sampler(spec):
    """The spec's key sampler built anew, bypassing the memo."""
    if spec.distribution == "zipfian":
        return ScrambledZipfian(spec.key_count, spec.zipf_theta)
    if spec.distribution == "latest":
        return SkewedLatest(spec.key_count, spec.zipf_theta)
    return UniformGenerator(spec.key_count)


def _reference_stream(spec, rng, n_ops):
    """``client_stream`` as written before its sampler was memoised and
    its ops built without a constructor call per op."""
    keys = np.asarray(_fresh_sampler(spec).sample(rng, n_ops))
    roll = rng.random(n_ops)
    if spec.scan_fraction == 0.0:
        kinds = np.where(
            roll < spec.read_fraction,
            "get",
            np.where(roll < spec.read_fraction + spec.rmw_fraction, "rmw", "put"),
        )
        return [(kind, int(k)) for kind, k in zip(kinds.tolist(), keys.tolist())]
    scan_hi = spec.read_fraction + spec.rmw_fraction + spec.scan_fraction
    kinds = np.where(
        roll < spec.read_fraction,
        "get",
        np.where(
            roll < spec.read_fraction + spec.rmw_fraction,
            "rmw",
            np.where(roll < scan_hi, "scan", "put"),
        ),
    )
    lens = rng.integers(1, spec.max_scan_len + 1, size=n_ops)
    ops = []
    for kind, k, length in zip(kinds.tolist(), keys.tolist(), lens.tolist()):
        if kind == "scan":
            for i in range(length):
                ops.append(("get", (int(k) + i) % spec.key_count))
                if len(ops) == n_ops:
                    break
        else:
            ops.append((kind, int(k)))
        if len(ops) == n_ops:
            break
    return ops


class TestSamplerMemo:
    """``WorkloadSpec`` shares one sampler per (distribution, key_count,
    theta); that is only sound because those samplers keep no state."""

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_stream_equals_a_freshly_built_samplers(self, name, seed):
        for key_count in (64, 8192):
            spec = WORKLOADS[name](key_count=key_count)
            got = spec.client_stream(np.random.default_rng(seed), 700)
            want = _reference_stream(spec, np.random.default_rng(seed), 700)
            assert [tuple(op) for op in got] == want
            assert all(type(op) is Op for op in got)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_alternating_specs_that_share_an_entry(self, seed):
        a, b = ycsb_a(key_count=300), ycsb_b(key_count=300)
        assert a._sampler() is b._sampler()
        rng_a, ref_a = np.random.default_rng(seed), np.random.default_rng(seed)
        rng_b, ref_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for n in (1, 50, 3, 200):
            for spec, rng, ref in ((a, rng_a, ref_a), (b, rng_b, ref_b)):
                got = [tuple(op) for op in spec.client_stream(rng, n)]
                assert got == _reference_stream(spec, ref, n)

    def test_distinct_shapes_do_not_share(self):
        base = ycsb_a(key_count=300)
        assert base._sampler() is not base.with_(key_count=301)._sampler()
        assert base._sampler() is not base.with_(zipf_theta=0.9)._sampler()
        assert base._sampler() is not base.with_(distribution="latest")._sampler()

    def test_shared_scatter_is_read_only(self):
        sampler = ycsb_c(key_count=128)._sampler()
        with pytest.raises(ValueError):
            sampler._map[0] = 1

    def test_rotating_hot_set_stays_outside_the_memo(self):
        """It counts its draws, so sharing one would change every stream
        after the first. The workload samplers never build one."""
        for distribution in ("zipfian", "latest", "uniform"):
            spec = ycsb_a(key_count=300, distribution=distribution)
            assert not isinstance(spec._sampler(), RotatingHotSet)
        hot = RotatingHotSet(300, 0.99, rotate_every=10)
        first = hot.sample(np.random.default_rng(5), 30).tolist()
        again = hot.sample(np.random.default_rng(5), 30).tolist()
        assert hot._drawn == 60 and first != again
