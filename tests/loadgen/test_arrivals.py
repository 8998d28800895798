"""Arrival-process generation: determinism, rates, curve shapes."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.loadgen.arrivals import ArrivalCurve


class TestConstant:
    def test_deterministic(self):
        a = ArrivalCurve().arrivals(np.random.default_rng(3), 1e-3, 500)
        b = ArrivalCurve().arrivals(np.random.default_rng(3), 1e-3, 500)
        assert np.array_equal(a, b)

    def test_ascending_and_after_t0(self):
        t = ArrivalCurve().arrivals(np.random.default_rng(0), 1e-3, 1000, t0=5_000.0)
        assert t[0] > 5_000.0
        assert np.all(np.diff(t) > 0)

    def test_mean_rate(self):
        # 1e-3 ops/ns -> mean gap 1000 ns
        t = ArrivalCurve().arrivals(np.random.default_rng(1), 1e-3, 20_000)
        gaps = np.diff(t)
        assert 950.0 < gaps.mean() < 1050.0

    def test_empty(self):
        assert ArrivalCurve().arrivals(np.random.default_rng(0), 1e-3, 0).size == 0


class TestShapes:
    def test_burst_windows_are_denser(self):
        class Burst(ArrivalCurve):
            burst_factor = 8.0
            burst_every_ns = 10_000.0
            burst_len_ns = 2_000.0

        curve = Burst(kind="burst")
        t = curve.arrivals(np.random.default_rng(2), 1e-3, 30_000)
        in_burst = (t % 10_000.0) < 2_000.0
        # burst windows are 20% of time but at 8x rate they should
        # capture the majority of arrivals (8*2 / (8*2 + 8) = 2/3)
        assert in_burst.mean() > 0.55

    def test_diurnal_modulates_rate(self):
        class Diurnal(ArrivalCurve):
            amplitude = 1.0
            period_ns = 100_000.0

        curve = Diurnal(kind="diurnal")
        t = curve.arrivals(np.random.default_rng(4), 1e-3, 50_000)
        phase = (t % 100_000.0) / 100_000.0
        rising = ((phase > 0.05) & (phase < 0.45)).sum()  # sin > 0
        falling = ((phase > 0.55) & (phase < 0.95)).sum()  # sin < 0
        assert rising > 2 * falling

    def test_rate_factor_bounds(self):
        c = ArrivalCurve(kind="diurnal")
        assert c.amplitude == 0.5
        for frac in (0.0, 0.25, 0.5, 0.75):
            f = c.rate_factor(frac * c.period_ns)
            assert 0.5 - 1e-9 <= f <= c.peak_factor() + 1e-9

    def test_thinned_deterministic(self):
        c = ArrivalCurve(kind="burst")
        a = c.arrivals(np.random.default_rng(7), 2e-3, 400)
        b = c.arrivals(np.random.default_rng(7), 2e-3, 400)
        assert np.array_equal(a, b)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            ArrivalCurve(kind="square")

    def test_bad_amplitude(self):
        """The shape is class constants, not input: no keyword takes it."""
        with pytest.raises(TypeError):
            ArrivalCurve(kind="diurnal", amplitude=1.5)

    def test_burst_len_exceeds_window(self):
        with pytest.raises(TypeError):
            ArrivalCurve(kind="burst", burst_every_ns=100.0, burst_len_ns=200.0)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            ArrivalCurve().arrivals(np.random.default_rng(0), 0.0, 10)
