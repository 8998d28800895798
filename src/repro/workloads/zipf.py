"""Key-popularity distributions (YCSB's long-tailed Zipfian, §5.2).

Implements the Gray et al. "Quickly generating billion-record synthetic
databases" Zipfian sampler used by YCSB, including the *scrambled*
variant that hashes ranks across the key space so popular keys are not
clustered. Both scalar and vectorised (NumPy) sampling are provided —
the harness pregenerates whole op streams with the vectorised path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "zeta",
    "ZipfianGenerator",
    "ScrambledZipfian",
    "SkewedLatest",
    "RotatingHotSet",
    "UniformGenerator",
]


def zeta(n: int, theta: float) -> float:
    """Generalised harmonic number ``sum_{i=1..n} 1/i^theta`` (vectorised)."""
    if n <= 0:
        raise WorkloadError(f"zeta needs n >= 1, got {n}")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum(i ** -theta))


class ZipfianGenerator:
    """Ranks ``0..n-1`` with P(rank) ∝ 1/(rank+1)^theta.

    ``theta=0.99`` is YCSB's default "long-tailed" skew.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise WorkloadError(f"item count must be >= 1, got {n}")
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"theta must be in (0,1), got {theta}")
        self.n = n
        self.theta = theta
        self.zetan = zeta(n, theta)
        self.zeta2 = zeta(2, theta) if n >= 2 else self.zetan
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self.zeta2 / self.zetan
        )

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw ranks; vectorised when ``size`` is given."""
        scalar = size is None
        u = rng.random(1 if scalar else size)
        uz = u * self.zetan
        ranks = (self.n * (self.eta * u - self.eta + 1.0) ** self.alpha).astype(
            np.int64
        )
        ranks = np.where(uz < 1.0, 0, ranks)
        ranks = np.where((uz >= 1.0) & (uz < 1.0 + 0.5 ** self.theta), 1, ranks)
        ranks = np.clip(ranks, 0, self.n - 1)
        return int(ranks[0]) if scalar else ranks


class ScrambledZipfian:
    """Zipfian ranks scattered over the key space by FNV mixing, so the
    hottest keys are spread out (YCSB's ScrambledZipfianGenerator)."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, theta)
        # precomputed permutation-ish mapping via FNV of the rank
        ranks = np.arange(n, dtype=np.uint64)
        self._map = self._scramble(ranks, n)
        # One instance may serve many streams (see ``WorkloadSpec``).
        self._map.flags.writeable = False

    @staticmethod
    def _scramble(ranks: np.ndarray, n: int) -> np.ndarray:
        # vectorised FNV-1a over the 8 little-endian bytes of each rank
        h = np.full(ranks.shape, 0xCBF29CE484222325, dtype=np.uint64)
        prime = np.uint64(0x100000001B3)
        for shift in range(0, 64, 8):
            byte = (ranks >> np.uint64(shift)) & np.uint64(0xFF)
            h = (h ^ byte) * prime
        return (h % np.uint64(n)).astype(np.int64)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        ranks = self._zipf.sample(rng, size)
        if size is None:
            return int(self._map[ranks])
        return self._map[np.asarray(ranks)]


class SkewedLatest:
    """YCSB's SkewedLatestGenerator: Zipfian skew anchored at the *end*
    of the key space, so the most recently inserted ids are the hottest
    (read-latest workloads — YCSB-D)."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, theta)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        ranks = self._zipf.sample(rng, size)
        if size is None:
            return self.n - 1 - ranks
        return (self.n - 1) - np.asarray(ranks)


class RotatingHotSet:
    """Zipfian popularity whose hot set *churns*: every ``rotate_every``
    draws the rank→key scatter is re-salted, so a different slice of the
    key space becomes hot (diurnal working-set drift, cache-busting).

    Within one epoch this behaves exactly like :class:`ScrambledZipfian`
    with an epoch-salted FNV scatter; across epochs the hottest keys
    move. A vectorised ``sample`` call may span epoch boundaries — each
    draw is salted with the epoch it falls in, so the stream is
    identical whether sampled one draw at a time or in bulk, and fully
    deterministic given the rng seed and construction parameters.
    """

    def __init__(
        self, n: int, theta: float = 0.99, rotate_every: int = 10_000
    ) -> None:
        if rotate_every <= 0:
            raise WorkloadError(
                f"rotate_every must be >= 1, got {rotate_every}"
            )
        self.n = n
        self.rotate_every = rotate_every
        self._zipf = ZipfianGenerator(n, theta)
        self._drawn = 0

    @property
    def epoch(self) -> int:
        """Epoch the *next* draw falls in."""
        return self._drawn // self.rotate_every

    def _scatter(self, ranks: np.ndarray, epochs: np.ndarray) -> np.ndarray:
        # Epoch-salted FNV-1a: fold the epoch into the high half of the
        # hashed word so each epoch yields an unrelated scatter.
        salted = ranks.astype(np.uint64) | (
            epochs.astype(np.uint64) << np.uint64(32)
        )
        return ScrambledZipfian._scramble(salted, self.n)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        scalar = size is None
        count = 1 if scalar else size
        ranks = np.asarray(self._zipf.sample(rng, count))
        epochs = (self._drawn + np.arange(count)) // self.rotate_every
        self._drawn += count
        keys = self._scatter(ranks, epochs)
        return int(keys[0]) if scalar else keys

    def hot_keys(self, top: int = 10, epoch: int | None = None) -> list[int]:
        """The ``top`` hottest key ids of ``epoch`` (default: current)."""
        e = self.epoch if epoch is None else epoch
        ranks = np.arange(top, dtype=np.uint64)
        return [int(k) for k in self._scatter(ranks, np.full(top, e))]


class UniformGenerator:
    """Uniform key choice (for sensitivity studies)."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise WorkloadError(f"item count must be >= 1, got {n}")
        self.n = n

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return int(rng.integers(0, self.n))
        return rng.integers(0, self.n, size=size)
