"""Deterministic named random-number streams.

Every stochastic component of the simulation (workload key choice, crash
timing, natural-eviction coin flips, ...) draws from its own named
stream so that

* runs are exactly reproducible given a root seed, and
* adding randomness to one component never perturbs another
  (no shared-stream coupling).

Streams are NumPy :class:`~numpy.random.Generator` instances derived from
a root :class:`~numpy.random.SeedSequence` keyed by a stable 64-bit hash
of the stream name (Python's builtin ``hash`` is salted per-interpreter,
so we use FNV-1a instead).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["fnv1a_64", "RngRegistry"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Memo of :func:`fnv1a_64` over ``bytes`` inputs: every op hashes its key
#: (index fingerprint) and its value seed again, with a per-byte Python
#: loop. Emptied when it reaches ``_FNV_MEMO_CAP`` entries, which bounds
#: its memory; a pure function's memo cannot change a result.
_FNV_MEMO: dict[bytes, int] = {}
_FNV_MEMO_CAP = 1 << 14


def _fnv1a(data: bytes | bytearray | memoryview) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a_64(data: bytes | bytearray | memoryview | str) -> int:
    """64-bit FNV-1a hash — stable across processes and Python versions."""
    if type(data) is bytes:
        h = _FNV_MEMO.get(data)
        if h is None:
            h = _fnv1a(data)
            if len(_FNV_MEMO) >= _FNV_MEMO_CAP:
                _FNV_MEMO.clear()
            _FNV_MEMO[data] = h
        return h
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _fnv1a(data)


class RngRegistry:
    """Factory of independent, reproducible random streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("workload.client0")
    >>> b = rngs.stream("crash")
    >>> a is rngs.stream("workload.client0")   # memoised
    True
    """

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (memoised) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, fnv1a_64(name)])
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(seed=(self.seed ^ fnv1a_64(name)) & _MASK64)
