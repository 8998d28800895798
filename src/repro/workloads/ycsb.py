"""YCSB-style workload specifications (paper §5.2).

The full A–F core suite plus update-only, over long-tailed key
distributions:

=============  =====  =====  =====  =====  ==============
workload       GET    PUT    RMW    SCAN   distribution
=============  =====  =====  =====  =====  ==============
YCSB-C          100%    0%     0%     0%   zipfian
YCSB-B           95%    5%     0%     0%   zipfian
YCSB-A           50%   50%     0%     0%   zipfian
YCSB-D           95%    5%     0%     0%   latest
YCSB-E            0%    5%     0%    95%   zipfian
YCSB-F           50%    0%    50%     0%   zipfian
update-only       0%  100%     0%     0%   zipfian
=============  =====  =====  =====  =====  ==============

(YCSB-F's read-modify-write is a GET followed by a dependent PUT of the
same key — two store operations measured as one application op.
YCSB-D's "latest" skew targets the most recently inserted ids. The
store has no range index, so YCSB-E's scans *degrade* to bursts of
sequential point GETs — key ``k``, ``k+1``, … for a uniformly drawn
scan length — which is exactly what a YCSB client does against a
hash-only KV binding.)

A workload pregenerates each client's operation stream (vectorised) so
the simulation's hot loop does no distribution sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Literal, NamedTuple

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.zipf import ScrambledZipfian, SkewedLatest, UniformGenerator

__all__ = [
    "WorkloadSpec",
    "Op",
    "ycsb_a",
    "ycsb_b",
    "ycsb_c",
    "ycsb_d",
    "ycsb_e",
    "ycsb_f",
    "update_only",
    "WORKLOADS",
]

OpKind = Literal["get", "put", "rmw"]


class Op(NamedTuple):
    """One operation in a client's stream: an immutable record whose
    ``hash`` and ``==`` are those of ``(kind, key_id)``, as a frozen
    dataclass of the same fields would give."""

    kind: OpKind
    key_id: int


#: Builds records from ready field tuples (``map`` over it makes a stream
#: without a Python-level constructor call per op).
_new_record = tuple.__new__

#: Op kinds by code: 0 below the read fraction, 1 below read + RMW, else 2.
_KINDS = ("get", "rmw", "put")


@lru_cache(maxsize=32)
def _stateless_sampler(distribution: str, key_count: int, theta: float):
    """The key sampler of a distribution, built once per shape: these
    samplers keep no state between draws, so one instance serves every
    stream (a :class:`~repro.workloads.zipf.RotatingHotSet` does, and is
    never built here)."""
    if distribution == "zipfian":
        return ScrambledZipfian(key_count, theta)
    if distribution == "latest":
        return SkewedLatest(key_count, theta)
    return UniformGenerator(key_count)


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible multi-client workload."""

    name: str
    read_fraction: float
    rmw_fraction: float = 0.0
    #: Fraction of application ops that are scans; each expands into a
    #: burst of 1..max_scan_len sequential point GETs (no range index).
    scan_fraction: float = 0.0
    max_scan_len: int = 16
    key_count: int = 2048
    key_len: int = 16
    value_len: int = 1024
    distribution: Literal["zipfian", "uniform", "latest"] = "zipfian"
    zipf_theta: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be in [0,1]")
        if not 0.0 <= self.rmw_fraction <= 1.0 - self.read_fraction:
            raise WorkloadError(
                "rmw_fraction must fit in the remaining op budget"
            )
        if not 0.0 <= self.scan_fraction <= 1.0 - self.read_fraction - self.rmw_fraction:
            raise WorkloadError(
                "scan_fraction must fit in the remaining op budget"
            )
        if self.max_scan_len < 1:
            raise WorkloadError("max_scan_len must be >= 1")
        if self.key_count <= 0:
            raise WorkloadError("key_count must be >= 1")
        if self.value_len < 16:
            raise WorkloadError("value_len must be >= 16 (oracle header)")

    def with_(self, **kw) -> "WorkloadSpec":
        from dataclasses import replace

        return replace(self, **kw)

    def _sampler(self):
        return _stateless_sampler(self.distribution, self.key_count, self.zipf_theta)

    def client_stream(
        self, rng: np.random.Generator, n_ops: int
    ) -> list[Op]:
        """Pregenerate one client's operation list (exactly ``n_ops``
        store operations; scan bursts are truncated at the budget)."""
        sampler = self._sampler()
        keys = np.asarray(sampler.sample(rng, n_ops))
        roll = rng.random(n_ops)
        if self.scan_fraction == 0.0:
            # The seed's exact two-draw sequence: streams of every
            # scan-free workload stay bit-identical.
            codes = (roll >= self.read_fraction).astype(np.int8) + (
                roll >= self.read_fraction + self.rmw_fraction
            )
            kinds = map(_KINDS.__getitem__, codes.tolist())
            return list(map(_new_record, repeat(Op), zip(kinds, keys.tolist())))
        scan_hi = self.read_fraction + self.rmw_fraction + self.scan_fraction
        kinds = np.where(
            roll < self.read_fraction,
            "get",
            np.where(
                roll < self.read_fraction + self.rmw_fraction,
                "rmw",
                np.where(roll < scan_hi, "scan", "put"),
            ),
        )
        lens = rng.integers(1, self.max_scan_len + 1, size=n_ops)
        n = self.key_count
        ops: list[Op] = []
        for kind, k, length in zip(kinds.tolist(), keys.tolist(), lens.tolist()):
            if kind == "scan":
                for i in range(length):
                    ops.append(Op("get", (int(k) + i) % n))
                    if len(ops) == n_ops:
                        break
            else:
                ops.append(Op(kind, int(k)))
            if len(ops) == n_ops:
                break
        return ops

    def hot_keys(self, top: int = 10) -> list[int]:
        """The most popular key ids (diagnostics)."""
        sampler = self._sampler()
        if isinstance(sampler, UniformGenerator):
            return list(range(min(top, self.key_count)))
        if isinstance(sampler, SkewedLatest):
            return [self.key_count - 1 - i for i in range(min(top, self.key_count))]
        return [int(k) for k in sampler._map[:top]]


def ycsb_c(**kw) -> WorkloadSpec:
    """Read-only (100% GET)."""
    return WorkloadSpec(name="YCSB-C", read_fraction=1.0, **kw)


def ycsb_b(**kw) -> WorkloadSpec:
    """Read-intensive (95% GET / 5% PUT)."""
    return WorkloadSpec(name="YCSB-B", read_fraction=0.95, **kw)


def ycsb_a(**kw) -> WorkloadSpec:
    """Write-intensive (50% GET / 50% PUT)."""
    return WorkloadSpec(name="YCSB-A", read_fraction=0.5, **kw)


def ycsb_d(**kw) -> WorkloadSpec:
    """Read-latest (95% GET / 5% PUT, skew toward recent inserts)."""
    kw.setdefault("distribution", "latest")
    return WorkloadSpec(name="YCSB-D", read_fraction=0.95, **kw)


def ycsb_e(**kw) -> WorkloadSpec:
    """Scan-heavy (95% scan / 5% PUT); scans degrade to point-GET
    bursts — this store has no range index."""
    return WorkloadSpec(
        name="YCSB-E", read_fraction=0.0, scan_fraction=0.95, **kw
    )


def ycsb_f(**kw) -> WorkloadSpec:
    """Read-modify-write (50% GET / 50% RMW)."""
    return WorkloadSpec(name="YCSB-F", read_fraction=0.5, rmw_fraction=0.5, **kw)


def update_only(**kw) -> WorkloadSpec:
    """Update-only (100% PUT)."""
    return WorkloadSpec(name="update-only", read_fraction=0.0, **kw)


#: The paper's four workloads in Figure 9 order (a..d), then the rest of
#: the YCSB core suite (D, E) — appended so every pre-existing sweep
#: that iterates this dict keeps its original cell order.
WORKLOADS = {
    "YCSB-C": ycsb_c,
    "YCSB-B": ycsb_b,
    "YCSB-A": ycsb_a,
    "YCSB-F": ycsb_f,
    "update-only": update_only,
    "YCSB-D": ycsb_d,
    "YCSB-E": ycsb_e,
}
