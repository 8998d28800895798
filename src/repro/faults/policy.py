"""Client-side resilience: retry/backoff policy and partition health.

:class:`RetryPolicy` is configuration — the per-attempt deadline is its
one field, the values below are its class constants;
:class:`ClientResilience` is the per-client state machine the store
clients consult:

* **timeout + retry** — each operation attempt races a timeout; a
  transport fault (QP error, dropped completion, timeout) or a
  retryable RPC fault triggers capped exponential backoff with seeded
  jitter, up to ``max_retries`` re-attempts;
* **re-connect** — when the client's QP (either direction) is in the
  error state, the retry loop re-establishes the connection before the
  next attempt (modelled as ``reconnect_ns`` plus a QP reset);
* **graceful degradation** — ``degrade_threshold`` *consecutive*
  one-sided read faults on a partition demote that partition to the
  RPC+RDMA read path (the same per-partition routing the log cleaner
  uses) for ``degrade_window_ns``; after the window the partition is
  *probing*: one successful pure read promotes it back, one more fault
  re-demotes it immediately.

Attaching a policy is opt-in per client; an unattached client behaves
bit-for-bit as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from repro.errors import ConfigError
from repro.sim.trace import Tracer

__all__ = ["RetryPolicy", "PartitionHealth", "ClientResilience"]


@dataclass(frozen=True)
class RetryPolicy:
    """The per-attempt deadline, plus the fixed retry, re-connect and
    degradation constants of the resilience machinery (times in ns)."""

    timeout_ns: float = 2_000_000.0  # per-attempt deadline (0 disables)

    max_retries: ClassVar[int] = 6
    backoff_base_ns: ClassVar[float] = 2_000.0
    backoff_factor: ClassVar[float] = 2.0
    backoff_max_ns: ClassVar[float] = 200_000.0
    jitter: ClassVar[float] = 0.2  # +/- fraction of the backoff, seeded
    reconnect_ns: ClassVar[float] = 5_000.0  # QP teardown + re-establish cost
    degrade_threshold: ClassVar[int] = 3  # consecutive pure-read faults to demote
    degrade_window_ns: ClassVar[float] = 500_000.0  # demotion length before probing

    def __post_init__(self) -> None:
        if self.timeout_ns < 0:
            raise ConfigError("timeout_ns must be >= 0")


class PartitionHealth:
    """Degradation state of one partition, as seen by one client."""

    __slots__ = ("consecutive_faults", "degraded_until", "probing")

    def __init__(self) -> None:
        self.consecutive_faults = 0
        self.degraded_until = 0.0
        self.probing = False


class ClientResilience:
    """Per-client retry/backoff/degradation state (see module docstring)."""

    def __init__(
        self,
        policy: RetryPolicy,
        rng: np.random.Generator,
        tracer: Optional[Tracer] = None,
        name: str = "client",
    ) -> None:
        self.policy = policy
        self.rng = rng
        self.tracer = tracer
        self.name = name
        self._health: dict[int, PartitionHealth] = {}
        # counters (surface of the chaos report)
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0
        self.gave_up = 0
        self.demotions = 0
        self.promotions = 0

    # -- backoff ---------------------------------------------------------------
    def backoff_ns(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), with seeded jitter."""
        p = self.policy
        base = min(
            p.backoff_max_ns,
            p.backoff_base_ns * (p.backoff_factor ** (attempt - 1)),
        )
        if p.jitter > 0:
            base *= 1.0 + p.jitter * (2.0 * float(self.rng.random()) - 1.0)
        return base

    # -- bookkeeping hooks -------------------------------------------------------
    def note_retry(self, op: str, attempt: int, cause: str) -> None:
        self.retries += 1
        if self.tracer is not None:
            self.tracer.record("retry", f"{self.name} {op} attempt={attempt} {cause}")

    def note_timeout(self) -> None:
        self.timeouts += 1

    def note_reconnect(self) -> None:
        self.reconnects += 1
        if self.tracer is not None:
            self.tracer.record("reconnect", self.name)

    def note_gave_up(self, op: str) -> None:
        self.gave_up += 1
        if self.tracer is not None:
            self.tracer.record("gave_up", f"{self.name} {op}")

    # -- partition degradation ---------------------------------------------------
    def partition_degraded(self, part: int, now: float) -> bool:
        """True while ``part`` should stay on the RPC read path.

        Crossing the end of the demotion window flips the partition to
        *probing* (pure reads allowed again, promotion pending).
        """
        h = self._health.get(part)
        if h is None:
            return False
        if h.degraded_until > now:
            return True
        if h.degraded_until > 0.0 and not h.probing:
            h.probing = True
        return False

    def note_pure_fault(self, part: int, now: float) -> None:
        """A one-sided read on ``part`` hit a transport fault."""
        h = self._health.setdefault(part, PartitionHealth())
        h.consecutive_faults += 1
        if h.probing or h.consecutive_faults >= self.policy.degrade_threshold:
            h.degraded_until = now + self.policy.degrade_window_ns
            h.probing = False
            self.demotions += 1
            if self.tracer is not None:
                self.tracer.record("demote", f"{self.name} part={part}")

    def note_pure_ok(self, part: int) -> None:
        """A one-sided read on ``part`` completed at the transport level."""
        h = self._health.get(part)
        if h is None:
            return
        if h.probing:
            self.promotions += 1
            if self.tracer is not None:
                self.tracer.record("promote", f"{self.name} part={part}")
        h.consecutive_faults = 0
        h.degraded_until = 0.0
        h.probing = False

    def degraded_partitions(self, now: float) -> list[int]:
        return sorted(
            part for part, h in self._health.items() if h.degraded_until > now
        )

    def snapshot(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "reconnects": self.reconnects,
            "gave_up": self.gave_up,
            "demotions": self.demotions,
            "promotions": self.promotions,
        }
