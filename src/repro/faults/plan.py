"""Declarative fault plans.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultRule` specs.
Each rule names a *fault kind* from :data:`FAULT_KINDS` (what happens),
a *site pattern* (where in the stack it can happen), and a set of
*triggers* (when it happens): a per-site operation-count window, a
simulated-time window, a partition filter, and a seeded probability.

Plans are pure data — they carry no state and no randomness. All
stochastic choices are made by the
:class:`~repro.faults.injector.FaultInjector` from named
:class:`~repro.sim.rng.RngRegistry` streams, so a chaos run is exactly
reproducible from ``(plan, seed)``.

Sites form a small hierarchy and patterns may end in ``.*``::

    qp.write  qp.read  qp.cas  qp.faa  qp.send  qp.write_imm
    rpc.dispatch
    nvm.persist  nvm.flush  nvm.store64
    bg.verifier  bg.scrubber
    bg.cleaner.compress  bg.cleaner.merge  bg.cleaner.finish
    recovery.step
    cluster.node0  cluster.node1  ...  (one site per cluster node)
    admission.enter  admission.shed
    loadgen.arrival

so ``site="qp.*"`` targets every verb while ``site="qp.read"`` faults
only one-sided READs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError

__all__ = ["FaultKind", "FAULT_KINDS", "FaultRule", "FaultPlan", "site_matches"]


@dataclass(frozen=True)
class FaultKind:
    """One injectable fault type and the sites it may attach to."""

    name: str
    site_pattern: str  # a rule's default site; sites it may target
    description: str
    uses_delay: bool = False
    uses_factor: bool = False
    #: Further site patterns a rule of this kind may target.
    also_sites: tuple[str, ...] = ()

    def accepts(self, site: str) -> bool:
        """Whether a rule of this kind may attach to ``site`` (a site
        or a pattern)."""
        return any(
            site_matches(pattern, site) or site_matches(site, pattern)
            for pattern in (self.site_pattern, *self.also_sites)
        )


#: Registry of injectable faults. ``delay_ns``/``factor`` on a rule are
#: only meaningful where the kind says so.
FAULT_KINDS: dict[str, FaultKind] = {
    kind.name: kind
    for kind in (
        FaultKind(
            "qp_error",
            "qp.*",
            "the QP transitions to the error state; the verb fails "
            "immediately and every later verb fails until the client "
            "re-connects (Endpoint.reset)",
        ),
        FaultKind(
            "completion_delay",
            "qp.*",
            "the verb's completion is delayed by delay_ns (congestion, "
            "retransmission) but eventually succeeds",
            uses_delay=True,
        ),
        FaultKind(
            "completion_drop",
            "qp.*",
            "the work request is lost: after delay_ns of detection time "
            "(transport retry exhaustion) the QP errors out and the verb "
            "raises; the payload never reaches the target",
            uses_delay=True,
        ),
        FaultKind(
            "rpc_stall",
            "rpc.dispatch",
            "the server's polling thread stalls delay_ns before "
            "dispatching the next message",
            uses_delay=True,
        ),
        FaultKind(
            "nvm_spike",
            "nvm.persist",
            "one CLWB+fence sweep costs factor x the modelled latency "
            "plus delay_ns (media congestion, thermal throttling)",
            uses_delay=True,
            uses_factor=True,
        ),
        FaultKind(
            "pause",
            "bg.*",
            "the background thread (verifier, scrubber or cleaner) "
            "sleeps delay_ns before its next step; at recovery.step, "
            "recovery sleeps before its next index-repair step",
            uses_delay=True,
            also_sites=("recovery.step",),
        ),
        FaultKind(
            "nvm_bitrot",
            "nvm.*",
            "latent media corruption: right after the writeback, one bit "
            "of the persisted range flips on media (detected only by a "
            "later CRC check — the scrubber's threat model)",
        ),
        FaultKind(
            "nvm_torn_store",
            "nvm.*",
            "one aligned 8-byte word of the flushed range fails to reach "
            "the ADR domain; its line stays dirty, so only a crash "
            "before the next writeback exposes the tear",
        ),
        FaultKind(
            "node_kill",
            "cluster.*",
            "whole-node failure: the node's NIC goes dark (in-flight "
            "RDMA torn, later verbs fail target_down), its processes "
            "stop, and its NVM is preserved but unreachable; the cluster "
            "failure detector must notice and promote a backup",
        ),
        FaultKind(
            "admission_shed",
            "admission.*",
            "admission control force-sheds the request (retryable "
            "ERR_BUSY) even below the watermark, exercising the client "
            "backoff loop without real overload; fires only where "
            "admission_watermark > 0 attached a partition's Admission "
            "layer (the stateless NO_ADMISSION fires no site)",
        ),
        FaultKind(
            "client_stall",
            "loadgen.*",
            "the open-loop load generator defers this client's next "
            "arrival by delay_ns (generator-side scheduling hiccup; the "
            "op is late, not lost)",
            uses_delay=True,
        ),
        FaultKind(
            "crash",
            "*",
            "power failure at this injection-point visit: the node's "
            "in-flight state resolves per the crash model and the "
            "harness's crash hook raises PowerFailure (crash-point "
            "matrix trigger; a no-op when no hook is installed)",
        ),
    )
}


def site_matches(pattern: str, site: str) -> bool:
    """Match ``site`` against ``pattern`` (exact, ``*``, or ``prefix.*``)."""
    if pattern == "*" or pattern == site:
        return True
    if pattern.endswith(".*"):
        return site.startswith(pattern[:-1])
    return False


@dataclass(frozen=True)
class FaultRule:
    """One injectable fault plus its triggers (see module docstring).

    Trigger semantics (all must hold for the rule to fire):

    * ``after_op <= site_op_index < before_op`` — the per-site operation
      counter (every injection-point visit at a site increments it);
    * ``t_start <= now < t_end`` — simulated time window;
    * ``partition`` — only operations carrying this partition id (rules
      with a partition filter never match context-free sites);
    * ``probability`` — a seeded coin per otherwise-eligible operation;
    * ``max_fires`` — total firing budget for the rule.
    """

    kind: str
    site: str = ""
    after_op: int = 0
    before_op: int | None = None
    t_start: float = 0.0
    t_end: float = float("inf")
    partition: int | None = None
    probability: float = 1.0
    max_fires: int | None = None
    delay_ns: float = 0.0
    factor: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        spec = FAULT_KINDS.get(self.kind)
        if spec is None:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        if not self.site:
            object.__setattr__(self, "site", spec.site_pattern)
        elif not spec.accepts(self.site):
            expected = " or ".join(
                repr(p) for p in (spec.site_pattern, *spec.also_sites)
            )
            raise ConfigError(
                f"fault kind {self.kind!r} cannot attach to site {self.site!r} "
                f"(expects {expected})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("probability must be in [0, 1]")
        if self.delay_ns < 0:
            raise ConfigError("delay_ns must be >= 0")
        if self.factor <= 0:
            raise ConfigError("factor must be > 0")
        if self.after_op < 0:
            raise ConfigError("after_op must be >= 0")
        if self.before_op is not None and self.before_op <= self.after_op:
            raise ConfigError("before_op must be > after_op")
        if self.t_end <= self.t_start:
            raise ConfigError("t_end must be > t_start")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError("max_fires must be >= 1")
        if not self.name:
            object.__setattr__(self, "name", f"{self.kind}@{self.site}")

    def eligible(self, site: str, op_index: int, now: float) -> bool:
        """Deterministic (coin-free) part of the trigger check."""
        if not site_matches(self.site, site):
            return False
        if op_index < self.after_op:
            return False
        if self.before_op is not None and op_index >= self.before_op:
            return False
        return self.t_start <= now < self.t_end


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault rules.

    Rule order matters: at most one rule fires per injection-point visit,
    and earlier rules win ties deterministically.
    """

    name: str
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a fault plan needs a name")
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def empty(self) -> bool:
        return not self.rules

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> "Iterable[FaultRule]":
        return iter(self.rules)
