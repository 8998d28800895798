"""The fault injector: arms a plan against a deployed store.

Injection hooks throughout the stack (``rdma/qp.py``, ``rdma/rpc.py``,
``nvm/device.py``, ``core/background.py``, ``core/log_cleaning.py``)
each perform a single attribute check — ``injector is None`` — so an
unarmed system pays nothing, the same pattern as
:class:`~repro.sim.trace.Tracer`. An armed-but-empty plan yields no
events at any hook, so it provably changes no simulated timings.

Determinism: every probabilistic rule draws from its own named
:class:`~repro.sim.rng.RngRegistry` stream
(``fault.<plan>.<rule-index>.<kind>``), and coins are only spent on
operations that pass the rule's deterministic trigger checks, so the
fault schedule is a pure function of ``(plan, seed, workload)``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.faults.plan import FaultPlan
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

__all__ = ["FaultAction", "FaultEvent", "FaultInjector", "arm_store", "disarm_store"]


class FaultAction:
    """What a hook should do right now (returned by :meth:`FaultInjector.fire`)."""

    __slots__ = ("kind", "delay_ns", "factor", "rule")

    def __init__(self, kind: str, delay_ns: float, factor: float, rule: str) -> None:
        self.kind = kind
        self.delay_ns = delay_ns
        self.factor = factor
        self.rule = rule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultAction {self.kind} rule={self.rule}>"


class FaultEvent:
    """One injected fault, for the chaos report and reproducibility checks."""

    __slots__ = ("time", "site", "kind", "rule", "op_index", "partition")

    def __init__(
        self,
        time: float,
        site: str,
        kind: str,
        rule: str,
        op_index: int,
        partition: Optional[int],
    ) -> None:
        self.time = time
        self.site = site
        self.kind = kind
        self.rule = rule
        self.op_index = op_index
        self.partition = partition

    def as_tuple(self) -> tuple:
        return (self.time, self.site, self.kind, self.rule, self.op_index, self.partition)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultEvent(t={self.time:.1f}, {self.site}, {self.kind})"


class FaultInjector:
    """Evaluates an armed :class:`FaultPlan` at every injection point."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        rngs: RngRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.plan = plan
        self.tracer = tracer
        self._rngs = [
            rngs.stream(f"fault.{plan.name}.{i}.{rule.kind}")
            if rule.probability < 1.0
            else None
            for i, rule in enumerate(plan.rules)
        ]
        self._fires = [0] * len(plan.rules)
        self._site_ops: dict[str, int] = {}
        #: Dedicated stream for media-fault placement (which bit flips,
        #: which word tears) — separate from the per-rule trigger coins
        #: so adding a media rule never perturbs other rules' draws.
        self.media_rng = rngs.stream(f"fault.{plan.name}.media")
        #: Installed by the crash harness: called (with the site name)
        #: when a ``crash`` rule fires; expected to power-fail the node
        #: and raise :class:`~repro.errors.PowerFailure`. Without a hook
        #: a ``crash`` rule is inert (the action is returned and hooks
        #: ignore the unknown kind).
        self.crash_hook = None
        #: Every fault injected, in firing order.
        self.events: list[FaultEvent] = []
        # One-shot partition context for sites that lack their own
        # (one-sided verbs): set by the client immediately before the
        # verb's ``yield from``, consumed at the verb's injection point
        # in the same kernel step, so it cannot leak across processes.
        self._ctx_partition: Optional[int] = None

    # -- partition context ---------------------------------------------------
    def set_context_partition(self, part: Optional[int]) -> None:
        self._ctx_partition = part

    def pop_context_partition(self) -> Optional[int]:
        part = self._ctx_partition
        self._ctx_partition = None
        return part

    # -- the hook entry point ------------------------------------------------
    def fire(self, site: str, partition: Optional[int] = None) -> Optional[FaultAction]:
        """Evaluate the plan at one injection-point visit.

        Returns the action of the first rule that fires (plan order), or
        None. Increments the per-site operation counter either way.
        """
        op_index = self._site_ops.get(site, 0)
        self._site_ops[site] = op_index + 1
        now = self.env.now
        for i, rule in enumerate(self.plan.rules):
            if self._fires[i] == rule.max_fires:  # None never equals an int
                continue
            if not rule.eligible(site, op_index, now):
                continue
            if rule.partition is not None and partition != rule.partition:
                continue
            rng = self._rngs[i]
            if rng is not None and rng.random() >= rule.probability:
                continue
            self._fires[i] += 1
            self.events.append(
                FaultEvent(now, site, rule.kind, rule.name, op_index, partition)
            )
            if self.tracer is not None:
                where = site if partition is None else f"{site}[p{partition}]"
                self.tracer.record(f"fault.{rule.kind}", f"{where}#{op_index}")
            if rule.kind == "crash" and self.crash_hook is not None:
                self.crash_hook(site)  # raises PowerFailure
            return FaultAction(rule.kind, rule.delay_ns, rule.factor, rule.name)
        return None

    # -- reporting ------------------------------------------------------------
    def schedule(self) -> list[tuple]:
        """The full fault schedule as comparable tuples (reproducibility)."""
        return [ev.as_tuple() for ev in self.events]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def site_op_counts(self) -> dict[str, int]:
        return dict(self._site_ops)


def arm_store(
    setup: Any,
    plan: FaultPlan,
    *,
    rngs: RngRegistry,
    tracer: Optional[Tracer] = None,
) -> FaultInjector:
    """Arm ``plan`` against a deployed :class:`~repro.stores.StoreSetup`
    or :class:`~repro.cluster.node.ClusterSetup`.

    Installs one shared injector on the fabric (QP verbs), each server's
    NVM device (flush spikes) and RPC dispatch loop (stalls), and the
    cluster's kill-tick if there is one; the background threads reach it
    through ``server.fabric``.
    """
    injector = FaultInjector(setup.env, plan, rngs, tracer=tracer)
    setup.fabric.injector = injector
    # Every server's RPC loop and NVM device shares the one injector,
    # and a cluster's kill-tick polls the ``cluster.*`` sites.
    for server in setup.servers:
        server.rpc.injector = injector
        if server.device is not None:
            server.device.injector = injector
    if setup.cluster is not None:
        setup.cluster.arm(injector)
    return injector


def disarm_store(setup: Any) -> None:
    """Remove an armed injector; every hook reverts to zero cost."""
    setup.fabric.injector = None
    for server in setup.servers:
        server.rpc.injector = None
        if server.device is not None:
            server.device.injector = None
    if setup.cluster is not None:
        setup.cluster.disarm()
