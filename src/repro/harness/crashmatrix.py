"""Deterministic crash-point matrix: crash *everywhere*, prove recovery.

The crash harness (:mod:`repro.harness.crash`) pulls the plug at one
workload-chosen instant per seed. That samples the crash space; it does
not *cover* it. This module enumerates the crash space systematically:

1. **Counting pass** — run a small, fully scripted workload (preload,
   mixed PUT/GET clients, an explicit log-cleaning cycle) with an armed
   but *empty* fault plan. The injector counts every visit to every
   injection site; those per-site operation counters are the universe of
   crash points (every persist/atomic-store boundary in the PUT
   pipeline, background verify, each log-cleaning stage, RPC dispatch).
2. **Crash pass** — for each selected ``(site, op_index)``, re-run the
   *identical* workload (same seed, same streams) with one deterministic
   rule: ``crash`` at exactly that visit. The injector's crash hook
   stops the server machinery, power-fails the node through the
   word-granular media model (in-flight stores tear at 8-byte
   granularity), and raises :class:`~repro.errors.PowerFailure`, which
   escalates out of ``env.run`` into the harness.
3. **Recover + audit** — restart the node, run the store's recovery,
   then let the shared consistency oracle (:mod:`repro.harness.oracle`,
   DESIGN.md §9b) judge every key's recovered state against the
   advertised guarantees (torn exposure, durability of acked writes,
   monotonic reads, no phantoms).
4. **Idempotence** — run recovery a *second* time and require a
   byte-identical NVM image and a second report with zero rolled-back /
   lost keys: recovery must be safe to crash and re-run.
5. **Double crash** — a separate set of points crashes *inside
   recovery itself* (site ``recovery.step``), recovers again, and holds
   the result to the same bar.
6. **Replay** — each crash point is re-run from scratch under the same
   seed up to the end of its first recovery; the NVM image there must be
   byte-identical to the original's (the whole matrix is a pure function
   of ``(store, seed, workload shape)``).

What is hashed and what is compared (DESIGN.md §9): the image after the
first recovery is fingerprinted *once* per crashed point
(:meth:`~repro.mem.buffer.PersistentBuffer.fingerprint`: equal hex
strings iff equal images), because that string is published in the
report. The two judgements made on the image — idempotence (4) and
replay (6) — are byte comparisons against one
:class:`~repro.mem.buffer.ImageSnapshot` taken at the same instant;
nothing else is hashed. Fingerprint, snapshot and comparison each cost
what the run stored to, not what the device could hold. Every instance's
NVM image is released as soon as its point is judged.

Everything here is deterministic: crash rules carry ``probability=1``
so they draw no coins, which keeps the counting pass and every crash
pass on exactly the same event sequence up to the crash instant.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import (
    OperationTimeout,
    PowerFailure,
    QPError,
    RDMAError,
    StoreError,
)
from repro.faults.injector import FaultInjector, arm_store, disarm_store
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.sites import crash_matrix_sites
from repro.harness.oracle import KeyLedger
from repro.harness.scaffold import (
    deploy, pool_bytes, preload, recover, settle, version0,
)
from repro.mem.buffer import ImageSnapshot
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment, Event, Interrupt
from repro.sim.rng import RngRegistry
from repro.stores import STORES
from repro.workloads.keyspace import make_key, make_value

__all__ = [
    "CrashMatrixSpec",
    "CrashPointResult",
    "CrashMatrixReport",
    "run_crash_matrix",
]

#: Server-side sites the matrix crashes at by default — every persist /
#: atomic-store boundary plus each background stage, derived from the
#: fault-site registry (``crash_point`` rows of
#: :data:`repro.faults.sites.SITES`, in registry order). ``recovery.step``
#: is handled separately (phase 5 above).
DEFAULT_SITES = crash_matrix_sites()


@dataclass(frozen=True)
class CrashMatrixSpec:
    """One crash-point matrix run (a pure function of these fields)."""

    store: str = "efactory"
    seed: int = 11
    n_clients: int = 2
    key_count: int = 12
    key_len: int = 16
    value_len: int = 96
    ops_per_client: int = 30
    read_fraction: float = 0.3
    #: Completed-op count at which the harness triggers a log-cleaning
    #: cycle (stores without a cleaner ignore it).
    clean_after_ops: int = 24
    evict_probability: float = 0.5
    sites: tuple[str, ...] = DEFAULT_SITES
    #: Crash points per site: the site's op counter is stride-sampled
    #: down to at most this many indexes.
    max_per_site: int = 12
    #: Double-crash points inside recovery (site ``recovery.step``).
    recovery_points: int = 6
    #: Re-run every crash point and require byte-identical state.
    replay: bool = True
    settle_ns: float = 10_000_000.0
    config_overrides: dict = field(default_factory=dict)


@dataclass
class CrashPointResult:
    """Verdict for one crash point."""

    site: str
    op_index: int
    phase: str  # "workload" | "recovery"
    crashed: bool  # the rule actually fired (False = site never reached)
    crash_summary: dict = field(default_factory=dict)
    recovery: Optional[dict] = None
    violations: list[str] = field(default_factory=list)
    weaknesses: list[str] = field(default_factory=list)
    idempotent: bool = True
    replay_identical: bool = True
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations and self.idempotent and self.replay_identical


@dataclass
class CrashMatrixReport:
    spec: CrashMatrixSpec
    site_op_counts: dict[str, int]
    results: list[CrashPointResult]

    @property
    def total_points(self) -> int:
        return sum(1 for r in self.results if r.crashed)

    @property
    def violations(self) -> list[str]:
        out = []
        for r in self.results:
            out.extend(
                f"{r.phase}:{r.site}#{r.op_index}: {v}" for v in r.violations
            )
        return out

    @property
    def non_idempotent(self) -> list[str]:
        return [
            f"{r.phase}:{r.site}#{r.op_index}"
            for r in self.results
            if r.crashed and not r.idempotent
        ]

    @property
    def replay_mismatches(self) -> list[str]:
        return [
            f"{r.phase}:{r.site}#{r.op_index}"
            for r in self.results
            if r.crashed and not r.replay_identical
        ]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def as_dict(self) -> dict[str, Any]:
        return {
            "store": self.spec.store,
            "seed": self.spec.seed,
            "site_op_counts": dict(self.site_op_counts),
            "total_points": self.total_points,
            "violations": self.violations,
            "non_idempotent": self.non_idempotent,
            "replay_mismatches": self.replay_mismatches,
            "points": [
                {
                    "site": r.site,
                    "op_index": r.op_index,
                    "phase": r.phase,
                    "crashed": r.crashed,
                    "violations": r.violations,
                    "weaknesses": r.weaknesses,
                    "idempotent": r.idempotent,
                    "replay_identical": r.replay_identical,
                    "digest": r.digest,
                }
                for r in self.results
            ],
        }


# -- one workload instance ------------------------------------------------------


class _Instance:
    """One fresh simulation of the scripted matrix workload.

    Carries everything the harness needs after the run: the (possibly
    crashed) environment, the oracle's per-key bookkeeping, and the
    armed injector. Use it as a context manager: leaving the block
    releases the server's NVM image, which would otherwise sit in the
    finished simulation's reference cycles until a generational
    collection.
    """

    def __init__(self, spec: CrashMatrixSpec, rules: tuple[FaultRule, ...]) -> None:
        self.spec = spec
        self.env = Environment()
        self.rngs = RngRegistry(spec.seed)
        puts = spec.key_count + spec.n_clients * spec.ops_per_client
        self.setup = deploy(
            spec.store, self.env, n_clients=spec.n_clients,
            overrides=spec.config_overrides,
            pool_size=pool_bytes(
                (puts, spec.key_len, spec.value_len), headroom=4, floor=4 << 20
            ),
        )
        self.server = self.setup.server
        # The injector is armed only after the preload, but the matrix
        # must be bit-identical to the seed end to end — keep the whole
        # instance (preload, workload, recovery, replay) on the full
        # event path.
        self.setup.fabric.fastpath = False
        self.keys = [make_key(k, spec.key_len) for k in range(spec.key_count)]
        self.ledger = KeyLedger(spec.key_count)
        self.state = {"completed": 0, "crashed": False}
        self.crash_info: dict[str, Any] = {}
        self.rules = rules
        self.injector: Optional[FaultInjector] = None

    def __enter__(self) -> "_Instance":
        return self

    def __exit__(self, *exc: object) -> None:
        self.server.device.release()

    # -- the scripted workload ------------------------------------------------
    def run_workload(self) -> bool:
        """Drive the workload to its end or to the crash point, and disarm;
        returns True if a crash rule fired."""
        spec, env = self.spec, self.env

        preload(
            env, self.setup, version0(self.keys, spec.value_len),
            settle_ns=spec.settle_ns,
        )

        # Arm only now: crash-point indexes count from the start of the
        # faulted window, not the preload.
        plan = FaultPlan("matrix", self.rules)
        self.injector = arm_store(self.setup, plan, rngs=self.rngs)
        self.injector.crash_hook = self._crash_hook

        procs = [
            env.process(self._client_proc(i), name=f"matrix-client{i}")
            for i in range(spec.n_clients)
        ]
        cleaner = env.process(self._cleaning_controller(), name="matrix-cleaner")

        # The whole armed window can crash: the clients' ops, the
        # settle (background verify/flush still runs), even stop().
        try:
            env.run(env.all_of(procs))
            if not self.state["crashed"]:
                if cleaner.is_alive:
                    cleaner.interrupt("done")
                settle(env, self.setup, spec.settle_ns)
                self.server.stop()
        except PowerFailure:
            pass
        for proc in procs + [cleaner]:
            if proc.is_alive:
                proc.interrupt("crash")
        self._drain(1_000.0)
        disarm_store(self.setup)
        return self.state["crashed"]

    def _client_proc(self, i: int) -> Generator[Event, Any, None]:
        spec = self.spec
        client = self.setup.client(i)
        rng = self.rngs.stream(f"matrix.client{i}")
        mine = [k for k in range(spec.key_count) if k % spec.n_clients == i]
        for _ in range(spec.ops_per_client):
            if self.state["crashed"]:
                return
            kid = int(mine[int(rng.integers(len(mine)))]) if mine else 0
            is_read = rng.random() < spec.read_fraction
            try:
                if is_read:
                    value = yield from client.get(
                        self.keys[kid], size_hint=spec.value_len
                    )
                    self.ledger.observe(kid, value)
                else:
                    ver = self.ledger.next_version(kid)
                    yield from client.put(
                        self.keys[kid], make_value(kid, ver, spec.value_len)
                    )
                    self.ledger.ack(kid, ver)
            except Interrupt:
                # Exit cleanly so the run's all_of condition completes
                # instead of re-raising during the post-crash drain.
                return
            except (StoreError, RpcFault, QPError, RDMAError, OperationTimeout):
                if self.state["crashed"]:
                    return
                continue
            self.state["completed"] += 1

    def _cleaning_controller(self) -> Generator[Event, Any, None]:
        """Deterministically trigger one log-cleaning cycle mid-run."""
        spec, env = self.spec, self.env
        trigger = getattr(self.server, "trigger_cleaning", None)
        if trigger is None:
            return
        try:
            while (
                not self.state["crashed"]
                and self.state["completed"] < spec.clean_after_ops
            ):
                yield env.timeout(5_000.0)
        except Interrupt:
            return
        if not self.state["crashed"]:
            trigger()

    def _crash_hook(self, site: str) -> None:
        """Installed on the injector; runs inside the crashing process."""
        self.state["crashed"] = True
        self.crash_info["site"] = site
        self.crash_info["time"] = self.env.now
        # Active-process-safe: stop() skips the process we are inside of
        # (it dies by the PowerFailure below).
        self.server.stop()
        self.crash_info["summary"] = self.setup.fabric.crash_node(
            self.server.node,
            self.rngs.stream("matrix.crash"),
            self.spec.evict_probability,
            tear_words=True,
        )
        raise PowerFailure(f"crash point {site}")

    # -- crashing recovery itself -----------------------------------------------
    def arm_recovery(self, rules: tuple[FaultRule, ...]) -> None:
        """Arm a fresh plan for the recovery phase (double-crash)."""
        self.injector = arm_store(
            self.setup, FaultPlan("matrix", rules), rngs=self.rngs
        )

    def crash_in_recovery(self, op_index: int) -> bool:
        """Crash at this instance's workload point, then crash *again*
        at the ``op_index``-th recovery step. False if either crash was
        never reached (recovery finishing before step ``op_index`` means
        the site's universe is smaller than requested — not an error)."""
        if not self.run_workload():
            return False
        self.arm_recovery(_crash_rule("recovery.step", op_index))

        def hook(site: str) -> None:
            self.crash_info["site2"] = site
            self.crash_info["summary2"] = self.setup.fabric.crash_node(
                self.server.node,
                self.rngs.stream("matrix.crash2"),
                self.spec.evict_probability,
                tear_words=True,
            )
            raise PowerFailure(f"double crash at {site}")

        assert self.injector is not None
        self.injector.crash_hook = hook
        crashed = False
        try:
            recover(self.setup)
        except PowerFailure:
            crashed = True
            self._drain(1_000.0)
        disarm_store(self.setup)
        return crashed

    # -- plumbing ---------------------------------------------------------------
    def _drain(self, ns: float) -> None:
        """Advance time past interrupt deliveries, swallowing any
        residual crash escalation."""
        deadline = self.env.now + ns
        while True:
            try:
                self.env.run(until=deadline)
                return
            except PowerFailure:
                continue

    def verdict(self, result: CrashPointResult, summary: str) -> ImageSnapshot:
        """Recover, fingerprint and snapshot the image, recover again
        (idempotence: the image must still equal the snapshot), and let
        the oracle judge every key's recovered state. Returns the
        snapshot for the replay to be held against."""
        result.crash_summary = dict(self.crash_info.get(summary, {}))
        report = recover(self.setup)
        result.recovery = report.as_dict() if report is not None else None
        device = self.server.device
        result.digest = device.fingerprint()
        image = device.snapshot()
        if report is not None:
            second = recover(self.setup)
            result.idempotent = (
                device.same_image(image)
                and second.keys_rolled_back == 0
                and second.keys_lost == 0
            )
        for audit in self.ledger.audit_recovered(
            self.server, self.keys, STORES[self.spec.store]
        ):
            result.violations += audit.violations
            result.weaknesses += audit.weaknesses
        return image

    def recovers_to(self, image: ImageSnapshot) -> bool:
        """Replay side of :meth:`verdict`: recover once and compare, byte
        for byte, with the original's image at that same instant."""
        recover(self.setup)
        return self.server.device.same_image(image)


# -- matrix orchestration ---------------------------------------------------------


def _crash_rule(site: str, op_index: int) -> tuple[FaultRule, ...]:
    # probability=1 -> no RNG stream is created for the rule, so the
    # crash run's event sequence matches the counting run exactly.
    return (
        FaultRule(
            kind="crash",
            site=site,
            after_op=op_index,
            before_op=op_index + 1,
            max_fires=1,
        ),
    )


def _sample(count: int, cap: int) -> list[int]:
    """Deterministic stride-sample of ``range(count)`` down to ``cap``."""
    if count <= 0:
        return []
    stride = max(1, -(-count // cap))  # ceil
    return list(range(0, count, stride))[:cap]


def _judge_point(
    spec: CrashMatrixSpec,
    rules: tuple[FaultRule, ...],
    reach: Callable[[_Instance], bool],
    result: CrashPointResult,
    summary: str,
) -> CrashPointResult:
    """One crash point: a fresh instance under ``rules`` is driven to the
    crash by ``reach``, recovered, audited and checked for idempotence;
    then, with ``spec.replay``, a second fresh instance must reach the
    same crash and recover to the same bytes."""
    with _Instance(spec, rules) as inst:
        result.crashed = reach(inst)
        if not result.crashed:
            return result
        image = inst.verdict(result, summary)
    if spec.replay:
        with _Instance(spec, rules) as replay:
            result.replay_identical = reach(replay) and replay.recovers_to(image)
    # This frame outlives the call: the PowerFailure caught below it holds
    # it through its traceback, from inside the dead simulations' reference
    # cycles. Do not let it hold two images' worth of bytes until a GC.
    del image
    return result


def run_crash_matrix(spec: CrashMatrixSpec) -> CrashMatrixReport:
    """Enumerate and execute the full crash-point matrix for ``spec``."""
    # 1. counting pass: the universe of crash points
    with _Instance(spec, ()) as counting:
        counting.run_workload()
        assert counting.injector is not None
        counts = counting.injector.site_op_counts()

    results: list[CrashPointResult] = []

    # 2-4. workload-phase crash points
    for site in spec.sites:
        for k in _sample(counts.get(site, 0), spec.max_per_site):
            results.append(_judge_point(
                spec, _crash_rule(site, k), _Instance.run_workload,
                CrashPointResult(site=site, op_index=k, phase="workload",
                                 crashed=False),
                "summary",
            ))

    # 5. double-crash points (crash during recovery of a mid-run crash):
    #    the third recovery must land the same place a clean one would
    primary = None
    if spec.recovery_points > 0 and spec.store != "ca":
        primary = _pick_primary(spec, counts)
    if primary is not None:
        # count recovery steps for that primary crash
        rec_ops = 0
        with _Instance(spec, _crash_rule(*primary)) as probe:
            if probe.run_workload():
                probe.arm_recovery(())
                recover(probe.setup)
                rec_ops = probe.injector.site_op_counts().get("recovery.step", 0)
        for k in _sample(rec_ops, spec.recovery_points):
            results.append(_judge_point(
                spec, _crash_rule(*primary),
                lambda inst, k=k: inst.crash_in_recovery(k),
                CrashPointResult(site="recovery.step", op_index=k,
                                 phase="recovery", crashed=False),
                "summary2",
            ))

    return CrashMatrixReport(spec=spec, site_op_counts=counts, results=results)


def _pick_primary(
    spec: CrashMatrixSpec, counts: dict[str, int]
) -> Optional[tuple[str, int]]:
    """The fixed mid-workload crash the double-crash points recover from:
    the middle visit of the busiest persist-path site."""
    best = None
    for site in ("nvm.persist", "nvm.flush", "nvm.store64"):
        n = counts.get(site, 0)
        if n and (best is None or n > counts.get(best, 0)):
            best = site
    if best is None:
        return None
    return best, counts[best] // 2
