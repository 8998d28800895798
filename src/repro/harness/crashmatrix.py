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
2. **Armed pass** (with replay) — run the *identical* workload once more
   with every selected crash rule armed, the double-crash primary (5)
   included. Its crash hook does not crash: at each firing it takes a
   *crash capsule* — the server device's touched chunks of both images
   and their dirty lines, the fabric's WRITEs on the wire to the server,
   a copy of the oracle's ledger, the instant — and lets the run go on
   (a returned ``crash`` action is inert at every site). Its per-site
   counts must equal the counting pass's; if they do not, the pass did
   not reproduce the run it was meant to, and every point is judged
   from scratch (3) and reported as not deterministic.
3. **Crash** — a point is crashed from its capsule: the store is
   deployed into a fresh environment at the captured instant, loaded
   with the capsule, and power-failed exactly as the crash hook does it
   (stop the server machinery, crash the node through the word-granular
   media model — in-flight stores tear at 8-byte granularity — and
   drain as long as the from-scratch run does: see
   :class:`_Capsule`). Without capsules (no replay) a point re-runs the
   workload from scratch with one deterministic rule, ``crash`` at
   exactly that visit, whose hook power-fails the node and raises
   :class:`~repro.errors.PowerFailure` out of ``env.run``.
4. **Recover + audit + idempotence** — restart the node, run the store's
   recovery, then let the shared consistency oracle
   (:mod:`repro.harness.oracle`, DESIGN.md §9b) judge every key's
   recovered state against the advertised guarantees (torn exposure,
   durability of acked writes, monotonic reads, no phantoms). Recovery
   runs a *second* time and must leave a byte-identical NVM image and
   a second report with zero rolled-back / lost keys: recovery must be
   safe to crash and re-run.
5. **Double crash** — a separate set of points crashes *inside
   recovery itself* (site ``recovery.step``) after one fixed primary
   crash, recovers again, and holds the result to the same bar.
6. **Replay** — each crash point is re-run from scratch under the same
   seed, really crashing, up to the end of its first recovery; its NVM
   image there must be byte-identical to the original's, and its crash
   summary and recovery report equal (the whole matrix is a pure
   function of ``(store, seed, workload shape)``, and a capsule crash
   is the crash it stands for).

What is hashed and what is compared (DESIGN.md §9): the image after the
first recovery is fingerprinted *once* per crashed point
(:meth:`~repro.mem.buffer.PersistentBuffer.fingerprint`: equal hex
strings iff equal images), because that string is published in the
report. The two judgements made on the image — idempotence (4) and
replay (6) — are byte comparisons against one
:class:`~repro.mem.buffer.ImageSnapshot` taken at the same instant;
nothing else is hashed. Capsule, fingerprint, snapshot and comparison
each cost what the run stored to, not what the device could hold.
Every instance's NVM image is released as soon as its point is judged.

Everything here is deterministic: crash rules carry ``probability=1``
so they draw no coins, which keeps the counting pass, the armed pass
and every from-scratch crash on exactly the same event sequence up to
the crash instant.

**One process per CPU.** Once the points are chosen and the armed pass
has taken their capsules, each point's verdict (3, 4, 6) is a pure
function of ``(spec, point, capsule)``: no point reads what another
left behind. :func:`_judge_all` therefore splits a round of points over
as many processes as this process may run on (its CPU affinity mask;
there is no option for it), at most one per point. Share ``i`` of ``n``
is every ``n``-th point from the ``i``-th; the calling process judges
share 0, and each other share is judged in an ``os.fork``-ed child,
which inherits the capsules, sends back only its share's
:class:`CrashPointResult` list, pickled, through a pipe and leaves with
``os._exit``. The results are put back in point order, so the report is
byte for byte the one a single process writes, whatever the number of
processes: each result is computed by the same code from the same
inputs, and only its position depends on the split. No NVM image or
:class:`~repro.mem.buffer.ImageSnapshot` leaves the process that judged
its point; the idempotence and replay comparisons stay in-process byte
compares. A child that dies, or exits without writing its results, has
its share judged again by the caller, so an exception a point raises
surfaces exactly as it does in one process; the caller kills and reaps
every child it has not collected before it returns or raises. With one
CPU it is the plain loop, with no fork. The workload points are one
round and the double-crash points another, with the recovery-step
probe between them, as in one process. On a 2-CPU box the default
82-point matrix takes ≈ 0.57 s instead of ≈ 0.93 s. What a profiler or
``RUSAGE_SELF`` sees of the run is the calling process's share only.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Generator, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple, Optional

from repro.errors import ConfigError, PowerFailure
from repro.faults.injector import FaultInjector, arm_store, disarm_store
from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.sites import crash_matrix_sites, is_known_site
from repro.harness.oracle import KeyLedger
from repro.harness.scaffold import (
    ClosedLoop, Draw, check_shape, deploy, pool_bytes, preload, recover, settle,
    version0,
)
from repro.mem.buffer import ImageCapture, ImageSnapshot
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.stores import STORES

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

#: Completed-op count at which the harness triggers a log-cleaning cycle
#: (stores without a cleaner ignore it).
_CLEAN_AFTER_OPS = 24


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
    evict_probability: float = 0.5
    sites: tuple[str, ...] = DEFAULT_SITES
    #: Crash points per site: the site's op counter is stride-sampled
    #: down to at most this many indexes.
    max_per_site: int = 12
    #: Double-crash points inside recovery (site ``recovery.step``).
    recovery_points: int = 6
    #: Re-run every crash point from scratch and require the original's
    #: bytes, crash summary and recovery report. With it the originals
    #: are judged on the armed pass's crash capsules; without it each
    #: crashes from scratch.
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


class _Capsule(NamedTuple):
    """What the armed pass records at one crash instant: everything the
    power failure and the recovery after it read of the run."""

    time: float
    device: ImageCapture
    #: The WRITEs on the wire to the server. One still in its sender's
    #: TX engine is left alone by the crash and withdrawn by its verb.
    inflight: tuple[tuple[int, bytes, float, float], ...]
    ledger: KeyLedger
    #: How long a from-scratch run drains after this crash before its
    #: recovery starts. A crash while the clients run ends the drain at
    #: the crash instant: the clients take their interrupts at once, and
    #: their ``all_of`` — still subscribed by the ``env.run`` the crash
    #: escaped — stops the drain's ``env.run`` when it fires. A crash in
    #: the settle drains the whole microsecond.
    drain_ns: float


class _Instance:
    """One fresh simulation of the scripted matrix workload.

    There are two ways in: from scratch (:meth:`run_workload`, which
    runs up to the crash its ``rules`` arm), or from a capsule
    (:meth:`from_capsule`, deployed at the crash instant). Either way
    the instance then carries everything the verdict needs: the crashed
    environment, the oracle's per-key bookkeeping, and the armed
    injector. Use it as a context manager: leaving the block releases
    the server's NVM image, which would otherwise sit in the finished
    simulation's reference cycles until a generational collection.
    """

    def __init__(
        self, spec: CrashMatrixSpec, rules: tuple[FaultRule, ...] = (),
        *, now: float = 0.0,
    ) -> None:
        self.spec = spec
        self.env = Environment(initial_time=now)
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
        self.loop = ClosedLoop(
            self.env, self.setup, spec.key_count, spec.key_len, spec.value_len
        )
        self.clients_done = False
        self.crash_info: dict[str, Any] = {}
        self.rules = rules
        self.injector: Optional[FaultInjector] = None
        #: The first recovery's report, as :meth:`recovers_to` saw it.
        self.recovery: Optional[dict] = None

    @classmethod
    def from_capsule(cls, spec: CrashMatrixSpec, capsule: _Capsule) -> "_Instance":
        """A fresh deployment at the capsule's instant, loaded with it and
        power-failed as the crash hook does it, then drained as
        :meth:`run_workload` drains a crash: the state a from-scratch run
        stands in when its crash rule has fired."""
        inst = cls(spec, now=capsule.time)
        inst.server.device.buffer.restore(capsule.device)
        inst.setup.fabric.adopt_inflight(inst.server.node, capsule.inflight)
        inst.loop.ledger = capsule.ledger.copy()
        inst._power_fail()
        inst._drain(capsule.drain_ns)
        return inst

    def __enter__(self) -> "_Instance":
        return self

    def __exit__(self, *exc: object) -> None:
        self.server.device.buffer.release()

    # -- the scripted workload ------------------------------------------------
    def run_workload(self, capsules: Optional[dict[Point, _Capsule]] = None) -> bool:
        """Drive the workload to its end or to the crash point, and disarm;
        returns True if a crash rule fired. With ``capsules`` (the armed
        pass) no rule crashes: each firing stores its
        ``(site, op_index)``'s :class:`_Capsule` there instead."""
        spec, env = self.spec, self.env

        preload(
            env, self.setup, version0(self.loop.keys, spec.value_len),
            settle_ns=spec.settle_ns,
        )

        # Arm only now: crash-point indexes count from the start of the
        # faulted window, not the preload.
        plan = FaultPlan("matrix", self.rules)
        self.injector = arm_store(self.setup, plan, rngs=self.rngs)
        self.injector.crash_hook = (
            self._crash_hook if capsules is None
            else partial(self._take_capsule, capsules)
        )

        procs = self.loop.run(
            (self._ops(i) for i in range(spec.n_clients)), name="matrix-client"
        )
        cleaner = env.process(self._cleaner(), name="matrix-cleaner")

        # The whole armed window can crash: the clients' ops, the
        # settle (background verify/flush still runs), even stop().
        try:
            env.run(env.all_of(procs))
            self.clients_done = True
            if not self.loop.stopped:
                if cleaner.is_alive:
                    cleaner.interrupt("done")
                settle(env, self.setup, spec.settle_ns)
                self.server.stop()
        except PowerFailure:
            pass
        self.loop.interrupt()
        if cleaner.is_alive:
            cleaner.interrupt("crash")
        self._drain(1_000.0)
        disarm_store(self.setup)
        return self.loop.stopped

    def _ops(self, i: int) -> Iterator[Draw]:
        """Client ``i``'s ops: its own keys, PUT or GET; a client that
        owns no key (more clients than keys) only reads, so every key
        keeps a single writer."""
        spec = self.spec
        rng = self.rngs.stream(f"matrix.client{i}")
        mine = [k for k in range(spec.key_count) if k % spec.n_clients == i]
        for _ in range(spec.ops_per_client):
            if not mine:
                yield "get", int(rng.integers(spec.key_count))
                continue
            kid = mine[int(rng.integers(len(mine)))]
            yield ("get" if rng.random() < spec.read_fraction else "put"), kid

    def _cleaner(self) -> Generator[Event, Any, None]:
        """Deterministically trigger one log-cleaning cycle mid-run."""
        trigger = getattr(self.server, "trigger_cleaning", None)
        if trigger is not None and (
            yield from self.loop.until(_CLEAN_AFTER_OPS)
        ):
            trigger()

    def _power_fail(self) -> None:
        """Stop the server machinery and power-fail its node."""
        self.crash_info["summary"] = self.loop.power_fail(
            self.rngs.stream("matrix.crash"), self.spec.evict_probability,
            tear_words=True,
        )

    def _crash_hook(self, site: str) -> None:
        """Installed on the injector; runs inside the crashing process."""
        self._power_fail()
        raise PowerFailure(f"crash point {site}")

    def _take_capsule(self, capsules: dict[Point, _Capsule], site: str) -> None:
        """The armed pass's crash hook: record this instant, crash nothing."""
        assert self.injector is not None
        point = (site, self.injector.events[-1].op_index)
        last = next(reversed(capsules.values()), None)
        now = self.env.now
        flying = self.setup.fabric.inflight_to(self.server.node)
        capsules[point] = _Capsule(
            now,
            self.server.device.buffer.capture(like=last and last.device),
            tuple(w for w in flying if w[2] <= now),
            self.loop.ledger.copy(),
            1_000.0 if self.clients_done else 0.0,
        )

    # -- crashing recovery itself -----------------------------------------------
    def arm_recovery(self, rules: tuple[FaultRule, ...]) -> None:
        """Arm a fresh plan for the recovery phase (double-crash)."""
        self.injector = arm_store(
            self.setup, FaultPlan("matrix", rules), rngs=self.rngs
        )

    def crash_in_recovery(self, op_index: int) -> bool:
        """On an instance past its workload crash, crash *again* at the
        ``op_index``-th recovery step. False if that step is never
        reached (recovery finishing before step ``op_index`` means the
        site's universe is smaller than requested — not an error)."""
        self.arm_recovery(_crash_rule("recovery.step", op_index))

        def hook(site: str) -> None:
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
        buf = self.server.device.buffer
        result.digest = buf.fingerprint()
        image = buf.snapshot()
        if report is not None:
            second = recover(self.setup)
            result.idempotent = (
                buf.same_image(image)
                and second.keys_rolled_back == 0
                and second.keys_lost == 0
            )
        for audit in self.loop.ledger.audit_recovered(
            self.server, self.loop.keys, STORES[self.spec.store]
        ):
            result.violations += audit.violations
            result.weaknesses += audit.weaknesses
        return image

    def recovers_to(self, image: ImageSnapshot) -> bool:
        """Replay side of :meth:`verdict`: recover once and compare, byte
        for byte, with the original's image at that same instant."""
        report = recover(self.setup)
        self.recovery = report.as_dict() if report is not None else None
        return self.server.device.buffer.same_image(image)

    def judged_like(self, result: CrashPointResult, summary: str) -> bool:
        """After :meth:`recovers_to`: the crash resolved and the first
        recovery reported exactly what the original's did."""
        return (
            dict(self.crash_info.get(summary, {})) == result.crash_summary
            and self.recovery == result.recovery
        )


# -- matrix orchestration ---------------------------------------------------------

Point = tuple[str, int]  # (site, op_index)


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


@contextmanager
def _crashed(
    spec: CrashMatrixSpec, point: Point, capsule: Optional[_Capsule]
) -> Iterator[Optional[_Instance]]:
    """An instance standing right after the crash at ``point`` — loaded
    from its capsule, or, without one, run from scratch up to it — for
    the block; None if the crash is never reached."""
    if capsule is not None:
        with _Instance.from_capsule(spec, capsule) as inst:
            yield inst
        return
    with _Instance(spec, _crash_rule(*point)) as inst:
        yield inst if inst.run_workload() else None


def _judge_point(
    spec: CrashMatrixSpec,
    point: Point,
    capsule: Optional[_Capsule],
    result: CrashPointResult,
    step: Optional[int] = None,
) -> CrashPointResult:
    """One crash point: the instance past the crash at ``point`` — and,
    for a double-crash point, past a second crash at recovery step
    ``step`` — is recovered, audited and checked for idempotence; then,
    with ``spec.replay``, a fresh instance must reach the same crashes
    from scratch and recover to the same bytes, crash summary and
    recovery report."""
    summary = "summary" if step is None else "summary2"
    with _crashed(spec, point, capsule) as original:
        result.crashed = original is not None and (
            step is None or original.crash_in_recovery(step)
        )
        if not result.crashed:
            return result
        image = original.verdict(result, summary)
    if spec.replay:
        with _Instance(spec, _crash_rule(*point)) as replay:
            result.replay_identical = (
                replay.run_workload()
                and (step is None or replay.crash_in_recovery(step))
                and replay.recovers_to(image)
                and replay.judged_like(result, summary)
            )
    # This frame outlives the call: the PowerFailure caught below it holds
    # it through its traceback, from inside the dead simulations' reference
    # cycles. Do not let it hold images' worth of bytes until a GC.
    del image, capsule
    return result


Job = tuple[Point, Optional[_Capsule], CrashPointResult, Optional[int]]


def _processes(jobs: int) -> int:
    """How many processes judge ``jobs`` crash points: one per CPU this
    process may run on, never more than there are points."""
    return min(jobs, len(os.sched_getaffinity(0)))


def _judge_share(spec: CrashMatrixSpec, share: list[Job]) -> list[CrashPointResult]:
    return [_judge_point(spec, *job) for job in share]


def _judge_all(spec: CrashMatrixSpec, jobs: list[Job]) -> list[CrashPointResult]:
    """Every job's verdict, in job order, judged across
    :func:`_processes` processes (module docstring)."""
    n = _processes(len(jobs))
    if n < 2:
        return _judge_share(spec, jobs)
    shares = [jobs[i::n] for i in range(n)]
    running: list[int] = []  # children not reaped yet
    pipes: list[int] = []  # the read end of each child's pipe
    try:
        for share in shares[1:]:
            pid, fd = _fork_judge(spec, share)
            running.append(pid)
            pipes.append(fd)
        judged = [_judge_share(spec, shares[0])]
        for pid, fd, share in zip(list(running), pipes, shares[1:]):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            judged.append(
                pickle.loads(data) if status == 0 else _judge_share(spec, share)
            )
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in pipes:
            os.close(fd)
    return [judged[j % n][j // n] for j in range(len(jobs))]


def _fork_judge(spec: CrashMatrixSpec, share: list[Job]) -> tuple[int, int]:
    """Fork a child that judges ``share`` and writes its pickled results
    to a pipe; returns the child's pid and the pipe's read end. The child
    exits 0 once it has written them, 1 if judging raised."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = pickle.dumps(_judge_share(spec, share))
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _armed_pass(
    spec: CrashMatrixSpec, points: list[Point], counts: dict[str, int]
) -> tuple[dict[Point, _Capsule], bool]:
    """Step 2: one run with every point's rule armed. Returns each
    point's capsule and False — or none and True if the run strayed from
    the counting pass (when it did not, every rule fired: each point is
    a visit the counting pass made)."""
    rules = tuple(rule for point in points for rule in _crash_rule(*point))
    capsules: dict[Point, _Capsule] = {}
    with _Instance(spec, rules) as armed:
        armed.run_workload(capsules)
        assert armed.injector is not None
        if armed.injector.site_op_counts() != counts:
            return {}, True
    assert capsules.keys() == set(points)
    return capsules, False


def run_crash_matrix(spec: CrashMatrixSpec) -> CrashMatrixReport:
    """Enumerate and execute the full crash-point matrix for ``spec``."""
    check_shape(
        spec.n_clients, spec.ops_per_client, spec.key_count, spec.evict_probability
    )
    if spec.max_per_site < 1:
        raise ConfigError(f"max_per_site must be >= 1, got {spec.max_per_site}")
    if spec.recovery_points < 0:
        raise ConfigError(
            f"recovery_points must be >= 0, got {spec.recovery_points}"
        )
    unknown = [site for site in spec.sites if not is_known_site(site)]
    if unknown:
        raise ConfigError(f"sites must be registered fault sites, got {unknown}")
    # 1. counting pass: the universe of crash points
    with _Instance(spec) as counting:
        counting.run_workload()
        assert counting.injector is not None
        counts = counting.injector.site_op_counts()

    points = [
        (site, k)
        for site in spec.sites
        for k in _sample(counts.get(site, 0), spec.max_per_site)
    ]
    primary = None
    if spec.recovery_points > 0 and STORES[spec.store].recover is not None:
        primary = _pick_primary(spec, counts)

    # 2. armed pass, with replay: a capsule for each crash, and each
    #    point's replay holds its capsule to a real crash. Without replay,
    #    or if the pass strayed, every point crashes from scratch.
    capsules: dict[Point, _Capsule] = {}
    strayed = False
    if spec.replay:
        armed = list(points)
        if primary is not None and primary not in armed:
            armed.append(primary)
        capsules, strayed = _armed_pass(spec, armed, counts)
    primary_capsule = capsules.get(primary)

    # 3-4. workload-phase crash points; each capsule goes with its point
    results = _judge_all(spec, [
        ((site, k), capsules.pop((site, k), None),
         CrashPointResult(site=site, op_index=k, phase="workload",
                          crashed=False), None)
        for site, k in points
    ])

    # 5. double-crash points (crash during recovery of a mid-run crash):
    #    the third recovery must land the same place a clean one would
    if primary is not None:
        # count recovery steps for that primary crash
        rec_ops = 0
        with _crashed(spec, primary, primary_capsule) as probe:
            if probe is not None:
                probe.arm_recovery(())
                recover(probe.setup)
                rec_ops = probe.injector.site_op_counts().get("recovery.step", 0)
        results += _judge_all(spec, [
            (primary, primary_capsule,
             CrashPointResult(site="recovery.step", op_index=k,
                              phase="recovery", crashed=False), k)
            for k in _sample(rec_ops, spec.recovery_points)
        ])

    if strayed:
        # The armed pass is not the run the points were chosen from: the
        # matrix is not the pure function of its spec the capsules stand on.
        for r in results:
            r.replay_identical = False

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
