"""The run scaffold every experiment driver stands on.

A driver (closed-loop run, crash experiment, crash-point matrix, chaos
run, open-loop load run, fixed test cell) owns its op generator, rng
stream names, spec and report. The rest is written here once: check the
shape, size the log pool, deploy, preload, run the closed-loop clients
(:class:`ClosedLoop`) and issue their ops (:func:`issue`, shared with
the open-loop load run), settle, pull the plug, recover. The
consistency audit is :mod:`repro.harness.oracle`.
"""

from __future__ import annotations

import math
from itertools import count
from collections.abc import Generator, Iterable, Iterator, Sequence
from typing import Any, Optional

from repro.core import EFactoryServer
from repro.core.recovery import RecoveryReport
from repro.errors import ConfigError, MemoryAccessError, RDMAError, StoreError
from repro.harness.metrics import LatencyRecorder
from repro.harness.oracle import KeyLedger
from repro.sim.kernel import Environment, Event, Interrupt, Process
from repro.stores import STORES, StoreSetup, build_store
from repro.workloads.keyspace import make_key, make_value

__all__ = [
    "check_shape", "pool_bytes", "deploy", "version0", "preload", "issue",
    "Draw", "ClosedLoop", "settle", "recover",
]

Item = tuple[bytes, bytes]  # (key, value)
Draw = tuple[str, int]  # (op kind, key id)


def check_shape(
    n_clients: int, ops: int, key_count: int, evict_probability: float = 0.0
) -> None:
    """Reject a run shape no driver can run, before anything is deployed."""
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    # ops per client (or before the crash): a run of no op measures
    # nothing.
    if ops < 1:
        raise ConfigError(f"ops must be >= 1, got {ops}")
    if key_count < 1:
        raise ConfigError(f"key_count must be >= 1, got {key_count}")
    if not 0.0 <= evict_probability <= 1.0:
        raise ConfigError(
            f"evict_probability must be in [0, 1], got {evict_probability}"
        )


def pool_bytes(*loads: tuple[int, int, int], headroom: float, floor: int) -> int:
    """A log pool the run never exhausts (experiments compare schemes,
    not allocators; only Fig 11 exercises cleaning): one worst-case
    ``(puts, key_len, value_len)`` per object size, times ``headroom``
    for what the count cannot see (retries allocate again, a crash
    harness writes until stopped), at least ``floor`` bytes."""
    total = sum(puts * (64 + klen + vlen) for puts, klen, vlen in loads)
    return max(floor, int(total * headroom))


def deploy(
    store: str,
    env: Environment,
    *,
    pool_size: int,
    n_clients: int,
    overrides: Optional[dict[str, Any]] = None,
    cluster: Optional[dict[str, Any]] = None,
) -> StoreSetup:
    """Build ``store`` and start it; ``overrides`` win over the
    scaffold's settings. ``cluster`` (``build_cluster`` keywords: nodes,
    replication, cluster_overrides) deploys a replicated cluster."""
    config: dict[str, Any] = {"pool_size": pool_size}
    if store in STORES and issubclass(STORES[store].server_cls, EFactoryServer):
        # Cleaning runs only where an experiment triggers it (Fig 11, the
        # crash matrix): a threshold trip mid-run would move every digest.
        config["auto_clean"] = False
    config.update(overrides or {})
    if cluster is None:
        setup = build_store(store, env, config_overrides=config, n_clients=n_clients)
    else:
        from repro.cluster import build_cluster

        setup = build_cluster(
            env, config_overrides=config, n_clients=n_clients, **cluster
        )
    return setup.start()


def version0(keys: Sequence[bytes], value_len: int) -> Iterable[Item]:
    """The preload of a versioned key set: every key at version 0."""
    return ((key, make_value(kid, 0, value_len)) for kid, key in enumerate(keys))


def preload(
    env: Environment,
    setup: StoreSetup,
    items: Iterable[Item] = (),
    *,
    batches: Iterable[Sequence[Item]] = (),
    settle_ns: float = 0.0,
) -> None:
    """Insert every key once through client 0 — ``items`` one PUT at a
    time, each of ``batches`` as one ``put_many`` — then :func:`settle`."""

    def body() -> Generator[Event, Any, None]:
        client = setup.client(0)
        for key, value in items:
            yield from client.put(key, value)
        for batch in batches:
            yield from client.put_many(batch)

    env.run(env.process(body(), name="preload"))
    settle(env, setup, settle_ns)


def issue(client, kind: str, key: bytes, value, size_hint: int):
    """One application op as a fresh generator (a retry re-invokes it):
    ``put`` writes ``value``, ``rmw`` reads and then writes it, any other
    kind reads. It returns what was read."""
    if kind == "put":
        return client.put(key, value)
    if kind == "rmw":

        def gen() -> Generator[Event, Any, Any]:
            read = yield from client.get(key, size_hint=size_hint)
            yield from client.put(key, value)
            return read

        return gen()
    return client.get(key, size_hint=size_hint)


class ClosedLoop:
    """Closed-loop clients, each issuing its next op when its last ends.

    Client ``i`` takes ``(kind, key id)`` ops from its stream one at a
    time, only while :attr:`stopped` is false, and issues each through
    :func:`issue`: a PUT or rmw carries ``ledger.next_version`` and is
    acked when it returns, a read is observed, a store or transport
    error fails the op, and an :class:`Interrupt` (the power failure)
    ends the client. The live tally — ``attempted``, ``completed``,
    ``failed``, ``torn_reads`` (completed reads the oracle finds torn) —
    sums all clients. Ops from index ``warmup`` on are measured:
    :attr:`start` is the first one's invoke, and ``recorder`` gets each
    completed one's latency.
    """

    def __init__(
        self, env: Environment, setup: StoreSetup, key_count: int, key_len: int,
        value_len: int, *, warmup: int = 0, recorder: Optional[LatencyRecorder] = None,
    ) -> None:
        self.env, self.setup, self.value_len = env, setup, value_len
        self.keys = [make_key(k, key_len) for k in range(key_count)]
        self.warmup, self.recorder = warmup, recorder
        self.ledger = KeyLedger(key_count)
        self.attempted = self.completed = self.failed = self.torn_reads = 0
        self.stopped = False
        self.start = math.inf
        self.procs: list[Process] = []

    def run(self, streams: Iterable[Iterable[Draw]], name: str) -> list[Process]:
        """Start one client per op stream, named ``name`` + its index."""
        self.procs = [
            self.env.process(self._client(i, iter(ops)), name=f"{name}{i}")
            for i, ops in enumerate(streams)
        ]
        return self.procs

    def _client(self, i: int, ops: Iterator[Draw]) -> Generator[Event, Any, None]:
        env, ledger, keys, vlen = self.env, self.ledger, self.keys, self.value_len
        client = self.setup.client(i)
        for j in count():
            if self.stopped or (op := next(ops, None)) is None:
                return
            kind, kid = op
            if j == self.warmup:
                self.start = min(self.start, env.now)
            value = version = None
            if kind == "put" or kind == "rmw":
                version = ledger.next_version(kid)
                value = make_value(kid, version, vlen)
            self.attempted += 1
            t0 = env.now
            try:
                read = yield from issue(client, kind, keys[kid], value, vlen)
            except Interrupt:
                # End cleanly: a crash harness's all_of over the clients
                # must complete, not re-raise in the post-crash drain.
                return
            except (StoreError, RDMAError, MemoryAccessError):
                # RpcFault, QPError, OperationTimeout, or a READ through
                # a rotten location outside its region (ProtectionError)
                self.failed += 1
                continue
            if version is not None:
                ledger.ack(kid, version)
            if kind != "put" and not ledger.observe(kid, read):
                self.torn_reads += 1
            self.completed += 1
            if j >= self.warmup and self.recorder is not None:
                self.recorder.record(kind, env.now - t0)

    def until(self, completed: int) -> Generator[Event, Any, bool]:
        """Poll every 5 µs until ``completed`` ops have completed; False
        if the loop was stopped or the waiter interrupted first."""
        try:
            while not self.stopped and self.completed < completed:
                yield self.env.timeout(5_000.0)
        except Interrupt:
            return False
        return not self.stopped

    def power_fail(self, rng, evict_probability: float, *, tear_words: bool) -> dict:
        """Stop the loop and the server's machinery, then crash its node
        (:meth:`~repro.rdma.fabric.Fabric.crash_node`); returns the crash
        summary. A crash hook calls it from inside a process, which may be
        a client, so the clients are left to :meth:`interrupt`."""
        self.stopped = True
        server = self.setup.server
        server.stop()  # skips the process we are inside of (a crash hook's)
        return self.setup.fabric.crash_node(
            server.node, rng, evict_probability, tear_words=tear_words
        )

    def interrupt(self) -> None:
        for proc in self.procs:
            if proc.is_alive:
                proc.interrupt("crash")


def settle(
    env: Environment, setup: StoreSetup, budget_ns: float, scrub_laps: int = 0
) -> None:
    """Let asynchronous machinery drain: return once every live server's
    verifier backlog is empty and every running scrubber has made
    ``scrub_laps`` further passes over its table, or after ``budget_ns``."""
    deadline = env.now + budget_ns
    # A killed cluster node's backlog can never drain: wait for the live.
    servers = [s for s in setup.servers if s.node.alive]
    efactory = [s for s in servers if isinstance(s, EFactoryServer)]
    # Per server: it has made a lap once its slowest partition has, and
    # it is scrubbing if any of its partitions is.
    scrubbers = [[p.scrubber for p in s.partitions] for s in efactory]

    def laps(scs: list) -> int:
        return min(sc.laps for sc in scs)

    want_laps = [
        laps(scs) + scrub_laps if any(sc.active for sc in scs) else 0
        for scs in scrubbers
    ]
    while env.now < deadline:
        env.run(until=min(deadline, env.now + 50_000.0))
        if not any(s.backlog for s in efactory) and all(
            laps(scs) >= want for scs, want in zip(scrubbers, want_laps)
        ):
            break


def recover(setup: StoreSetup) -> Optional[RecoveryReport]:
    """One full pass of the store's recovery (its ``StoreSpec.recover``,
    restarting the node if it is down); ``None`` for a store with none
    (CA, which persists nothing to recover from)."""
    procedure = setup.spec.recover
    if procedure is None:
        return None
    server = setup.server
    if not server.node.alive:
        setup.fabric.restart_node(server.node)
    return setup.env.run(setup.env.process(procedure(server), name="recover"))
