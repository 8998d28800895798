"""The run scaffold every experiment driver stands on.

A driver (closed-loop run, crash experiment, crash-point matrix, chaos
run, open-loop load run, fixed test cell) owns its op loop, rng stream
names, spec and report. What surrounds the loop is written here once:
size the log pool, deploy the store, preload the keys, let the
background machinery settle, recover after a crash. The consistency
audit is :mod:`repro.harness.oracle`.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Sequence
from typing import Any, Optional

from repro.core import EFactoryServer
from repro.core.recovery import RecoveryReport
from repro.sim.kernel import Environment, Event
from repro.stores import STORES, StoreSetup, build_store
from repro.workloads.keyspace import make_value

__all__ = ["pool_bytes", "deploy", "version0", "preload", "settle", "recover"]

Item = tuple[bytes, bytes]  # (key, value)


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


def settle(
    env: Environment, setup: StoreSetup, budget_ns: float, scrub_laps: int = 0
) -> None:
    """Let asynchronous machinery drain: return once every live server's
    verifier backlog is empty and every running scrubber has made
    ``scrub_laps`` further passes over its table, or after ``budget_ns``."""
    deadline = env.now + budget_ns
    # A killed cluster node's backlog can never drain: wait for the live.
    servers = [
        s for s in getattr(setup, "servers", None) or [setup.server] if s.node.alive
    ]
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
