"""Live partition migration: copy, fence, delta, flip, abort."""

from __future__ import annotations

import pytest

from repro.kv.hashtable import key_fingerprint, partition_of_fp
from repro.kv.objects import FLAG_TRANS
from repro.rdma.rpc import ERR_NO_INTACT, ERR_NOT_FOUND, RpcFault

from tests.cluster.conftest import run1, small_cluster


def _keys_of_partition(cluster, count=60, want=8):
    """First partition with at least ``want`` of the generated keys."""
    nparts = cluster.store_config.num_partitions
    by_part: dict[int, list[bytes]] = {}
    for i in range(count):
        key = b"mig-key-%03d" % i
        by_part.setdefault(
            partition_of_fp(key_fingerprint(key), nparts), []
        ).append(key)
    part = max(by_part, key=lambda p: len(by_part[p]))
    assert len(by_part[part]) >= want
    return part, by_part[part], [k for p, ks in by_part.items() for k in ks]


def test_migrate_moves_keys_and_flips_ownership(env):
    setup = small_cluster(env, nodes=3, replication=2)
    client = setup.client(0)
    cluster = setup.cluster
    part, part_keys, all_keys = _keys_of_partition(cluster)
    src = cluster.router.primary(part)
    dst = next(i for i in range(3) if i != src)

    def body():
        for k in all_keys:
            yield from client.put(k, k * 4)
        stats = yield from cluster.migrate(part, dst)
        assert not stats["aborted"], stats
        assert stats["moved"] >= len(part_keys)
        # every key still readable, now through the new primary
        for k in all_keys:
            got = yield from client.get(k)
            assert got == k * 4, k
        return stats

    stats = run1(env, body())
    assert cluster.router.primary(part) == dst
    assert cluster.migrations == 1
    # the destination indexed every migrated key locally
    dpart = cluster.nodes[dst].server.partitions[part]
    for k in part_keys:
        assert dpart.table.find(key_fingerprint(k)) is not None
    # copied source versions carry the transfer flag (cleaner protocol)
    spart = cluster.nodes[src].server.partitions[part]
    flagged = 0
    for entry_off, entry in spart.table.iter_entries():
        slot = spart.table.read_cur(entry_off)
        if slot is None:
            continue
        img = spart.read_object(slot)
        if img.well_formed and img.flags & FLAG_TRANS:
            flagged += 1
    assert flagged >= len(part_keys)
    assert stats["duration_ns"] > 0
    setup.stop()


def test_migrated_partition_accepts_writes_and_replicates(env):
    """After the flip the destination is a full primary: writes land,
    replicate to the re-seeded backups, and survive the source."""
    setup = small_cluster(env, nodes=3, replication=2)
    client = setup.client(0)
    cluster = setup.cluster
    part, part_keys, _ = _keys_of_partition(cluster)
    src = cluster.router.primary(part)
    dst = next(i for i in range(3) if i != src)

    def body():
        for k in part_keys:
            yield from client.put(k, k * 2)
        stats = yield from cluster.migrate(part, dst)
        assert not stats["aborted"], stats
        for k in part_keys:
            yield from client.put(k, k * 9)
        # the old primary's copy is now irrelevant: kill it
        cluster.kill_node(src)
        deadline = env.now + 20_000_000.0
        while src not in cluster._dead_handled and env.now < deadline:
            yield env.timeout(50_000.0)
        yield from cluster.await_stable(timeout_ns=20_000_000.0)
        for k in part_keys:
            got = yield from client.get(k)
            assert got == k * 9, k

    run1(env, body())
    assert cluster.router.primary(part) == dst
    setup.stop()


def test_migration_to_dead_node_aborts(env):
    setup = small_cluster(env, nodes=3, replication=2)
    client = setup.client(0)
    cluster = setup.cluster
    part, part_keys, _ = _keys_of_partition(cluster)
    dst = next(
        i for i in range(3) if i != cluster.router.primary(part)
    )

    def body():
        for k in part_keys[:4]:
            yield from client.put(k, k)
        cluster.nodes[dst].alive = False  # not yet detected
        stats = yield from cluster.migrate(part, dst)
        assert stats["aborted"]
        cluster.nodes[dst].alive = True
        # the route rolled back: source still serves
        for k in part_keys[:4]:
            got = yield from client.get(k)
            assert got == k, k

    run1(env, body())
    assert cluster.migrations_aborted == 1
    assert cluster.migrations == 0
    route = cluster.router.routes[part]
    assert route.state == "normal"
    assert route.migrating_to is None
    setup.stop()


def test_migration_source_unfenced_after_abort(env):
    setup = small_cluster(env, nodes=3, replication=2)
    cluster = setup.cluster
    part, part_keys, _ = _keys_of_partition(cluster)
    src = cluster.router.primary(part)
    spart = cluster.nodes[src].server.partitions[part]

    def body():
        yield from setup.client(0).put(part_keys[0], b"pre")
        cluster.nodes[2].alive = False
        if cluster.router.primary(part) == 2:
            return
        stats = yield from cluster.migrate(part, 2)
        assert stats["aborted"]

    run1(env, body())
    assert spart.fenced is False
    setup.stop()


@pytest.mark.parametrize(
    "delay_us, state",
    [
        (10, "migrating"),
        (20, "migrating"),
        (28, "migrating"),
        (34, "migrating"),
        (40, "migrating"),
        (42, "migrating"),
        (46, "draining"),
        (56, "draining"),
        (66, "draining"),
        (72, "draining"),
    ],
)
def test_delete_during_migration_stays_deleted(env, delay_us, state):
    """A DELETE acked while the partition moves is not resurrected by
    the flip: the copy pass may already have shipped the key, and the
    delete allocates nothing for the delta to see."""
    setup = small_cluster(env, nodes=3, replication=2)
    client = setup.client(0)
    cluster = setup.cluster
    part, part_keys, all_keys = _keys_of_partition(cluster)
    src = cluster.router.primary(part)
    dst = next(i for i in range(3) if i != src)
    victim = part_keys[0]

    def body():
        for k in all_keys:
            yield from client.put(k, k * 4)
        mig = env.process(cluster.migrate(part, dst))
        yield env.timeout(delay_us * 1000.0)
        assert cluster.router.routes[part].state == state
        yield from client.delete(victim)
        stats = yield mig
        assert not stats["aborted"], stats
        with pytest.raises(RpcFault) as err:
            yield from client.get(victim)
        assert err.value.code in (ERR_NOT_FOUND, ERR_NO_INTACT)
        for k in part_keys[1:]:
            assert (yield from client.get(k)) == k * 4

    run1(env, body())
    assert cluster.router.primary(part) == dst
    found = cluster.nodes[dst].server.partitions[part].lookup_slot(victim)
    assert found is None or found[1] is None
    setup.stop()
