"""Failure detection, promotion, and post-failover consistency."""

from __future__ import annotations

from repro.cluster.failover import partition_digest, partition_ranges
from repro.core.recovery import recover_partition

from tests.cluster.conftest import run1, small_cluster, wait_detected

KEYS = [b"fo-key-%02d" % i for i in range(20)]


def _workload(client, values):
    for key, value in values:
        yield from client.put(key, value)


def test_kill_primary_promotes_and_serves(env):
    """Kill node 0; the detector must declare it dead, a backup must
    promote via the recovery path, and every acked key must read back."""
    setup = small_cluster(
        env, nodes=3, replication=2,
        cluster_overrides={"verify_promotion": True},
    )
    client = setup.client(0)
    cluster = setup.cluster

    def body():
        yield from _workload(client, [(k, k * 5) for k in KEYS])
        cluster.kill_node(0)
        yield from wait_detected(env, cluster, 0)
        for k in KEYS:
            got = yield from client.get(k)
            assert got == k * 5, k

    run1(env, body())
    assert cluster.failovers == 1
    assert cluster.promotions >= 1
    assert 0 not in cluster.router.alive
    # every promoted partition has a live primary again
    for route in cluster.router.routes:
        assert route.state == "normal"
        assert route.replicas[0] != 0
    # Promotion recovery must be byte-identical-idempotent: running the
    # recovery pass twice leaves the same partition image as once.
    assert cluster.promotion_idempotent
    assert all(cluster.promotion_idempotent)
    setup.stop()


def test_kill_backup_keeps_acking_degraded(env):
    """Killing a backup must not wedge the ack gate: the detector
    shrinks the shipper's target set and puts keep succeeding."""
    setup = small_cluster(env, nodes=2, replication=2)
    client = setup.client(0)
    cluster = setup.cluster

    def body():
        yield from _workload(client, [(k, k * 3) for k in KEYS[:8]])
        # with 2 nodes every partition keeps exactly one copy per
        # node; killing node 1 orphans its primaries and removes the
        # backup of node 0's.
        cluster.kill_node(1)
        yield from wait_detected(env, cluster, 1)
        # acks continue at replication factor 1 (degraded, documented)
        yield from _workload(client, [(k, k * 7) for k in KEYS[:8]])
        for k in KEYS[:8]:
            got = yield from client.get(k)
            assert got == k * 7, k

    run1(env, body())
    assert cluster.router.alive == [0]
    assert all(r.replicas == [0] for r in cluster.router.routes)
    setup.stop()


def test_detector_declares_death_without_manual_kill(env):
    """The seeded heartbeat monitor notices a dark NIC on its own."""
    setup = small_cluster(env, nodes=3, replication=2)
    cluster = setup.cluster

    def body():
        yield from _workload(setup.client(0), [(KEYS[0], b"x" * 16)])
        # Power the node off directly - no on_node_dead call.
        cluster.nodes[2].kill()
        yield from wait_detected(env, cluster, 2)

    run1(env, body())
    assert 2 in cluster._dead_handled
    assert cluster.detector.deaths_declared >= 1
    assert 2 not in cluster.router.alive
    setup.stop()


def test_promotion_recovery_is_idempotent_digest(env):
    """Explicit check: a second recovery pass on the promoted replica
    leaves its pools + table segment byte-identical."""
    setup = small_cluster(
        env, nodes=2, replication=2,
        cluster_overrides={"verify_promotion": True},
    )
    client = setup.client(0)
    cluster = setup.cluster

    def body():
        yield from _workload(client, [(k, k * 4) for k in KEYS])
        cluster.kill_node(0)
        yield from wait_detected(env, cluster, 0)

    run1(env, body())
    assert cluster.promotion_idempotent and all(cluster.promotion_idempotent)
    # Judged again from outside, on the now-quiet partition: one more
    # recovery pass moves no byte of it, and so not its fingerprint.
    server = cluster.nodes[1].server
    part = server.partitions[0]
    image = server.device.buffer.snapshot(*partition_ranges(server, part))
    fingerprint = partition_digest(server, part)
    run1(env, recover_partition(server, part))
    assert server.device.buffer.same_image(image)
    assert partition_digest(server, part) == fingerprint
    setup.stop()
