"""The integrity tier in cluster mode: backup-node scrubbing of shipped
replicas and replica-assisted repair (``repair_fetch``) when local
parity cannot reconstruct a multi-fault stripe."""

from __future__ import annotations

from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.kv.hashtable import key_fingerprint, partition_of_fp
from repro.kv.objects import HEADER_SIZE

from tests.cluster.conftest import run1, small_cluster

#: Scrubber + parity + integrity tree, tight interval for test pacing.
PARITY = {
    "scrub_interval_ns": 2_000.0,
    "parity_stripe_kb": 4,
}

#: 16-byte keys + 160-byte values -> 216-byte objects -> 256-byte log
#: slots, so consecutive heads sit exactly one parity page apart and
#: same-offset faults share a parity column (the multi-fault case).
KLEN = 16
VLEN = 160


def _key(i: int) -> bytes:
    k = b"cl-%013d" % i
    assert len(k) == KLEN
    return k


def _keys_in_one_partition(setup, n: int) -> tuple[int, list[bytes]]:
    """First ``n`` generated keys that all hash to the same partition."""
    nparts = setup.cluster.store_config.num_partitions
    target = partition_of_fp(key_fingerprint(_key(0)), nparts)
    keys, i = [], 0
    while len(keys) < n:
        k = _key(i)
        if partition_of_fp(key_fingerprint(k), nparts) == target:
            keys.append(k)
        i += 1
    return target, keys


def _primary_backup(setup, part_id: int) -> tuple[int, int]:
    router = setup.cluster.router
    return router.primary(part_id), router.backups(part_id)[0]


def _head(setup, node_id: int, part_id: int, key: bytes):
    part = setup.cluster.nodes[node_id].server.partitions[part_id]
    entry_off = part.table.find(key_fingerprint(key))
    assert entry_off is not None
    cur = part.table.read_cur(entry_off)
    assert cur is not None
    return cur


def _corrupt_value(setup, node_id: int, part_id: int, cur, byte: int = 0):
    """Flip a bit in a value byte of the record at ``cur`` on ``node_id``."""
    node = setup.cluster.nodes[node_id]
    pool = node.server.partitions[part_id].pools[cur.pool]
    addr = pool.abs_addr(cur.offset) + HEADER_SIZE + KLEN + byte
    node.server.device.buffer.corrupt(addr, "bitflip")


def _record_bytes(setup, node_id: int, part_id: int, cur) -> bytes:
    pool = setup.cluster.nodes[node_id].server.partitions[part_id].pools[cur.pool]
    return bytes(pool.read(cur.offset, cur.size))


def _wait_for_scrub(env, setup, node_id: int, field: str, deadline_ns=200_000_000):
    server = setup.cluster.nodes[node_id].server
    deadline = env.now + deadline_ns
    while env.now < deadline and server.metrics()["scrubber"][field] == 0:
        env.run(until=env.now + 1_000_000)
    return server.metrics()["scrubber"]


class TestBackupScrubbing:
    def test_backup_rot_reconstructed_from_local_parity(self, env):
        """Backups have no table to walk, but the scrubber walks the
        shipped extents: rot on a replica copy is found and rebuilt in
        place from the backup's own parity."""
        setup = small_cluster(env, nodes=3, replication=2, **PARITY)
        client = setup.client(0)
        part_id, keys = _keys_in_one_partition(setup, 6)

        def body():
            for i, k in enumerate(keys):
                yield from client.put(k, bytes([i + 1]) * VLEN)

        run1(env, body())  # acked => verified, shipped, covered on backups
        pid, bid = _primary_backup(setup, part_id)
        cur = _head(setup, pid, part_id, keys[0])
        pristine = _record_bytes(setup, pid, part_id, cur)
        assert _record_bytes(setup, bid, part_id, cur) == pristine

        _corrupt_value(setup, bid, part_id, cur)
        stats = _wait_for_scrub(env, setup, bid, "reconstructed")
        assert stats["scrubbed"] > 0  # the backup scrubber really walks
        assert stats["corrupt_found"] >= 1
        assert stats["reconstructed"] >= 1
        assert stats["unrepairable"] == 0
        # the replica is byte-identical to the primary again
        assert _record_bytes(setup, bid, part_id, cur) == pristine
        setup.stop()

    def test_backup_multi_fault_refetched_from_primary(self, env):
        """Two same-column faults defeat the backup's local parity; the
        scrubber re-fetches the bytes from the partition's primary."""
        setup = small_cluster(env, nodes=3, replication=2, **PARITY)
        client = setup.client(0)
        part_id, keys = _keys_in_one_partition(setup, 2)
        k0, k1 = keys
        v0, v1 = b"\x11" * VLEN, b"\x22" * VLEN

        def body():
            yield from client.put(k0, v0)
            yield from client.put(k1, v1)

        run1(env, body())
        pid, bid = _primary_backup(setup, part_id)
        h0 = _head(setup, pid, part_id, k0)
        h1 = _head(setup, pid, part_id, k1)
        assert (h1.offset - h0.offset) % 256 == 0  # same parity column
        pristine = [_record_bytes(setup, pid, part_id, h) for h in (h0, h1)]

        _corrupt_value(setup, bid, part_id, h0, byte=10)
        _corrupt_value(setup, bid, part_id, h1, byte=10)
        stats = _wait_for_scrub(env, setup, bid, "replica_fetched")
        assert stats["parity_stale"] >= 1  # local reconstruction failed
        assert stats["replica_fetched"] >= 1
        # settle until the second record's repair lands too
        deadline = env.now + 50_000_000
        while env.now < deadline and (
            _record_bytes(setup, bid, part_id, h0) != pristine[0]
            or _record_bytes(setup, bid, part_id, h1) != pristine[1]
        ):
            env.run(until=env.now + 1_000_000)
        assert _record_bytes(setup, bid, part_id, h0) == pristine[0]
        assert _record_bytes(setup, bid, part_id, h1) == pristine[1]
        assert stats["unrepairable"] == 0
        setup.stop()


class TestPrimaryReplicaAssistedRepair:
    def test_multi_fault_stripe_repaired_via_repair_fetch(self, env):
        """On a primary, a multi-fault stripe that defeats parity is
        repaired from a backup's shipped copy — keeping the *newest*
        acked version, where single-node rollback would lose it."""
        setup = small_cluster(env, nodes=3, replication=2, **PARITY)
        client = setup.client(0)
        part_id, keys = _keys_in_one_partition(setup, 2)
        k0, k1 = keys
        v0a, v0b, v1 = b"\x31" * VLEN, b"\x32" * VLEN, b"\x33" * VLEN

        def body():
            yield from client.put(k0, v0a)
            yield from client.put(k0, v0b)
            yield from client.put(k1, v1)

        run1(env, body())
        pid, _bid = _primary_backup(setup, part_id)
        h0 = _head(setup, pid, part_id, k0)  # v0b's record
        h1 = _head(setup, pid, part_id, k1)
        assert (h1.offset - h0.offset) % 256 == 0  # same parity column

        _corrupt_value(setup, pid, part_id, h0, byte=10)
        _corrupt_value(setup, pid, part_id, h1, byte=10)
        stats = _wait_for_scrub(env, setup, pid, "replica_fetched")
        assert stats["parity_stale"] >= 1
        assert stats["replica_fetched"] >= 1
        assert stats["unrepairable"] == 0

        def check():
            got0 = yield from client.get(k0)
            got1 = yield from client.get(k1)
            return got0, got1

        got0, got1 = run1(env, check())
        assert got0 == v0b  # the newest version survived, not a rollback
        assert got1 == v1
        # replica repair beat rollback: no version was discarded
        assert setup.cluster.nodes[pid].server.metrics()["scrubber"]["repaired"] == 0
        setup.stop()


class TestClusterChaos:
    def test_bitrot_plan_with_parity_engages_backup_scrubbers(self):
        """Satellite gate: a seeded cluster bitrot run with the parity
        tier holds the oracle, and every node — backups included —
        reports scrub activity and repair outcomes."""
        report = run_chaos_experiment(
            ChaosSpec(
                store="efactory",
                plan="bitrot",
                parity=True,
                nodes=3,
                replication=2,
                n_clients=2,
                ops_per_client=30,
                key_count=12,
                seed=7,
                config_overrides={"pool_size": 1 << 20, "table_buckets": 2048},
            )
        )
        assert report.ok, report.violations
        assert report.repair  # media plan -> repair outcome summary
        assert report.repair["media_faults"] > 0
        assert report.repair["detected"] >= report.repair["cleared"]
        # parity + integrity tree were armed on every node
        assert report.integrity["covered"] > 0
        # every node's scrubbers ran; backups walk the shipped extents
        for n in report.cluster["nodes"]:
            assert n["scrub"]["scrubbed"] > 0, n["node"]
