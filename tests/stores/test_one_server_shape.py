"""A server is its partitions: one shape at N = 1 and at N > 1.

Table, pool and object state, and the verifier / cleaner / scrubber of
each shard, are reached only through ``server.partitions``; the
``metrics()`` sections are per-key sums over the partitions, with the
same keys in the same order whatever the partition count.
"""

import re
from pathlib import Path

import pytest

import repro.core
from repro.baselines.base import BaseServer
from repro.core import EFactoryServer
from repro.kv.hashtable import key_fingerprint, partition_of_fp
from tests.conftest import run1, small_store

#: Names the partition-0 compatibility layer used to put on the server
#: (``background`` survives on eFactory only as the benchmark's alias of
#: the summed verifier backlog; see ``test_background_is_the_backlog``).
MONOLITH_NAMES = (
    "table", "pools", "pool_mrs", "write_pool_id", "cleaner", "scrubber",
    "alloc_object", "publish_object", "persist_header", "persist_entry_timed",
    "read_object", "object_value_ok", "persist_object", "set_object_flags",
    "mark_durable", "_previous_location",
)

#: ``metrics()`` section keys, in order (the parent's shape at N = 1).
SECTION_KEYS = {
    "verifier": [
        "verified", "persisted", "invalidated", "skipped", "requeued",
        "backlog", "batches", "coalesced_flushes", "wakeups",
    ],
    "cleaner": [
        "cycles", "moved", "skipped_stale", "skipped_superseded",
        "invalidated", "bytes_copied", "entries_fixed",
    ],
    "scrubber": [
        "scrubbed", "corrupt_found", "repaired", "unrepairable",
        "reconstructed", "parity_stale", "replica_fetched",
    ],
    "sim": [
        "events_scheduled", "events_processed", "fastpath_ops",
        "fallback_ops", "events_per_op",
    ],
    "integrity": [
        "settled", "mutations", "flushes", "flushed_bytes", "rebuilds",
        "resets", "tree_checks", "covered", "stale_stripes",
    ],
    "admission": ["watermark", "admitted", "shed", "peak_inflight", "inflight"],
}

PARITY = {"parity_stripe_kb": 4, "integrity_tree": True}


def _keys(n_parts: int, per_part: int = 10) -> list[bytes]:
    """``per_part`` keys routed to each of ``n_parts`` partitions."""
    keys: list[bytes] = []
    counts = [0] * n_parts
    i = 0
    while min(counts) < per_part:
        key = f"key-{i:012d}".encode()
        part = partition_of_fp(key_fingerprint(key), n_parts)
        if counts[part] < per_part:
            counts[part] += 1
            keys.append(key)
        i += 1
    return keys


def _exercised(env, n_parts: int, **overrides):
    """Three versions of 10 keys per partition, a read of each, one
    cleaning cycle on every partition and a few scrubber laps."""
    setup = small_store(
        "efactory", env, num_partitions=n_parts, scrub_interval_ns=2_000.0,
        **overrides,
    )
    c = setup.client()
    keys = _keys(n_parts)

    def work():
        for v in range(3):
            for i, key in enumerate(keys):
                yield from c.put(key, bytes([v, i]) * 32)
        for key in keys:
            yield from c.get(key, size_hint=64)

    run1(env, work())
    env.run(until=env.now + 200_000)
    env.run(setup.server.trigger_cleaning())
    env.run(until=env.now + 300_000)
    return setup.server


@pytest.mark.parametrize("store", ["efactory", "rpc"])
@pytest.mark.parametrize("n_parts", [1, 4])
def test_no_monolith_surface(env, store, n_parts):
    server = small_store(store, env, num_partitions=n_parts).server
    assert isinstance(server, BaseServer)
    assert len(server.partitions) == n_parts
    for name in MONOLITH_NAMES:
        assert not hasattr(server, name), name
        assert not hasattr(BaseServer, name), name
        assert not hasattr(EFactoryServer, name), name


@pytest.mark.parametrize("n_parts", [1, 4])
def test_background_is_the_backlog(env, n_parts):
    assert not hasattr(BaseServer, "background")
    assert not hasattr(small_store("rpc", env).server, "background")
    setup = small_store("efactory", env, num_partitions=n_parts)
    server, c = setup.server, setup.client()
    for key in _keys(n_parts, per_part=2):
        run1(env, c.put(key, b"b" * 64))
    backlogs = [p.verifier.backlog for p in server.partitions]
    assert server.background.backlog == server.backlog == sum(backlogs) > 0
    assert server.metrics()["verifier"]["backlog"] == server.backlog


def test_no_group_facades_in_core():
    pattern = re.compile(r"^class \w+Group\b", re.M)
    core = Path(repro.core.__file__).parent
    hits = [p.name for p in core.glob("*.py") if pattern.search(p.read_text())]
    assert hits == []


@pytest.mark.parametrize("overrides", [{}, PARITY], ids=["plain", "parity"])
def test_sections_are_per_partition_sums(env, overrides):
    server = _exercised(env, 4, **overrides)
    parts = server.partitions
    per_part = {
        "verifier": [p.verifier.stats() for p in parts],
        "cleaner": [p.cleaner.stats.as_dict() for p in parts],
        "scrubber": [p.scrubber.stats() for p in parts],
    }
    if overrides:
        per_part["integrity"] = [p.integrity.stats() for p in parts]
    metrics = server.metrics()
    for section, stats in per_part.items():
        keys = SECTION_KEYS[section]
        assert all(list(s) == keys for s in stats), section
        assert metrics[section] == {k: sum(s[k] for s in stats) for k in keys}
        assert list(metrics[section]) == keys, section
    # the run exercised every section on every partition
    assert metrics["cleaner"]["cycles"] == 4
    assert all(s["persisted"] > 0 for s in per_part["verifier"])
    assert all(s["scrubbed"] > 0 for s in per_part["scrubber"])


@pytest.mark.parametrize("overrides", [{}, PARITY], ids=["plain", "parity"])
def test_section_keys_pinned_at_one_partition(env, overrides):
    server = _exercised(env, 1, admission_watermark=64, **overrides)
    metrics = server.metrics()
    expected = ["verifier", "cleaner", "scrubber", "sim", "admission"]
    if overrides:
        expected.append("integrity")
    assert list(metrics) == expected
    for section in expected:
        assert list(metrics[section]) == SECTION_KEYS[section], section
