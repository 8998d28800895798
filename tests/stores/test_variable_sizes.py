"""Variable-size values.

The paper's experiments use fixed sizes, but the bucketized stores are
size-agnostic: the hash slot carries the object's total footprint, so a
client GET needs no size hint and updates may grow or shrink a value.
(Erda is the documented exception — its 8-byte atomic region has no
room for a size, which is why its GET takes a hint.)
"""

import pytest

from repro.sim.kernel import Environment
from tests.conftest import ALL_STORES, run1, small_store

KEY = b"key-000000000var"

SIZED_STORES = [s for s in ALL_STORES if s != "erda"]


@pytest.mark.parametrize("store", SIZED_STORES)
def test_get_without_size_hint(env, store):
    setup = small_store(store, env)
    c = setup.client()

    def work():
        yield from c.put(KEY, b"q" * 321)
        return (yield from c.get(KEY))  # no hint

    assert run1(env, work()) == b"q" * 321


@pytest.mark.parametrize("store", ["efactory", "ca", "forca"])
def test_value_grows_and_shrinks_across_updates(env, store):
    setup = small_store(store, env)
    c = setup.client()

    def work():
        out = []
        for size in (64, 4096, 16, 1000):
            yield from c.put(KEY, bytes([size % 256]) * size)
            value = yield from c.get(KEY)
            out.append(len(value) == size and value[:1] == bytes([size % 256]))
        return out

    assert all(run1(env, work()))


def test_efactory_mixed_sizes_recovery(env):
    """Rollback across differently-sized versions: the chain walk sizes
    each version from its own header."""
    import numpy as np

    from repro.core.recovery import recover_bucketized
    from repro.workloads.keyspace import make_value, parse_value

    setup = small_store("efactory", env)
    server = setup.server
    c = setup.client()

    def work():
        yield from c.put(KEY, make_value(1, 1, 2048))  # big, will be durable
        yield env.timeout(800_000)
        yield from c.alloc_rpc(KEY, 64, 0xBAD)  # small torn head

    run1(env, work())
    server.stop()
    setup.fabric.crash_node(server.node, np.random.default_rng(1), 0.0)
    setup.fabric.restart_node(server.node)
    report = env.run(env.process(recover_bucketized(server)))
    assert report.keys_rolled_back == 1
    found = server.lookup_slot(KEY)
    img = server.partition_for_key(KEY).read_object(found[1])
    assert parse_value(img.value) == (1, 1)
    assert img.vlen == 2048
