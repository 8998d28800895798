"""Power failure in the middle of log cleaning.

The scariest window in the design: two pools, entries with both slots
valid, chains crossing pools, the cleaner mid-copy. Recovery must still
produce an intact version for every durably-written key, regardless of
when within the cycle the plug is pulled.
"""

import numpy as np
import pytest

from repro.baselines.base import ObjectLocation
from repro.core.recovery import recover_bucketized
from repro.sim.kernel import Environment
from repro.workloads.keyspace import make_value, parse_value
from tests.conftest import run1, small_store


def _key(i):
    return f"key-{i:012d}".encode()


N_KEYS = 24


def _setup_filled(env):
    setup = small_store("efactory", env)
    c = setup.client()

    def load():
        for v in range(3):
            for i in range(N_KEYS):
                yield from c.put(_key(i), make_value(i, v, 128))

    run1(env, load())
    env.run(until=env.now + 1_500_000)  # everything verified+durable
    return setup


def _crash_recover(setup, env, seed):
    setup.server.stop()
    setup.fabric.crash_node(
        setup.server.node, np.random.default_rng(seed), 0.35
    )
    setup.fabric.restart_node(setup.server.node)
    return env.run(env.process(recover_bucketized(setup.server)))


def _audit(setup):
    """Every key must resolve to an intact version with version >= 2
    (v2 was durable before the cleaning cycle began)."""
    server = setup.server
    bad = []
    for i in range(N_KEYS):
        found = server.lookup_slot(_key(i))
        if found is None:
            bad.append((i, "missing entry"))
            continue
        _eoff, cur, alt = found
        slot = cur or alt
        if slot is None:
            bad.append((i, "no slot"))
            continue
        img = server.partition_for_key(_key(i)).read_object(
            ObjectLocation(pool=slot.pool, offset=slot.offset, size=slot.size)
        )
        parsed = parse_value(img.value) if img.well_formed else None
        if parsed is None or parsed[0] != i:
            bad.append((i, "torn"))
        elif parsed[1] < 2:
            bad.append((i, f"rolled behind durable v2 to v{parsed[1]}"))
    return bad


@pytest.mark.parametrize("crash_after_ns", [5_000, 60_000, 150_000, 400_000])
def test_crash_at_various_points_in_cycle(crash_after_ns):
    """Crash at increasing depths into the cleaning cycle (during the
    notification phase, compress scan, merge, and after finish)."""
    env = Environment()
    setup = _setup_filled(env)
    proc = setup.server.trigger_cleaning()
    deadline = env.now + crash_after_ns
    env.run(until=deadline)
    _crash_recover(setup, env, seed=int(crash_after_ns))
    bad = _audit(setup)
    assert bad == [], (crash_after_ns, bad)


def test_crash_during_cleaning_with_concurrent_writes():
    """Writes racing the cleaner + crash: durable data must survive;
    newer unverified writes may be lost (eFactory's contract)."""
    env = Environment()
    setup = _setup_filled(env)
    c = setup.clients[0]
    written = {}

    def churn():
        for r in range(60):
            i = r % N_KEYS
            try:
                yield from c.put(_key(i), make_value(i, 10 + r, 128))
                written[i] = 10 + r
            except Exception:
                return

    env.process(churn())
    setup.server.trigger_cleaning()
    env.run(until=env.now + 120_000)  # mid-cycle, mid-churn
    _crash_recover(setup, env, seed=99)
    bad = _audit(setup)
    assert bad == [], bad


def test_recovery_after_completed_cleaning_cycle():
    """Sanity: crash right after a clean finish recovers from the new
    pool only."""
    env = Environment()
    setup = _setup_filled(env)
    env.run(setup.server.trigger_cleaning())
    report = _crash_recover(setup, env, seed=5)
    assert report.keys_lost == 0
    bad = _audit(setup)
    assert bad == [], bad
    # everything lives in the (new) working pool now
    wp = setup.server.partitions[0].write_pool_id
    for i in range(N_KEYS):
        _e, cur, _a = setup.server.lookup_slot(_key(i))
        assert cur.pool == wp
