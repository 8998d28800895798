"""Recovery is idempotent: re-running it (because the machine crashed
*during* recovery and it started over) must converge to the same NVM
image and treat the already-recovered state as a no-op."""

import numpy as np
import pytest

from repro.core.recovery import recover_bucketized, recover_erda
from repro.errors import PowerFailure
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.sim.rng import RngRegistry
from tests.conftest import run1, small_store


def _key(i):
    return f"idem-{i:011d}".encode()


def _populate_and_crash(env, setup, n_keys=16, settle_ns=120_000, crash_seed=3):
    """Two versions per key, a *partial* settle (some objects still
    unverified), then a word-tearing power failure."""
    c = setup.client()

    def work():
        for ver in (1, 2):
            for i in range(n_keys):
                yield from c.put(_key(i), bytes([ver]) * 64)

    run1(env, work())
    env.run(until=env.now + settle_ns)
    setup.server.stop()
    setup.fabric.crash_node(
        setup.server.node, np.random.default_rng(crash_seed), 0.5, tear_words=True
    )
    setup.fabric.restart_node(setup.server.node)


def _recover(env, setup, procedure=recover_bucketized):
    return env.run(env.process(procedure(setup.server)))


@pytest.mark.parametrize("partitions", [1, 4])
def test_second_recovery_run_is_a_noop(env, partitions):
    overrides = {"num_partitions": partitions} if partitions > 1 else {}
    setup = small_store("efactory", env, **overrides)
    _populate_and_crash(env, setup)

    first = _recover(env, setup)
    image = setup.server.device.buffer.snapshot()
    second = _recover(env, setup)

    assert setup.server.device.buffer.same_image(image)
    assert second.keys_rolled_back == 0
    assert second.keys_lost == 0
    assert second.torn_objects == 0
    assert first.keys_recovered + first.keys_rolled_back >= second.keys_recovered


def test_erda_second_recovery_does_not_lose_a_lost_key_again(env):
    """``recover_erda`` zeroes the two-version word of a key it declares
    lost but the bucket keeps its fingerprint; a later pass used to visit
    the empty bucket and count the key lost again."""
    setup = small_store("erda", env)
    _populate_and_crash(env, setup, crash_seed=2)

    first = _recover(env, setup, recover_erda)
    image = setup.server.device.buffer.snapshot()
    second = _recover(env, setup, recover_erda)

    assert first.keys_lost > 0 and first.keys_recovered > 0
    assert setup.server.device.buffer.same_image(image)
    assert second.keys_lost == 0 and second.keys_rolled_back == 0
    assert second.keys_recovered == first.keys_recovered + first.keys_rolled_back


def test_crash_mid_recovery_converges(env):
    """Power-fail recovery itself at a fixed step; the re-run must land
    on a stable image that a further run leaves untouched."""
    setup = small_store("efactory", env)
    _populate_and_crash(env, setup)

    rngs = RngRegistry(5)
    rule = FaultRule(
        kind="crash", site="recovery.step", after_op=3, before_op=4, max_fires=1
    )
    injector = FaultInjector(env, FaultPlan("midrec", (rule,)), rngs)

    def hook(site):
        setup.fabric.crash_node(
            setup.server.node, rngs.stream("c2"), 0.5, tear_words=True
        )
        raise PowerFailure(f"double crash at {site}")

    injector.crash_hook = hook
    setup.server.device.injector = injector

    with pytest.raises(PowerFailure):
        _recover(env, setup)

    setup.server.device.injector = None
    setup.fabric.restart_node(setup.server.node)
    _recover(env, setup)
    image = setup.server.device.buffer.snapshot()
    report = _recover(env, setup)

    assert setup.server.device.buffer.same_image(image)
    assert report.keys_rolled_back == 0
    assert report.keys_lost == 0
