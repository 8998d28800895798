"""Extension experiment: recovery time vs store population.

The paper argues NVM "allows applications to checkpoint fast and
recover fast" (§1); this quantifies eFactory's recovery on our
substrate: simulated recovery time should scale linearly with the
number of objects (one header scan + per-key verification), and keys
whose heads are torn cost extra CRC-walk work, not data loss.
"""

import numpy as np
import pytest

from benchmarks.conftest import scaled
from repro.analysis.tables import Table, banner
from repro.core.recovery import recover_bucketized
from repro.sim.kernel import Environment
from repro.stores import build_store
from repro.workloads.keyspace import make_key, make_value


def _populate_and_crash(n_keys: int, value_len: int = 256, seed: int = 3):
    env = Environment()
    setup = build_store(
        "efactory",
        env,
        n_clients=1,
        config_overrides={
            "pool_size": max(8 << 20, n_keys * (value_len + 128) * 2),
            "auto_clean": False,
        },
    ).start()
    c = setup.client()

    def load():
        for i in range(n_keys):
            yield from c.put(make_key(i), make_value(i, 1, value_len))

    env.run(env.process(load()))
    # settle until the verifier drains
    while setup.server.backlog:
        env.run(until=env.now + 100_000)
    setup.server.stop()
    setup.fabric.crash_node(setup.server.node, np.random.default_rng(seed), 0.5)
    setup.fabric.restart_node(setup.server.node)
    return env, setup


def test_recovery_scales_linearly(benchmark, show):
    sizes = [scaled(200), scaled(400), scaled(800)]

    def run():
        out = {}
        for n in sizes:
            env, setup = _populate_and_crash(n)
            report = env.run(env.process(recover_bucketized(setup.server)))
            out[n] = report
        return out

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(["objects", "recovered", "lost", "sim recovery time"])
    for n, rep in reports.items():
        table.add(
            n,
            rep.keys_recovered + rep.keys_rolled_back,
            rep.keys_lost,
            f"{rep.duration_ns / 1e6:.2f} ms",
        )
    show(banner("Extension: recovery time vs population") + "\n" + table.render())

    for n, rep in reports.items():
        assert rep.keys_recovered + rep.keys_rolled_back == n
        assert rep.keys_lost == 0

    # linear-ish scaling: 4x objects => between 2x and 8x time
    t_small = reports[sizes[0]].duration_ns
    t_large = reports[sizes[-1]].duration_ns
    ratio = t_large / t_small
    assert 2.0 < ratio < 8.0, ratio
