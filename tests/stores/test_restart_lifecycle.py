"""Full lifecycle: serve → power failure → recover → restart → serve.

The crash harness audits durable state directly; this test exercises
the *protocol* end of restart — the server's dispatch loop and
background thread come back up and a freshly connected client reads the
recovered data through the normal paths.
"""

import numpy as np
import pytest

from repro.core.recovery import recover_bucketized
from repro.sim.kernel import Environment
from repro.workloads.keyspace import make_value, parse_value
from tests.conftest import run1, small_store

N_KEYS = 16


def _key(i):
    return f"key-{i:012d}".encode()


def test_crash_recover_restart_serve(env):
    setup = small_store("efactory", env, n_clients=1)
    server = setup.server
    c = setup.client()

    def load():
        for i in range(N_KEYS):
            yield from c.put(_key(i), make_value(i, 1, 128))

    run1(env, load())
    env.run(until=env.now + 1_000_000)  # all durable

    # power failure
    server.stop()
    setup.fabric.crash_node(server.node, np.random.default_rng(2), 0.3)

    # recovery on the rebooted machine
    setup.fabric.restart_node(server.node)
    report = env.run(env.process(recover_bucketized(server)))
    assert report.keys_lost == 0

    # bring the services back up and serve a brand-new client
    server.start()
    new_client = type(c)(env, server, name="post-crash-client")

    def read_all():
        out = []
        for i in range(N_KEYS):
            value = yield from new_client.get(_key(i), size_hint=128)
            out.append(parse_value(value))
        return out

    values = run1(env, read_all())
    assert values == [(i, 1) for i in range(N_KEYS)]
    # recovered objects are durable: reads go pure RDMA
    assert new_client.pure_reads == N_KEYS

    # and the store accepts new writes after restart
    def write_more():
        yield from new_client.put(_key(0), make_value(0, 2, 128))
        return (yield from new_client.get(_key(0), size_hint=128))

    assert parse_value(run1(env, write_more())) == (0, 2)


def test_double_stop_is_safe(env):
    setup = small_store("efactory", env)
    setup.server.stop()
    setup.server.stop()  # idempotent


def test_background_thread_restarts(env):
    setup = small_store("efactory", env)
    server = setup.server
    server.stop()
    setup.fabric.crash_node(server.node, np.random.default_rng(0), 0.5)
    setup.fabric.restart_node(server.node)
    env.run(env.process(recover_bucketized(server)))
    server.start()
    c = type(setup.client())(env, server, name="late")

    def work():
        yield from c.put(_key(3), make_value(3, 7, 128))

    run1(env, work())
    env.run(until=env.now + 1_000_000)
    # the (new) background thread verified and persisted the write
    assert server.metrics()["verifier"]["persisted"] >= 1
