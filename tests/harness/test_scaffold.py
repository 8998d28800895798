"""The shared closed-loop op driver (:class:`repro.harness.scaffold.ClosedLoop`)
and the one :func:`~repro.harness.scaffold.issue` both loops send ops through."""

from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import OperationTimeout, ProtectionError, QPError, StoreError
from repro.harness import scaffold
from repro.harness.runner import RunSpec, run_experiment
from repro.harness.scaffold import ClosedLoop, issue
from repro.loadgen import engine
from repro.loadgen.engine import LoadSpec, run_load
from repro.loadgen.tenants import TenantSpec
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment
from repro.workloads.keyspace import make_key, make_value
from repro.workloads.ycsb import ycsb_f

VLEN = 32
KEYS = [make_key(k, 16) for k in range(4)]


class _Client:
    """A store client that takes 1 µs per call: PUTs raise ``put_error``
    if one is given, GETs serve ``served`` (default: what was put)."""

    def __init__(self, env, put_error=None, served=None, get_ns=1_000.0):
        self.env, self.put_error, self.served = env, put_error, served
        self.get_ns = get_ns
        self.calls: list[str] = []
        self.data = {key: make_value(k, 0, VLEN) for k, key in enumerate(KEYS)}

    def put(self, key, value):
        self.calls.append("put")
        yield self.env.timeout(1_000.0)
        if self.put_error is not None:
            raise self.put_error
        self.data[key] = value

    def get(self, key, size_hint=0):
        self.calls.append("get")
        yield self.env.timeout(self.get_ns)
        return self.served if self.served is not None else self.data[key]


def _loop(env, client):
    return ClosedLoop(env, SimpleNamespace(client=lambda i: client), len(KEYS), 16, VLEN)


def test_no_op_is_drawn_once_the_loop_is_stopped():
    env = Environment()
    loop = _loop(env, _Client(env))
    rng = np.random.default_rng(5)

    def ops():
        while True:
            yield "put", int(rng.integers(len(KEYS)))

    loop.run([ops()], name="c")

    def stopper():
        yield from loop.until(3)
        loop.stopped = True

    env.run(env.process(stopper()))
    env.run()
    # The op in flight when the loop stopped finished; nothing after it
    # was drawn: the stream's rng stands exactly `attempted` draws in.
    drawn = loop.attempted
    assert drawn == loop.completed >= 3
    twin = np.random.default_rng(5)
    for _ in range(drawn):
        twin.integers(len(KEYS))
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "error",
    [StoreError("refused"), RpcFault("busy"), QPError("flap"), OperationTimeout("late")],
    ids=lambda e: type(e).__name__,
)
def test_a_failed_put_counts_failed_and_acks_nothing(error):
    env = Environment()
    loop = _loop(env, _Client(env, put_error=error))
    loop.run([[("put", 1), ("put", 1)]], name="c")
    env.run()
    assert (loop.attempted, loop.completed, loop.failed) == (2, 0, 2)
    assert loop.ledger.issued[1] == 2  # both were issued ...
    assert loop.ledger.acked[1] == 0  # ... neither acked


def test_a_read_outside_its_region_is_a_failed_op():
    """A GET through a rotten location READs outside the pool's region:
    the verb's ``ProtectionError`` fails that op and the loop goes on."""
    env = Environment()
    client = _Client(env)

    def rotten_get(key, size_hint=0):
        yield env.timeout(1_000.0)
        raise ProtectionError("pool0: access outside region")

    client.get = rotten_get
    loop = _loop(env, client)
    loop.run([[("get", 2), ("put", 2)]], name="c")
    env.run()
    assert (loop.attempted, loop.completed, loop.failed) == (2, 1, 1)
    assert loop.ledger.max_read[2] == -1


def test_a_torn_get_counts_torn_and_moves_no_mark():
    env = Environment()
    loop = _loop(env, _Client(env, served=b"\x5a" * VLEN))
    loop.run([[("get", 2)]], name="c")
    env.run()
    assert loop.torn_reads == loop.completed == 1
    assert (loop.ledger.issued[2], loop.ledger.acked[2], loop.ledger.max_read[2]) == (0, 0, -1)


def test_an_intact_get_and_put_feed_the_ledger():
    env = Environment()
    loop = _loop(env, _Client(env))
    loop.run([[("put", 3), ("get", 3)]], name="c")
    env.run()
    assert (loop.ledger.issued[3], loop.ledger.acked[3], loop.ledger.max_read[3]) == (1, 1, 1)
    assert loop.torn_reads == loop.failed == 0


def test_an_interrupt_ends_the_client_cleanly():
    env = Environment()
    client = _Client(env, get_ns=1e9)
    loop = _loop(env, client)
    drawn = count()

    def ops():
        while True:
            next(drawn)
            yield "get", 0

    (proc,) = loop.run([ops()], name="c")

    def crash():
        yield env.timeout(10.0)
        loop.stopped = True
        loop.interrupt()

    env.process(crash())
    env.run(proc)
    assert proc.ok and proc.value is None
    assert next(drawn) == 1  # the one op in flight, nothing after it
    assert (loop.attempted, loop.completed, loop.failed) == (1, 0, 0)


def test_rmw_reads_then_writes_and_returns_the_read():
    env = Environment()
    client = _Client(env)
    value = make_value(0, 7, VLEN)
    read = env.run(env.process(issue(client, "rmw", KEYS[0], value, VLEN)))
    assert client.calls == ["get", "put"]
    assert read == make_value(0, 0, VLEN) and client.data[KEYS[0]] == value


def test_the_runner_and_loadgen_issue_rmw_through_one_function(monkeypatch):
    assert engine.issue is scaffold.issue
    real, kinds = scaffold.issue, []

    def spy(client, kind, *rest):
        kinds.append(kind)
        return real(client, kind, *rest)

    monkeypatch.setattr(scaffold, "issue", spy)
    monkeypatch.setattr(engine, "issue", spy)
    workload = ycsb_f(value_len=64, key_count=32)
    run_experiment(RunSpec("efactory", workload, n_clients=1, ops_per_client=20, warmup_ops=0))
    assert "rmw" in kinds
    kinds.clear()
    tenant = TenantSpec("t", workload, clients=1, ops_per_client=20, rate_ops_s=100_000.0)
    run_load(LoadSpec(tenants=(tenant,), settle_ns=1_000_000.0))
    assert "rmw" in kinds
