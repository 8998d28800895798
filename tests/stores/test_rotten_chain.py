"""Every newest-intact walk terminates on a rotten version chain.

A key's versions form a ``pre_ptr`` list (§4.2.2); media rot can point a
link anywhere. Two rotten links, under every reader of the list:

* ``self`` — the head's ``pre_ptr`` points at the head itself (a cycle);
* ``outside`` — it points past the end of its pool;
* ``no-pool`` — it names pool 1 of a single-pool store (Forca).

Setup for each cell: PUT v1, let it settle, allocate a v2 head whose
value never arrives, then overwrite v2's on-media ``pre_ptr``. v1 is
unreachable through the rotten link, so the cells ask only that each
reader ends: a GET is answered within bounded simulated time (with a
value or a store error), recovery reports the key lost, and a cleaning
cycle finishes without moving it. A reader that loops in Python without
advancing simulated time trips the interval timer instead of hanging
the suite.
"""

import signal

import numpy as np
import pytest

from repro.core.recovery import recover_bucketized
from repro.errors import StoreError
from repro.kv.objects import OBJECT_HEADER, pack_ptr
from repro.rdma.rpc import RpcFault
from tests.conftest import run1, small_store

KEY = b"key-00000000rot!"
VALUE = b"v1" * 32

#: Simulated time a GET on a rotten chain may take (a healthy one takes
#: a few µs).
GET_BUDGET_NS = 2_000_000.0
#: Host seconds before a walk that never advances simulated time fails.
HOST_BUDGET_S = 20.0


class _Hung(Exception):
    pass


@pytest.fixture
def host_deadline():
    def expire(_signum, _frame):
        raise _Hung(f"no progress within {HOST_BUDGET_S} s of host time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, HOST_BUDGET_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def _rotten_store(env, store: str, rot: str):
    """Deploy ``store`` holding v1 under KEY and a rotten v2 head."""
    setup = small_store(store, env)
    client = setup.client()

    def work():
        yield from client.put(KEY, VALUE)
        yield env.timeout(500_000)  # v1 verified and durable
        return (yield from client.alloc_rpc(KEY, len(VALUE), 0xBAD))

    v2 = run1(env, work())
    part = setup.server.partitions[v2.get("part", 0)]
    pool = part.pools[v2["pool"]]
    if rot == "self":
        ptr = pack_ptr(v2["pool"], v2["obj_off"])
    elif rot == "outside":
        ptr = pack_ptr(v2["pool"], pool.size + 4096)
    else:
        assert len(part.pools) == 1
        ptr = pack_ptr(1, 0)
    addr = pool.abs_addr(v2["obj_off"]) + OBJECT_HEADER.offset_of("pre_ptr")
    device = setup.server.device
    device.write_atomic64(addr, OBJECT_HEADER.pack_field("pre_ptr", ptr))
    device.flush(addr, 8)
    return setup, client


ROTS = ["self", "outside"]


@pytest.mark.parametrize(
    "store, rot",
    [(store, rot) for store in ("efactory", "forca") for rot in ROTS]
    + [("forca", "no-pool")],
)
def test_get_is_answered(env, host_deadline, store, rot):
    setup, client = _rotten_store(env, store, rot)

    def get():
        try:
            return (yield from client.get(KEY, size_hint=len(VALUE)))
        except (StoreError, RpcFault) as exc:
            return exc

    proc = env.process(get())
    env.run(until=env.now + GET_BUDGET_NS)
    assert not proc.is_alive, "GET still pending on a rotten chain"
    assert proc.value == VALUE or isinstance(proc.value, (StoreError, RpcFault))


@pytest.mark.parametrize("rot", ROTS)
def test_recovery_reports_the_key_lost(env, host_deadline, rot):
    setup, _client = _rotten_store(env, "efactory", rot)
    setup.server.stop()
    setup.fabric.crash_node(setup.server.node, np.random.default_rng(0), 0.0)
    setup.fabric.restart_node(setup.server.node)
    report = env.run(env.process(recover_bucketized(setup.server)))
    assert report.keys_lost == 1
    assert setup.server.lookup_slot(KEY)[1] is None


@pytest.mark.parametrize("rot", ROTS)
def test_cleaning_finishes_without_moving_the_key(env, host_deadline, rot):
    setup, _client = _rotten_store(env, "efactory", rot)
    server = setup.server
    env.run(until=env.now + 500_000)  # the verifier times v2 out
    assert server.metrics()["verifier"]["invalidated"] == 1
    env.run(server.trigger_cleaning())
    stats = server.metrics()["cleaner"]
    assert stats["cycles"] == 1
    assert stats["moved"] == 0
