"""Queued TX turns: a leg that finds its engine busy while the fast path is
allowed is taken in closed form at one wake-up, at exactly the instants,
jitter draws and counters the walk produces.

The reference is the walk itself: ``Endpoint._tx_leg`` patched to
``Endpoint._tx_walk`` is how every leg not claimed idle was simulated
before turns existed.
"""

import hashlib
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue
from repro.rdma.fabric import Fabric
from repro.rdma.qp import Endpoint
from repro.rdma.rpc import RpcClient, RpcServer
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from tests.rdma.verb_characterisation import _plain, _posted, _sent

VERBS = ("read", "write", "send", "cas", "faa", "write_many", "post_write")
SLOT = 64 * 1024  # per-issuer window of target memory


def _rig(clients: int, bucket_ns: float = 0.0):
    env = Environment()
    fabric = Fabric(env)
    if bucket_ns:
        fabric.enable_completion_batching(bucket_ns)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    mr = server.register_memory(0, 1 << 20)
    eps = [fabric.connect(fabric.create_node(f"c{i}"), server) for i in range(clients)]
    return env, fabric, server, eps, mr


@contextmanager
def _legs(walk: bool):
    """With ``walk``, every leg not claimed idle walks while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        if walk:
            mp.setattr(Endpoint, "_tx_leg", Endpoint._tx_walk)
        yield


def _op(verb, ep, cq, mr, k, size):
    base = k * SLOT
    fill = bytes([65 + k]) * size
    if verb == "read":
        return ep.read(mr.rkey, base, size)
    if verb == "write":
        return ep.write(mr.rkey, base, fill)
    if verb == "send":
        return _sent(ep, {"k": k}, size)
    if verb == "cas":
        return ep.cas(mr.rkey, 0, bytes(8), bytes([k + 1]) * 8)
    if verb == "faa":
        return ep.faa(mr.rkey, 8, k + 1)
    if verb == "write_many":
        return ep.write_many(
            [(mr.rkey, base + i * 4096, fill[: size // 3 + 1]) for i in range(3)]
        )
    return _posted(ep, cq, mr, base, fill)


def _execute(program, bucket_ns, walk):
    """Run ``program`` — per issuer (client node, issue instant, ops) —
    and return everything a leg mode could disturb, plus the event count."""
    env, fabric, server, eps, mr = _rig(3, bucket_ns)
    draws = []
    jitter = fabric.jitter

    def logged_jitter():
        j = jitter()
        draws.append((env.now.hex(), j.hex()))
        return j

    fabric.jitter = logged_jitter
    done = []

    def issuer(k, node, at, ops):
        cq = CompletionQueue(env)
        yield env.timeout_at(at)
        for i, (verb, size) in enumerate(ops):
            result = yield from _op(verb, eps[node], cq, mr, k, size)
            done.append((k, i, env.now.hex(), _plain(result)))

    for k, (node, at, ops) in enumerate(program):
        env.process(issuer(k, node, at, ops))
    with _legs(walk):
        env.run()
    observed = {
        "done": done,
        "draws": draws,
        "now": env.now.hex(),
        "counters": (fabric.fastpath_ops, fabric.fallback_ops),
        "ep_fastpath_ops": [ep.fastpath_ops for ep in eps],
        "deliveries": [m.arrived_at.hex() for m in server.srq.items],
        "memory": hashlib.sha256(server.device.read(0, 1 << 20)).hexdigest(),
        "inflight_left": fabric.inflight_count(),
    }
    return observed, env.events_processed


_PROGRAMS = st.lists(
    st.tuples(
        st.integers(0, 2),  # client node: issuers share engines
        st.sampled_from((0.0, 0.0, 150.0, 1500.0)),  # tied issue instants
        st.lists(
            st.tuples(st.sampled_from(VERBS), st.sampled_from((8, 200, 4096, 48_000))),
            min_size=1,
            max_size=4,
        ),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(_PROGRAMS, st.sampled_from((0.0, 256.0)))
@example(  # a head joining behind a served turn woke 1 ulp after the walk's grant
    program=[(1, 150.0, [("read", 8)]), (0, 0.0, [("write", 8), ("read", 8)]),
             (0, 0.0, [("write", 48000)]), (1, 0.0, [("read", 8)])],
    bucket_ns=0.0,
)
@example(  # the walk, behind an idle claim's reservation, woke 1 ulp off the turn
    program=[(1, 0.0, [("write", 8), ("read", 8)]), (0, 0.0, [("read", 8)]),
             (1, 150.0, [("write", 48000)])],
    bucket_ns=0.0,
)
def test_turns_reproduce_the_walk(program, bucket_ns):
    turns, turn_events = _execute(program, bucket_ns, walk=False)
    walked, walk_events = _execute(program, bucket_ns, walk=True)
    assert turns == walked
    assert turn_events <= walk_events


def test_read_whose_response_finds_the_engine_busy_costs_one_more_event():
    """The small READ's request leg is claimed idle on its own engine; its
    response finds the server engine streaming a 256 KiB response and
    queues one turn — one event, where the walk took four."""

    def run(*readers):
        env, fabric, _server, eps, mr = _rig(2)

        def reader(ep, length, at):
            yield env.timeout(at)
            yield from ep.read(mr.rkey, 0, length)

        for k, length, at in readers:
            env.process(reader(eps[k], length, at))
        env.run()
        return env.events_processed, fabric

    big, _ = run((0, 256 * 1024, 0.0))
    small, _ = run((1, 64, 2000.0))
    both, fabric = run((0, 256 * 1024, 0.0), (1, 64, 2000.0))
    assert (fabric.fastpath_ops, fabric.fallback_ops) == (1, 1)
    assert both == big + small + 1


def _served_rpc_under_load(walk, stop_at, early_read):
    """A big READ holds the server engine; an RPC response SEND queues
    behind it (behind a 64 KiB READ response too when ``early_read``),
    then a small READ's response; the RPC server is stopped at
    ``stop_at``. Returns the completions and the line at the stop."""
    env, _fabric, server, eps, mr = _rig(3)
    rpc = RpcServer(env, server)

    def ping(_msg):
        return "pong", 64
        yield  # pragma: no cover - makes this a generator

    rpc.register("ping", ping)
    rpc.start()
    done, at_stop = [], []

    def reader(k, ep, at, length):
        yield env.timeout(at)
        yield from ep.read(mr.rkey, 0, length)
        done.append((k, env.now.hex()))

    def caller():
        yield env.timeout(500.0)
        yield from RpcClient(eps[2]).call({"op": "ping"}, 64)
        done.append(("rpc", env.now.hex()))  # pragma: no cover - stopped first

    def stopper():
        yield env.timeout(stop_at)
        turns = server.tx_turns or ()
        at_stop.append((len(turns), bool(turns) and turns[0].triggered))
        rpc.stop()

    env.process(reader(0, eps[0], 0.0, 256 * 1024))
    if early_read:
        env.process(reader(2, eps[0], 1200.0, 64 * 1024))
    env.process(reader(1, eps[1], 3000.0, 64))
    env.process(caller())
    env.process(stopper())
    with _legs(walk):
        env.run()
    return done, at_stop, server.tx_turns


@pytest.mark.parametrize(
    "early_read,stop_at,line",
    [
        (True, 10_000.0, (3, True)),  # the SEND waits behind the 64 KiB response
        (False, 10_000.0, (2, True)),  # the SEND is first in line, waiting out R
        (True, 24_000.0, (2, True)),  # the SEND was handed the engine, wake pending
    ],
    ids=["queued", "head-reserving", "head-handed"],
)
def test_interrupted_claimant_does_not_wedge_the_engine(early_read, stop_at, line):
    turns_done, turns_line, left = _served_rpc_under_load(False, stop_at, early_read)
    walk_done, _, _ = _served_rpc_under_load(True, stop_at, early_read)
    assert turns_line == [line]
    assert turns_done == walk_done
    assert 1 in [k for k, _ in turns_done] and "rpc" not in dict(turns_done)
    assert not left


def test_injector_armed_while_turns_are_queued_keeps_fifo_order():
    """Three READ responses queue turns behind a 256 KiB one; an (empty)
    fault plan is armed while they wait and disarmed later. An armed
    injector changes no leg's mode: the READs issued meanwhile and after
    queue behind the others in FIFO order, at the walk's instants."""

    def drive(walk):
        env, fabric, _server, eps, mr = _rig(3)
        done = []

        def reader(k, ep, at, length):
            yield env.timeout(at)
            yield from ep.read(mr.rkey, 0, length)
            done.append((k, env.now.hex()))

        def arm_then_disarm():
            yield env.timeout(5_000.0)
            fabric.injector = FaultInjector(env, FaultPlan("noop"), RngRegistry(1))
            yield env.timeout(2_000.0)
            fabric.injector = None

        env.process(reader(0, eps[0], 0.0, 256 * 1024))
        for k, at in ((1, 1_000.0), (2, 1_400.0), (3, 1_800.0)):
            env.process(reader(k, eps[k % 3], at, 64))
        env.process(reader(4, eps[1], 5_500.0, 4096))
        env.process(reader(5, eps[2], 7_500.0, 64))
        env.process(arm_then_disarm())
        with _legs(walk):
            env.run()
        return done, (fabric.fastpath_ops, fabric.fallback_ops)

    turns, walked = drive(False), drive(True)
    assert turns == walked
    assert [k for k, _ in turns[0]] == [0, 1, 2, 3, 4, 5]
