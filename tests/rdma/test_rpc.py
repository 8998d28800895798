"""SEND-based RPC layer."""

import pytest

from repro.errors import StoreError
from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric
from repro.rdma.rpc import RpcClient, RpcFault, RpcServer, rpc_error
from repro.sim.kernel import Environment, Interrupt
from repro.sim.resources import Resource


@pytest.fixture
def rpc_net(env):
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("server", device=NVMDevice(env, 4096), cores=1)
    client = fabric.create_node("client")
    ep = fabric.connect(client, server)
    srv = RpcServer(env, server, dispatch_ns=100.0)
    return fabric, server, srv, RpcClient(ep), ep


def test_call_and_response(env, rpc_net):
    _f, _s, srv, client, _ep = rpc_net

    def add_one(msg):
        yield env.timeout(10)
        return {"n": msg.payload["n"] + 1}, 32

    srv.register("inc", add_one)
    srv.start()

    def proc():
        return (yield from client.call({"op": "inc", "n": 4}, 64))

    assert env.run(env.process(proc())) == {"n": 5}
    assert srv.requests_served == 1


def test_error_response_raises_fault(env, rpc_net):
    _f, _s, srv, client, _ep = rpc_net

    def failing(msg):
        yield env.timeout(1)
        return rpc_error("no such thing"), 32

    srv.register("bad", failing)
    srv.start()

    def proc():
        yield from client.call({"op": "bad"}, 64)

    with pytest.raises(RpcFault, match="no such thing"):
        env.run(env.process(proc()))


def test_single_handler_serializes(env, rpc_net):
    """With concurrent_handlers=1 requests queue behind each other."""
    _f, _s, srv, client, ep = rpc_net

    def slow(msg):
        yield env.timeout(1000)
        return {"t": env.now}, 32

    srv.register("slow", slow)
    srv.start()
    times = []

    def one_client(ep_):
        c = RpcClient(ep_)
        resp = yield from c.call({"op": "slow"}, 64)
        times.append(resp["t"])

    fabric, server = _f, _s
    eps = [ep, fabric.connect(fabric.create_node("c2"), server)]
    procs = [env.process(one_client(e)) for e in eps]
    env.run(env.all_of(procs))
    assert abs(times[1] - times[0]) >= 1000  # serialized on the one core


def test_concurrent_handlers_overlap(env):
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("server", device=NVMDevice(env, 4096), cores=2)
    srv = RpcServer(env, server, dispatch_ns=100.0, concurrent_handlers=2)

    def slow(msg):
        yield env.timeout(1000)
        return {"t": env.now}, 32

    srv.register("slow", slow)
    srv.start()
    times = []

    def one_client():
        node = fabric.create_node(f"c{len(times)}")
        ep = fabric.connect(node, server)
        resp = yield from RpcClient(ep).call({"op": "slow"}, 64)
        times.append(resp["t"])

    procs = [env.process(one_client()) for _ in range(2)]
    env.run(env.all_of(procs))
    assert abs(times[1] - times[0]) < 1000  # overlapped on two cores


def test_default_handler_catches_unrouted(env, rpc_net):
    _f, _s, srv, client, ep = rpc_net
    seen = []

    def catcher(msg):
        seen.append(msg.payload)
        return None
        yield  # generator

    srv.register_default(catcher)
    srv.start()

    def proc():
        yield from ep.send({"op": "mystery"}, 32)
        yield env.timeout(5000)

    env.run(env.process(proc()))
    assert seen == [{"op": "mystery"}]


def test_unroutable_without_default_dropped(env, rpc_net):
    _f, _s, srv, client, ep = rpc_net
    srv.start()

    def proc():
        yield from ep.send({"op": "nobody"}, 32)
        yield env.timeout(5000)

    env.run(env.process(proc()))  # nothing raises


def test_stop_interrupts_dispatch(env, rpc_net):
    _f, _s, srv, client, _ep = rpc_net
    proc = srv.start()
    env.run(until=100)
    srv.stop()
    env.run()
    assert not proc.is_alive


def test_stop_interrupts_inflight_handlers(env):
    """A stopped server must not keep executing handler side effects —
    crash fidelity depends on this."""
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("server", device=NVMDevice(env, 4096), cores=2)
    srv = RpcServer(env, server, dispatch_ns=10.0, concurrent_handlers=2)
    effects = []

    def slow_effect(msg):
        yield env.timeout(10_000)
        effects.append("mutated")
        return {"ok": True}, 32

    srv.register("slow", slow_effect)
    srv.start()
    client_node = fabric.create_node("c")
    ep = fabric.connect(client_node, server)

    def cli():
        try:
            yield from RpcClient(ep).call({"op": "slow"}, 64)
        except Exception:
            pass

    env.process(cli())
    env.run(until=5_000)  # handler is mid-flight
    srv.stop()
    env.run(until=50_000)
    assert effects == []


def test_double_start_rejected(env, rpc_net):
    _f, _s, srv, _c, _ep = rpc_net
    srv.start()
    with pytest.raises(StoreError):
        srv.start()


# -- handler lifecycle: spawned inline, free-core grant, no end event ------


def _fanout(env, cores, n_clients, handler, *, dispatch_ns=300.0, stagger_ns=50.0):
    """A ``cores``-core server with one handler slot per client, and
    ``n_clients`` clients that each call ``op`` once, ``stagger_ns``
    apart. Returns (server node, RpcServer, device, responses)."""
    fabric = Fabric(env, jitter_ns=0.0)
    device = NVMDevice(env, 4096)
    server = fabric.create_node("server", device=device, cores=cores)
    srv = RpcServer(
        env, server, dispatch_ns=dispatch_ns, concurrent_handlers=n_clients
    )
    srv.register("op", handler)
    srv.start()
    responses = []

    def one_client(i):
        ep = fabric.connect(fabric.create_node(f"c{i}"), server)
        yield env.timeout(i * stagger_ns)
        resp = yield from RpcClient(ep).call({"op": "op", "i": i}, 64)
        responses.append((env.now, resp))

    for i in range(n_clients):
        env.process(one_client(i))
    return server, srv, device, responses


def test_crash_interrupts_every_spawned_handler(env):
    """stop() mid-flight: handlers queued for a core, in their dispatch
    step and in their body are all interrupted; no core leaks and no
    handler writes NVM after the crash."""
    writes = []
    entered = []

    def handler(msg):
        i = msg.payload["i"]
        entered.append(i)
        yield env.timeout(20)
        device.buffer.write(64 * i, b"a" * 8)
        writes.append(env.now)
        yield env.timeout(2_000)
        device.buffer.write(64 * i + 8, b"b" * 8)
        writes.append(env.now)
        return {"i": i}, 32

    server, srv, device, responses = _fanout(env, 4, 8, handler)
    env.run(until=2_000)
    # The crash catches every phase of the lifecycle.
    assert server.cpu.count == 4 and server.cpu.queue_length == 4
    assert 0 < len(entered) < 4  # some cores still in their dispatch step
    assert writes  # some handlers are past their first write
    handlers = list(srv._handler_procs)
    assert len(handlers) == 8 and all(p.is_alive for p in handlers)

    crash_at = env.now
    srv.stop()
    env.run(until=crash_at + 10_000)
    assert all(
        not p.is_alive and not p.ok and isinstance(p.value, Interrupt)
        for p in handlers
    )
    assert all(t <= crash_at for t in writes)
    assert responses == []

    srv.start()
    env.run(until=env.now + 10_000)
    assert server.cpu.count == 0 and server.cpu.queue_length == 0


def test_failed_spawned_handler_escalates(env):
    def handler(msg):
        yield env.timeout(10)
        raise ValueError("handler blew up")

    _fanout(env, 2, 2, handler)
    with pytest.raises(ValueError, match="handler blew up"):
        env.run(until=50_000)


class _SpyCpu(Resource):
    """A CPU that records the active process whenever a core is taken."""

    def __init__(self, env, capacity):
        super().__init__(env, capacity)
        self.takers = []

    def try_acquire(self):
        self.takers.append(self.env.active_process)
        return super().try_acquire()


class _SpySet(set):
    """The server's handler set, recording who adds to it."""

    def __init__(self, env):
        super().__init__()
        self.env = env
        self.adders = []

    def add(self, proc):
        self.adders.append(self.env.active_process)
        super().add(proc)


def test_spawned_first_step_runs_as_the_handler(env):
    def handler(msg):
        yield env.timeout(10)
        return {"ok": True}, 32

    server, srv, _device, responses = _fanout(env, 2, 3, handler)
    server.cpu = _SpyCpu(env, 2)
    srv._handler_procs = _SpySet(env)
    env.run(until=50_000)
    assert len(responses) == 3
    handlers = srv._handler_procs
    # Inside the first step the handler is active; once spawn returns,
    # the loop that spawned it is active again.
    takers = server.cpu.takers
    assert len(takers) == 3 and set(takers) == set(handlers)
    assert handlers.adders == [srv._proc] * 3
    assert env.active_process is None


#: Response instants of the scenario below, recorded when every handler
#: was its own scheduled ``Process`` (Initialize, grant and end events).
EXPECTED_FIFO_INSTANTS = [
    4524.639999999999,
    4554.759999999999,
    5824.639999999999,
    5854.759999999999,
    7124.639999999999,
    7154.759999999999,
]


def test_contended_cores_grant_fifo_at_unchanged_instants(env):
    """More requests than cores: grants go in arrival order, and every
    response lands at the instant the per-request Process model gave."""
    order = []

    def handler(msg):
        order.append(msg.payload["i"])
        yield env.timeout(1_000)
        return {"i": msg.payload["i"]}, 32

    server, _srv, _device, responses = _fanout(
        env, 2, 6, handler, stagger_ns=10.0
    )
    env.run(until=50_000)
    assert order == [0, 1, 2, 3, 4, 5]
    assert [r["i"] for _t, r in responses] == [0, 1, 2, 3, 4, 5]
    assert [t for t, _r in responses] == EXPECTED_FIFO_INSTANTS
    assert server.cpu.count == 0
