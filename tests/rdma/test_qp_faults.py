"""QP error-path behaviour under injected transport faults."""

import pytest

from repro.errors import QPError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric
from repro.sim.rng import RngRegistry


@pytest.fixture
def net(env):
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("client")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20, name="pool")
    return fabric, server, client, ep, mr


def arm(fabric, *rules, seed=1):
    plan = FaultPlan("t", tuple(rules))
    fabric.injector = FaultInjector(fabric.env, plan, RngRegistry(seed))
    return fabric.injector


def run(env, gen):
    return env.run(env.process(gen))


class TestQPErrorState:
    def test_injected_error_fails_verb_and_sticks(self, env, net):
        fabric, server, client, ep, mr = net
        arm(fabric, FaultRule("qp_error", site="qp.write", max_fires=1))

        def doomed():
            yield from ep.write(mr.rkey, 0, b"x")

        with pytest.raises(QPError) as ei:
            run(env, doomed())
        assert ei.value.code == "qp_error"
        assert ep.in_error

        # Rule exhausted, but the QP stays unusable for EVERY verb
        # until reset — including ones the rule never targeted.
        def read_too():
            yield from ep.read(mr.rkey, 0, 8)

        with pytest.raises(QPError) as ei:
            run(env, read_too())
        assert ei.value.code == "qp_error"

    def test_error_verb_costs_no_simulated_time(self, env, net):
        fabric, server, client, ep, mr = net
        arm(fabric, FaultRule("qp_error", site="qp.write", max_fires=1))

        def doomed():
            yield from ep.write(mr.rkey, 0, b"x")

        with pytest.raises(QPError):
            run(env, doomed())
        assert env.now == 0.0  # failed before entering the TX engine

    def test_reset_clears_both_directions(self, env, net):
        fabric, server, client, ep, mr = net
        ep._error = True
        ep.peer._error = True
        ep.reset()
        assert not ep.in_error
        assert not ep.peer.in_error

        def works():
            yield from ep.write(mr.rkey, 0, b"ok")

        fabric.injector = None
        run(env, works())
        assert server.device.buffer.read(0, 2) == b"ok"

    def test_peer_error_does_not_block_this_direction(self, env, net):
        fabric, server, client, ep, mr = net
        ep.peer._error = True  # server->client direction broken

        def works():
            yield from ep.write(mr.rkey, 0, b"ok")

        run(env, works())  # client->server unaffected


class TestCompletionDrop:
    def test_drop_burns_detection_time_then_errors(self, env, net):
        fabric, server, client, ep, mr = net
        arm(
            fabric,
            FaultRule(
                "completion_drop", site="qp.write", delay_ns=500.0, max_fires=1
            ),
        )

        def doomed():
            yield from ep.write(mr.rkey, 64, b"lost")

        with pytest.raises(QPError) as ei:
            run(env, doomed())
        assert ei.value.code == "completion_lost"
        assert env.now == 500.0  # transport retries before giving up
        assert ep.in_error
        # the payload never reached the target
        assert server.device.buffer.read(64, 4) == b"\x00" * 4


class TestCompletionDelay:
    def test_delay_adds_exactly_delay_ns(self, env, net):
        fabric, server, client, ep, mr = net

        def timed():
            t0 = env.now
            yield from ep.read(mr.rkey, 0, 64)
            return env.now - t0

        baseline = run(env, timed())
        arm(fabric, FaultRule("completion_delay", site="qp.read", delay_ns=777.0))
        delayed = run(env, timed())
        assert delayed == pytest.approx(baseline + 777.0)


class TestZeroCostWhenUnarmed:
    @pytest.mark.parametrize("armed_empty", [False, True])
    def test_armed_empty_plan_is_timing_identical(self, env, net, armed_empty):
        """An armed-but-empty plan must not perturb a single timing."""
        fabric, server, client, ep, mr = net
        if armed_empty:
            arm(fabric)  # empty plan

        def workload():
            for i in range(10):
                yield from ep.write(mr.rkey, i * 128, bytes([i]) * 64)
                yield from ep.read(mr.rkey, i * 128, 64)
                yield from ep.faa(mr.rkey, 4096, 1)
            return env.now

        end = run(env, workload())
        # compare against a fresh, never-armed fabric running the same ops
        env2 = type(env)()
        fabric2 = Fabric(env2, jitter_ns=0.0)
        server2 = fabric2.create_node("server", device=NVMDevice(env2, 1 << 20))
        client2 = fabric2.create_node("client")
        ep2 = fabric2.connect(client2, server2)
        mr2 = server2.register_memory(0, 1 << 20, name="pool")

        def workload2():
            for i in range(10):
                yield from ep2.write(mr2.rkey, i * 128, bytes([i]) * 64)
                yield from ep2.read(mr2.rkey, i * 128, 64)
                yield from ep2.faa(mr2.rkey, 4096, 1)
            return env2.now

        assert env2.run(env2.process(workload2())) == end
