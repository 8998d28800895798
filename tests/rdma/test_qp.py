"""Verb semantics: one-sided, two-sided, atomics, protection, failures."""

import numpy as np
import pytest

from repro.errors import ProtectionError, QPError
from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric
from repro.rdma.verbs import Opcode
from repro.sim.kernel import Environment


@pytest.fixture
def net(env):
    """A fabric with a server (1 MiB NVM) and one client; no jitter so
    latency assertions are exact."""
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("client")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20, name="pool")
    return fabric, server, client, ep, mr


def run(env, gen):
    return env.run(env.process(gen))


class TestWrite:
    def test_write_lands_visible_not_durable(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            yield from ep.write(mr.rkey, 64, b"data!")

        run(env, proc())
        assert server.device.buffer.read(64, 5) == b"data!"
        assert not server.device.buffer.is_persistent(64, 5)

    def test_write_latency_matches_model(self, env, net):
        fabric, server, client, ep, mr = net
        t = fabric.timing

        def proc():
            t0 = env.now
            yield from ep.write(mr.rkey, 0, b"x" * 64)
            return env.now - t0

        lat = run(env, proc())
        expected = (
            t.nic_tx_ns
            + t.serialize_ns(64)
            + 2 * t.propagation_ns
            + t.dma_ns
            + t.nic_rx_ns
        )
        assert lat == pytest.approx(expected)

    def test_large_write_costs_more(self, env, net):
        fabric, server, client, ep, mr = net

        def timed(n):
            def proc():
                t0 = env.now
                yield from ep.write(mr.rkey, 0, b"x" * n)
                return env.now - t0

            return run(env, proc())

        assert timed(4096) > timed(64)

    def test_write_outside_region_rejected(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            yield from ep.write(mr.rkey, (1 << 20) - 2, b"xxxx")

        with pytest.raises(ProtectionError):
            run(env, proc())

    def test_write_bad_rkey_rejected(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            yield from ep.write(0xDEAD, 0, b"x")

        with pytest.raises(ProtectionError):
            run(env, proc())

    def test_write_readonly_region_rejected(self, env, net):
        fabric, server, client, ep, mr = net
        ro = server.register_memory(0, 4096, writable=False, name="ro")

        def proc():
            yield from ep.write(ro.rkey, 0, b"x")

        with pytest.raises(ProtectionError):
            run(env, proc())


class TestRead:
    def test_read_returns_visible_bytes(self, env, net):
        fabric, server, client, ep, mr = net
        server.device.buffer.write(128, b"remote bytes")

        def proc():
            return (yield from ep.read(mr.rkey, 128, 12))

        assert run(env, proc()) == b"remote bytes"

    def test_read_occupies_remote_tx(self, env, net):
        """The data leg of a READ serializes on the target's TX engine."""
        fabric, server, client, ep, mr = net

        def reader():
            yield from ep.read(mr.rkey, 0, 1 << 19)  # huge read

        def competing():
            yield env.timeout(1000)  # let the big read start
            t0 = env.now
            yield from ep.read(mr.rkey, 0, 8)
            return env.now - t0

        env.process(reader())
        small_lat = env.run(env.process(competing()))
        # 512 KiB at 0.08 ns/B holds the engine ~42 us; the small read
        # must have waited well beyond its uncontended ~2 us.
        assert small_lat > 10_000


class TestAtomics:
    def test_cas_success_and_failure(self, env, net):
        fabric, server, client, ep, mr = net
        server.device.write_atomic64(0, (5).to_bytes(8, "little"))

        def proc():
            old = yield from ep.cas(
                mr.rkey, 0, (5).to_bytes(8, "little"), (9).to_bytes(8, "little")
            )
            old2 = yield from ep.cas(
                mr.rkey, 0, (5).to_bytes(8, "little"), (7).to_bytes(8, "little")
            )
            return old, old2

        old, old2 = run(env, proc())
        assert int.from_bytes(old, "little") == 5
        assert int.from_bytes(old2, "little") == 9  # second CAS failed
        assert server.device.buffer.read(0, 8) == (9).to_bytes(8, "little")

    def test_faa(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            a = yield from ep.faa(mr.rkey, 8, 10)
            b = yield from ep.faa(mr.rkey, 8, 10)
            return a, b

        assert run(env, proc()) == (0, 10)

    def test_cas_operand_size_checked(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            yield from ep.cas(mr.rkey, 0, b"xx", b"yy")

        with pytest.raises(QPError):
            run(env, proc())


class TestTwoSided:
    def test_send_delivers_to_srq(self, env, net):
        fabric, server, client, ep, mr = net

        def sender():
            yield from ep.send({"op": "ping"}, 64)

        def receiver():
            msg = yield server.srq.get()
            return msg.payload, msg.opcode

        env.process(sender())
        payload, opcode = env.run(env.process(receiver()))
        assert payload == {"op": "ping"} and opcode is Opcode.SEND

    def test_reply_roundtrip(self, env, net):
        fabric, server, client, ep, mr = net

        def srv():
            msg = yield server.srq.get()
            yield from msg.reply_to.send("pong", 16, in_reply_to=msg.req_id)

        def cli():
            rid = yield from ep.send("ping", 16)
            resp = yield from ep.recv_response(rid)
            return resp.payload

        env.process(srv())
        assert env.run(env.process(cli())) == "pong"

    def test_write_with_imm_data_plus_notification(self, env, net):
        fabric, server, client, ep, mr = net

        def cli():
            yield from ep.write_with_imm(mr.rkey, 256, b"bulk", imm=77)

        def srv():
            msg = yield server.srq.get()
            return msg.imm, msg.opcode

        env.process(cli())
        imm, opcode = env.run(env.process(srv()))
        assert imm == 77 and opcode is Opcode.WRITE_WITH_IMM
        assert server.device.buffer.read(256, 4) == b"bulk"


class TestNodeDeath:
    def test_ops_to_dead_node_fail(self, env, net):
        fabric, server, client, ep, mr = net
        fabric.crash_node(server, np.random.default_rng(0))

        for op in (
            lambda: ep.write(mr.rkey, 0, b"x"),
            lambda: ep.read(mr.rkey, 0, 1),
            lambda: ep.send("hi", 16),
        ):
            with pytest.raises(QPError):
                run(env, op())

    def test_write_in_flight_at_crash_fails(self, env, net):
        fabric, server, client, ep, mr = net
        outcome = {}

        def writer():
            try:
                yield from ep.write(mr.rkey, 0, b"z" * 4096)
            except QPError:
                outcome["failed"] = True

        def killer():
            yield env.timeout(900)  # mid-flight
            fabric.crash_node(server, np.random.default_rng(1))

        env.process(writer())
        env.process(killer())
        env.run()
        assert outcome.get("failed")


class TestStats:
    def test_opcode_counters(self, env, net):
        fabric, server, client, ep, mr = net

        def proc():
            yield from ep.write(mr.rkey, 0, b"x")
            yield from ep.read(mr.rkey, 0, 1)
            yield from ep.read(mr.rkey, 0, 1)

        run(env, proc())
        assert ep.stats == {"write": 1, "read": 2}
