"""Fabric topology, in-flight tracking, crash tearing, timing model."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.mem.buffer import CACHELINE
from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric
from repro.rdma.latency import FabricTiming
from repro.sim.kernel import Environment


class TestTimingModel:
    def test_serialize_floor(self):
        t = FabricTiming()
        assert t.serialize_ns(1) == t.serialize_ns(t.min_wire_bytes)
        assert t.serialize_ns(1000) > t.serialize_ns(64)

    def test_scaled(self):
        t = FabricTiming().scaled(2.0)
        base = FabricTiming()
        assert t.propagation_ns == 2 * base.propagation_ns
        assert t.two_sided_rx_ns == 2 * base.two_sided_rx_ns
        with pytest.raises(ConfigError):
            base.scaled(0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FabricTiming(propagation_ns=-1)

    def test_two_sided_rx_cost_grows_with_size(self):
        t = FabricTiming()
        assert t.two_sided_rx_cost(4096) > t.two_sided_rx_cost(64)


class TestCrashTearing:
    def _setup(self, env):
        fabric = Fabric(env, jitter_ns=0.0)
        server = fabric.create_node("s", device=NVMDevice(env, 1 << 20))
        client = fabric.create_node("c")
        ep = fabric.connect(client, server)
        mr = server.register_memory(0, 1 << 20)
        return fabric, server, ep, mr

    def test_partial_application_of_inflight_write(self, env):
        """A crash mid-transfer lands a strict subset of cachelines.

        ``evict_probability=1.0`` isolates the arrival tearing: every
        line that reached the volatile domain survives, so what's on
        media afterwards is exactly the torn arrival subset.
        """
        fabric, server, ep, mr = self._setup(env)
        payload = bytes([0xAB]) * (64 * CACHELINE)

        def writer():
            try:
                yield from ep.write(mr.rkey, 0, payload)
            except Exception:
                pass

        def killer():
            # after serialization started but before the ACK (~half way)
            yield env.timeout(700)
            fabric.crash_node(server, np.random.default_rng(3), 1.0)

        env.process(writer())
        env.process(killer())
        env.run()
        landed = sum(
            1
            for i in range(64)
            if server.device.read(i * CACHELINE, 1) == b"\xab"
        )
        assert 0 < landed < 64  # torn, not all-or-nothing

    def test_inflight_data_lost_without_eviction(self, env):
        """Arrived-but-volatile data dies with the caches: DDIO places
        the payload in the LLC, not the power-fail domain (§3)."""
        fabric, server, ep, mr = self._setup(env)

        def writer():
            try:
                yield from ep.write(mr.rkey, 0, b"\xab" * 4096)
            except Exception:
                pass

        def killer():
            yield env.timeout(700)
            fabric.crash_node(server, np.random.default_rng(3), 0.0)

        env.process(writer())
        env.process(killer())
        env.run()
        assert server.device.read(0, 4096) == b"\x00" * 4096

    def test_crash_before_transfer_lands_nothing(self, env):
        fabric, server, ep, mr = self._setup(env)

        def writer():
            try:
                yield from ep.write(mr.rkey, 0, b"\xcd" * 4096)
            except Exception:
                pass

        def killer():
            yield env.timeout(1)  # still in the TX engine
            fabric.crash_node(server, np.random.default_rng(0), 0.0)

        env.process(writer())
        env.process(killer())
        env.run()
        assert server.device.read(0, 4096) == b"\x00" * 4096

    def test_inflight_writes_handed_to_another_fabric_tear_alike(self, env):
        """A node's in-flight WRITEs, put in flight on a second fabric at
        the same instant, tear into the same bytes under the same coins;
        writes to other nodes stay behind."""
        fabric, server, ep, mr = self._setup(env)
        other = fabric.create_node("o", device=NVMDevice(env, 1 << 20))
        for i in range(3):
            fabric.register_inflight(server, i * 4096, bytes([i + 1]) * 4096,
                                     apply_at=900.0 + i, t_start=100.0 * i)
            fabric.register_inflight(other, 0, b"\xee" * 64, 900.0, 0.0)
        writes = fabric.inflight_to(server)
        assert [w[0] for w in writes] == [0, 4096, 8192]

        twin_env = Environment()
        twin = Fabric(twin_env, jitter_ns=0.0)
        twin_server = twin.create_node("s", device=NVMDevice(twin_env, 1 << 20))
        twin.adopt_inflight(twin_server, writes)
        assert twin.inflight_count(twin_server) == 3

        env.run(until=450.0)
        twin_env.run(until=450.0)
        summaries = [
            f.crash_node(node, np.random.default_rng(5), 0.5, tear_words=True)
            for f, node in ((fabric, server), (twin, twin_server))
        ]
        assert summaries[0] == summaries[1] and summaries[0]["torn_writes"] == 3
        assert twin_server.device.same_image(server.device.snapshot())
        assert fabric.inflight_count(other) == 3

    def test_double_crash_rejected(self, env):
        fabric, server, ep, mr = self._setup(env)
        fabric.crash_node(server, np.random.default_rng(0))
        with pytest.raises(SimulationError):
            fabric.crash_node(server, np.random.default_rng(0))

    def test_restart_clears_srq(self, env):
        fabric, server, ep, mr = self._setup(env)

        def sender():
            yield from ep.send("stale", 16)

        env.process(sender())
        env.run()
        assert len(server.srq) == 1
        fabric.crash_node(server, np.random.default_rng(0))
        fabric.restart_node(server)
        assert server.alive and len(server.srq) == 0

    def test_restart_live_node_rejected(self, env):
        fabric, server, ep, mr = self._setup(env)
        with pytest.raises(SimulationError):
            fabric.restart_node(server)

    def test_inflight_count(self, env):
        fabric, server, ep, mr = self._setup(env)
        assert fabric.inflight_count() == 0

        def writer():
            yield from ep.write(mr.rkey, 0, b"x" * 1024)

        env.process(writer())
        env.run(until=600)
        assert fabric.inflight_count(server) == 1
        env.run()
        assert fabric.inflight_count() == 0


class TestConnectionLifetime:
    def test_peer_links(self, env):
        fabric = Fabric(env)
        a = fabric.connect(fabric.create_node("c"), fabric.create_node("s"))
        b = a.peer
        assert b.peer is a
        assert a.peer.peer is a

    def test_dropped_rig_is_freed_by_refcount(self):
        """The target-side endpoint refers back to the initiator weakly,
        so a rig nobody holds any more — endpoints, nodes, the device and
        its NVM image — goes at once, not when the cycle collector next
        happens to run."""

        class Probe(str):
            pass  # a device name a weakref can watch

        def run_and_drop():
            env = Environment()
            fabric = Fabric(env, jitter_ns=0.0)
            device = NVMDevice(env, 1 << 20, name=Probe("probe"))
            server = fabric.create_node("s", device=device)
            ep = fabric.connect(fabric.create_node("c"), server)
            mr = server.register_memory(0, 1 << 20)

            def client():
                yield from ep.write(mr.rkey, 0, b"x" * 256)
                yield from ep.send({"op": "ping"}, wire_bytes=64)

            env.run(env.process(client()))
            env.run()
            # An unconsumed message is the server's to drop: node -> SRQ
            # -> message -> reply_to -> endpoint -> node.
            ok, msg = server.srq.try_get()
            assert ok and msg.reply_to is ep.peer
            assert device.read(0, 4) == b"xxxx"
            return weakref.ref(device.name)

        gc.collect()
        gc.disable()
        try:
            probe = run_and_drop()
            assert probe() is None
        finally:
            gc.enable()


class TestJitter:
    def test_zero_jitter_is_deterministic_exact(self, env):
        fabric = Fabric(env, jitter_ns=0.0)
        assert fabric.jitter() == 0.0

    def test_jitter_reproducible_by_seed(self):
        env = Environment()
        a = Fabric(env, jitter_seed=9)
        b = Fabric(env, jitter_seed=9)
        assert [a.jitter() for _ in range(5)] == [b.jitter() for _ in range(5)]

    def test_node_without_device_cannot_register(self, env):
        fabric = Fabric(env)
        node = fabric.create_node("diskless")
        with pytest.raises(SimulationError):
            node.register_memory(0, 64)
