"""DDIO configuration (§2.2/§7 context): with DDIO disabled, inbound
RDMA writes land directly in the power-fail domain."""

import numpy as np
import pytest

from repro.nvm.device import NVMDevice
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-00000000ddio"


class TestFabricLevel:
    def _net(self, env, ddio):
        fabric = Fabric(env, jitter_ns=0.0)
        server = fabric.create_node(
            "s", device=NVMDevice(env, 1 << 20), ddio=ddio
        )
        client = fabric.create_node("c")
        ep = fabric.connect(client, server)
        mr = server.register_memory(0, 1 << 20)
        return fabric, server, ep, mr

    def test_ddio_on_write_is_volatile(self, env):
        _f, server, ep, mr = self._net(env, ddio=True)

        def w():
            yield from ep.write(mr.rkey, 0, b"x" * 256)

        run1(env, w())
        assert not server.device.is_persistent(0, 256)

    def test_ddio_off_write_is_durable_on_arrival(self, env):
        _f, server, ep, mr = self._net(env, ddio=False)

        def w():
            yield from ep.write(mr.rkey, 0, b"x" * 256)

        run1(env, w())
        assert server.device.is_persistent(0, 256)

    def test_ddio_off_torn_writes_survive_crash(self, env):
        """Without DDIO a torn in-flight write is torn *on media*: the
        arrived cachelines persist regardless of eviction luck — the
        paper's worst-case inconsistency."""
        fabric, server, ep, mr = self._net(env, ddio=False)

        def w():
            try:
                yield from ep.write(mr.rkey, 0, b"\xab" * 4096)
            except Exception:
                pass

        def killer():
            yield env.timeout(700)
            fabric.crash_node(server, np.random.default_rng(3), 0.0)

        env.process(w())
        env.process(killer())
        env.run()
        landed = sum(
            1 for i in range(64) if server.device.read(i * 64, 1) == b"\xab"
        )
        assert 0 < landed < 64  # durable tear even with zero eviction


class TestStoreLevel:
    def test_config_plumbs_to_node(self, env):
        setup = small_store("ca", env, ddio=False)
        assert setup.server.node.ddio is False

    def test_ca_without_ddio_is_durable_per_write(self, env):
        """CA + no DDIO: each completed write is durable on ack (but
        atomicity is still absent — this is not a consistency scheme)."""
        setup = small_store("ca", env, ddio=False)
        c = setup.client()

        def work():
            yield from c.put(KEY, b"v" * 256)

        run1(env, work())
        found = setup.server.lookup_slot(KEY)
        cur = found[1]
        pool = setup.server.partition_for_key(KEY).pools[cur.pool]
        # the *value* region arrived via DMA and is durable
        from repro.kv.objects import HEADER_SIZE

        value_addr = pool.abs_addr(cur.offset) + HEADER_SIZE + len(KEY)
        assert setup.server.device.is_persistent(value_addr, 256)
