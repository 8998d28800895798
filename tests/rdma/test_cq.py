"""Completion queues and asynchronous posting."""

import numpy as np
import pytest

from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue, post_read, post_write
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment


@pytest.fixture
def net(env):
    fabric = Fabric(env, jitter_ns=0.0)
    server = fabric.create_node("s", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("c")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20)
    return fabric, server, ep, mr


def test_write_completion(env, net):
    _f, server, ep, mr = net
    cq = CompletionQueue(env)

    def proc():
        wid = post_write(ep, cq, mr.rkey, 0, b"async!", wr_id=7)
        assert cq.outstanding == 1
        (wc,) = yield from cq.wait(1)
        return wid, wc

    wid, wc = env.run(env.process(proc()))
    assert wc.wr_id == wid == 7 and wc.ok
    assert server.device.buffer.read(0, 6) == b"async!"
    assert cq.outstanding == 0 and cq.completed == 1


def test_read_completion_carries_data(env, net):
    _f, server, ep, mr = net
    server.device.buffer.write(64, b"payload")
    cq = CompletionQueue(env)

    def proc():
        post_read(ep, cq, mr.rkey, 64, 7)
        (wc,) = yield from cq.wait(1)
        return wc.result

    assert env.run(env.process(proc())) == b"payload"


def test_pipelining_overlaps_round_trips(env, net):
    """N outstanding writes finish far sooner than N serial ones."""
    _f, server, ep, mr = net
    n = 16

    def serial():
        t0 = env.now
        for i in range(n):
            yield from ep.write(mr.rkey, i * 64, b"x" * 64)
        return env.now - t0

    t_serial = env.run(env.process(serial()))

    def pipelined():
        cq = CompletionQueue(env)
        t0 = env.now
        for i in range(n):
            post_write(ep, cq, mr.rkey, i * 64, b"x" * 64)
        yield from cq.wait(n)
        return env.now - t0

    t_pipe = env.run(env.process(pipelined()))
    assert t_pipe < t_serial / 3


def test_poll_nonblocking(env, net):
    _f, server, ep, mr = net
    cq = CompletionQueue(env)
    assert cq.poll() == []
    post_write(ep, cq, mr.rkey, 0, b"z")
    env.run()
    wcs = cq.poll()
    assert len(wcs) == 1 and wcs[0].ok
    assert len(cq) == 0


def test_failed_wr_completes_with_error(env, net):
    fabric, server, ep, mr = net
    cq = CompletionQueue(env)

    def proc():
        post_write(ep, cq, mr.rkey, 0, b"x" * 4096, wr_id=1)
        yield env.timeout(500)  # mid-flight
        fabric.crash_node(server, np.random.default_rng(0))
        (wc,) = yield from cq.wait(1)
        return wc

    wc = env.run(env.process(proc()))
    assert not wc.ok
    assert isinstance(wc.result, Exception)


def test_protection_error_becomes_error_cqe(env, net):
    _f, server, ep, mr = net
    cq = CompletionQueue(env)

    def proc():
        post_write(ep, cq, 0xBAD, 0, b"x")
        (wc,) = yield from cq.wait(1)
        return wc

    wc = env.run(env.process(proc()))
    assert not wc.ok


def test_completions_in_post_order_for_equal_ops(env, net):
    _f, server, ep, mr = net
    cq = CompletionQueue(env)

    def proc():
        ids = [post_write(ep, cq, mr.rkey, i * 64, b"y" * 64) for i in range(5)]
        wcs = yield from cq.wait(5)
        return ids, [wc.wr_id for wc in wcs]

    ids, completed = env.run(env.process(proc()))
    assert completed == ids  # FIFO TX engine => in-order completion
