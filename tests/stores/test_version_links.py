"""Version-list link maintenance (§4.2.2): PrePTR backward, NextPTR
forward, and the cleaner's treatment of invalidated objects."""

import pytest

from repro.core import EFactoryServer
from repro.kv.objects import FLAG_VALID, HEADER_SIZE, parse_header, unpack_ptr
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-00000000link"


def _chain_offsets(server, key):
    """Offsets of all versions newest-first via PrePTR."""
    cur = server.lookup_slot(key)[1]
    return [
        (loc.pool, loc.offset)
        for loc in server.partition_for_key(key).versions(cur)
    ]


def test_forward_links_mirror_backward_links(env):
    setup = small_store("efactory", env)
    c = setup.client()

    def work():
        for i in range(4):
            yield from c.put(KEY, bytes([i]) * 64)

    run1(env, work())
    server = setup.server
    chain = _chain_offsets(server, KEY)
    assert len(chain) == 4
    # walk forward from the oldest using nxt_ptr; must retrace the chain
    oldest = chain[-1]
    forward = [oldest]
    while True:
        pool, off = forward[-1]
        hdr = parse_header(server.partitions[0].pools[pool].read(off, HEADER_SIZE))
        nxt = unpack_ptr(hdr.nxt_ptr)
        if nxt is None:
            break
        forward.append(nxt)
    assert forward == list(reversed(chain))


def test_latest_version_has_no_forward_link(env):
    setup = small_store("efactory", env)
    c = setup.client()

    def work():
        yield from c.put(KEY, b"only" * 16)

    run1(env, work())
    server = setup.server
    (pool, off), = _chain_offsets(server, KEY)
    hdr = parse_header(server.partitions[0].pools[pool].read(off, HEADER_SIZE))
    assert unpack_ptr(hdr.nxt_ptr) is None


def test_cleaner_skips_invalidated_objects(env, monkeypatch):
    """An object invalidated by the verify timeout is garbage: the
    cleaner must not move it, and the key resolves to the older intact
    version afterwards."""
    monkeypatch.setattr(EFactoryServer, "verify_timeout_ns", 20_000.0)
    setup = small_store("efactory", env)
    server = setup.server
    c = setup.client()

    def work():
        yield from c.put(KEY, b"good" * 16)
        # allocate a newer version whose value never arrives
        yield from c.alloc_rpc(KEY, 64, 0xBAD)

    run1(env, work())
    env.run(until=env.now + 500_000)  # timeout fires; good version durable
    assert server.metrics()["verifier"]["invalidated"] == 1

    env.run(server.trigger_cleaning())
    assert server.metrics()["cleaner"]["moved"] == 1  # only the intact version

    def check():
        return (yield from c.get(KEY, size_hint=64))

    assert run1(env, check()) == b"good" * 16
