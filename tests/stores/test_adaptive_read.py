"""Adaptive hybrid read extension (DESIGN.md §5): after a fallback, the
client temporarily routes that key straight to the RPC path."""

import pytest

from repro.core import EFactoryClient, EFactoryServer
from repro.sim.kernel import Environment
from tests.conftest import run1, small_store

KEY = b"key-0000adaptive"


def test_skip_window_after_fallback(env, monkeypatch):
    monkeypatch.setattr(EFactoryClient, "adaptive_ttl_ns", 1e6)
    # keep the object unverified
    monkeypatch.setattr(EFactoryServer, "bg_retry_delay_ns", 1e7)
    monkeypatch.setattr(EFactoryServer, "bg_idle_poll_ns", 1e7)
    setup = small_store("efactory", env, adaptive_read=True)
    c = setup.client()
    reads = {}

    def work():
        yield from c.put(KEY, b"a" * 4096)
        yield from c.get(KEY, size_hint=4096)  # pure attempt + fallback
        t0 = env.now
        yield from c.get(KEY, size_hint=4096)  # inside skip window: RPC only
        reads["second_lat"] = env.now - t0

    run1(env, work())
    assert c.fallback_reads == 2 and c.pure_reads == 0
    # the second read skipped the wasted 4 KiB optimistic fetch: it must
    # be meaningfully faster than a pure-attempt + fallback combo
    assert reads["second_lat"] < 14_000


def test_skip_window_expires(env, monkeypatch):
    monkeypatch.setattr(EFactoryClient, "adaptive_ttl_ns", 10_000.0)
    # object verified well after the race
    monkeypatch.setattr(EFactoryServer, "bg_retry_delay_ns", 50_000.0)
    setup = small_store("efactory", env, adaptive_read=True)
    c = setup.client()

    def work():
        yield from c.put(KEY, b"b" * 4096)
        yield from c.get(KEY, size_hint=4096)  # fallback; arms skip window
        yield env.timeout(500_000)  # window expired; object now durable
        yield from c.get(KEY, size_hint=4096)

    run1(env, work())
    assert c.fallback_reads == 1
    assert c.pure_reads == 1  # the post-expiry read went pure again


def test_pure_success_clears_skip_state(env):
    setup = small_store("efactory", env, adaptive_read=True)
    c = setup.client()

    def work():
        yield from c.put(KEY, b"c" * 64)
        yield env.timeout(500_000)
        yield from c.get(KEY, size_hint=64)
        yield from c.get(KEY, size_hint=64)

    run1(env, work())
    assert c.pure_reads == 2
    assert not c._skip_until


def test_disabled_by_default(env):
    setup = small_store("efactory", env)
    assert setup.server.config.adaptive_read is False
