"""Deterministic cost guard: sweeping the index costs per live key, not
per slot. A dozen keys in the default 8192x4 table is the shape every
harness runs; a regression to decoding all 32 768 entries per sweep
fails here, not only on the benchmark's wall clock."""

import numpy as np
import pytest

from repro.core.recovery import recover_bucketized
from repro.kv.hashtable import NvmHashTable
from repro.stores import StoreConfig
from tests.conftest import run1, small_store

N_KEYS = 12
PER_KEY = 4  # entry decodes allowed per live key per sweep


@pytest.fixture
def decodes(monkeypatch):
    calls = [0]
    real = NvmHashTable.read_entry

    def counting(self, entry_off):
        calls[0] += 1
        return real(self, entry_off)

    monkeypatch.setattr(NvmHashTable, "read_entry", counting)
    return calls


def _loaded_store(env, **overrides):
    buckets = StoreConfig().table_buckets
    assert buckets * StoreConfig().slots_per_bucket == 32_768
    setup = small_store("efactory", env, table_buckets=buckets, **overrides)
    c = setup.client()

    def work():
        for i in range(N_KEYS):
            yield from c.put(f"cost-{i:011d}".encode(), bytes([i]) * 64)

    run1(env, work())
    env.run(until=env.now + 800_000)  # verifier settles every head
    return setup


def test_recovery_decodes_per_live_key(env, decodes):
    setup = _loaded_store(env)
    setup.server.stop()
    setup.fabric.crash_node(setup.server.node, np.random.default_rng(1), 0.5)
    setup.fabric.restart_node(setup.server.node)
    decodes[0] = 0
    report = env.run(env.process(recover_bucketized(setup.server)))
    assert report.keys_recovered + report.keys_rolled_back == N_KEYS
    assert 0 < decodes[0] <= PER_KEY * N_KEYS


def test_scrubber_lap_decodes_per_live_key(env, decodes):
    setup = _loaded_store(env, scrub_interval_ns=2_000.0)
    (part,) = setup.server.partitions
    scrubber = part.scrubber

    def finish_lap():
        lap = scrubber.laps
        while scrubber.laps == lap:
            env.run(until=env.now + 10_000)

    finish_lap()  # the settle left the cursor mid-table
    scrubbed = scrubber.stats()["scrubbed"]
    decodes[0] = 0
    finish_lap()
    assert scrubber.stats()["scrubbed"] - scrubbed == N_KEYS
    assert 0 < decodes[0] <= PER_KEY * N_KEYS
