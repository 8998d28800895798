"""One request lifecycle for every handler (``Partition.serve``): write
fence, then admission, then the partition's dispatch budget — the same
for the paper's alloc / ``get_loc`` RPCs and for every baseline's."""

from __future__ import annotations

import pytest

from repro.kv.hashtable import key_fingerprint, partition_of_fp
from repro.rdma.rpc import (
    ERR_BUSY,
    ERR_FENCED,
    ERR_NOT_FOUND,
    ERR_POOL_EXHAUSTED,
    RpcFault,
)
from repro.sim.kernel import Environment
from repro.stores import STORES, build_store

VLEN = 64
POOL = 1 << 20

#: The requests each store's server serves, and whether they write.
SERVED = {
    "efactory": {"alloc": True, "alloc_batch": True, "get_loc": False, "delete": True},
    "efactory_nohr": {"alloc": True, "alloc_batch": True, "get_loc": False, "delete": True},
    "ca": {"alloc": True, "alloc_batch": True},
    "rpc": {"put": True, "get": False},
    "saw": {"alloc": True, "alloc_batch": True},
    "imm": {"alloc": True, "alloc_batch": True},
    "erda": {"alloc": True},
    "forca": {"alloc": True, "alloc_batch": True, "get_loc": False},
}
CASES = [(store, op) for store, ops in SERVED.items() for op in ops]
WRITES = [(s, op) for s, op in CASES if SERVED[s][op]]
READS = [(s, op) for s, op in CASES if not SERVED[s][op]]
ALLOCS = [(s, op) for s, op in WRITES if op != "delete"]


def _deploy(store: str, watermark: int = 0):
    parts = 2 if STORES[store].server_cls.supports_partitions else 1
    overrides = {"pool_size": POOL, "table_buckets": 1024, "num_partitions": parts}
    if watermark:
        overrides["admission_watermark"] = watermark
    if store.startswith("efactory"):
        overrides["auto_clean"] = False
    return build_store(
        store, Environment(), config_overrides=overrides, n_clients=1
    ).start()


def _request(op: str, key: bytes, vlen: int = VLEN) -> dict:
    if op == "alloc":
        return {"op": op, "key": key, "vlen": vlen, "crc": 0, "alloc_id": 1 << 40}
    if op == "alloc_batch":
        item = {"key": key, "vlen": vlen, "crc": 0, "alloc_id": 1 << 41}
        return {"op": op, "reqs": [item]}
    if op == "put":
        return {"op": op, "key": key, "value": b"v" * vlen}
    return {"op": op, "key": key}


def _codes(setup, payload: dict, deadline_ns: float = 2_000_000.0) -> list:
    """Send one raw request; the error code of each answered item
    ("ok" when served), or ["hung"] when nothing answered in time."""
    env = setup.env
    out: list = []

    def proc():
        try:
            resp = yield from setup.client(0).rpc.call(payload, 64)
        except RpcFault as exc:
            out.append(exc.code)
            return
        items = resp["results"] if payload["op"] == "alloc_batch" else [resp]
        out.extend(item.get("code", "ok") for item in items)

    env.process(proc())
    env.run(until=env.now + deadline_ns)
    return out or ["hung"]


def _preload(setup, key: bytes) -> None:
    env = setup.env
    env.run(env.process(setup.client(0).put(key, b"p" * VLEN)))


def test_every_store_is_covered():
    assert set(SERVED) == set(STORES)


@pytest.mark.parametrize("store, op", CASES)
def test_shed_at_watermark_before_any_budget_wait(store, op):
    """At ``inflight == W`` a request is shed with ERR_BUSY at once,
    even with every unit of the partition's budget held (a request that
    waited for the budget would never be answered)."""
    setup = _deploy(store, watermark=2)
    key = b"lifecycle-key"
    if op in ("get_loc", "get", "delete"):
        _preload(setup, key)
    part = setup.server.partition_for_key(key)
    held = [part.cpu.request() for _ in range(part.cpu.capacity)] if part.cpu else []
    part.inflight = 2
    assert _codes(setup, _request(op, key)) == [ERR_BUSY]
    assert part.inflight == 2
    assert part.shed_requests == 1
    for req in held:
        part.cpu.release(req)


@pytest.mark.parametrize("store", [s for s in SERVED if "alloc_batch" in SERVED[s]])
def test_alloc_batch_group_is_shed_as_one_unit(store):
    setup = _deploy(store, watermark=1)
    keys = [b"%02d-batch-key" % i for i in range(16)]
    owner = [partition_of_fp(key_fingerprint(k), 2) for k in keys]
    assert set(owner) == {0, 1}
    setup.server.partitions[0].inflight = 1
    payload = {
        "op": "alloc_batch",
        "reqs": [
            {"key": k, "vlen": VLEN, "crc": 0, "alloc_id": 100 + i}
            for i, k in enumerate(keys)
        ],
    }
    codes = _codes(setup, payload)
    assert codes == [ERR_BUSY if p == 0 else "ok" for p in owner]
    assert setup.server.partitions[0].shed_requests == 1
    assert setup.server.partitions[1].admitted_requests == 1
    assert setup.server.partitions[1].inflight == 0


@pytest.mark.parametrize(
    "store, op", READS + [(s, op) for s, op in WRITES if op == "delete"]
)
def test_inflight_returns_to_zero_after_not_found(store, op):
    setup = _deploy(store, watermark=4)
    assert _codes(setup, _request(op, b"never-written")) == [ERR_NOT_FOUND]
    part = setup.server.partition_for_key(b"never-written")
    assert part.admitted_requests == 1
    assert part.inflight == 0


@pytest.mark.parametrize("store, op", ALLOCS)
def test_inflight_returns_to_zero_after_pool_exhausted(store, op):
    setup = _deploy(store, watermark=4)
    key = b"too-big"
    assert _codes(setup, _request(op, key, vlen=2 * POOL)) == [ERR_POOL_EXHAUSTED]
    part = setup.server.partition_for_key(key)
    assert part.admitted_requests == 1
    assert part.inflight == 0


@pytest.mark.parametrize("store, op", WRITES)
def test_fenced_partition_refuses_writes(store, op):
    setup = _deploy(store, watermark=4)
    key = b"fenced-key"
    _preload(setup, key)
    part = setup.server.partition_for_key(key)
    before = part.admitted_requests
    part.fenced = True
    assert _codes(setup, _request(op, key)) == [ERR_FENCED]
    assert part.admitted_requests == before
    assert part.inflight == 0


@pytest.mark.parametrize("store, op", READS)
def test_fenced_partition_serves_reads(store, op):
    setup = _deploy(store)
    key = b"fenced-key"
    _preload(setup, key)
    setup.server.partition_for_key(key).fenced = True
    assert _codes(setup, _request(op, key)) == ["ok"]


def test_completion_step_is_not_admitted_again():
    """SAW's ``persist`` completes an operation admitted at its alloc:
    it takes the budget only, so a full partition still completes it."""
    setup = _deploy("saw", watermark=1)
    key = b"saw-key"
    part = setup.server.partition_for_key(key)
    assert _codes(setup, _request("alloc", key)) == ["ok"]
    part.inflight = 1
    assert _codes(setup, {"op": "persist", "alloc_id": 1 << 40}) == ["ok"]
    assert part.admitted_requests == 1
    assert part.shed_requests == 0
