"""Characterisation of every ``Endpoint`` verb: what it does, to the float.

Each cell of the matrix runs one verb on a fresh fabric (default jitter,
fixed seed) and records everything a refactor of ``rdma/qp.py`` could
disturb: the completion instant and result of every issuer, the kernel's
``events_scheduled``/``events_processed``, the fabric's fast-path and
fallback counts, the batcher's counters, per-endpoint ``stats``, the
arrival instants of two-sided deliveries, and a digest of target memory.

Matrix: verb x {1 issuer, 6 overlapping issuers} x fastpath on/off x
completion batcher off/256 ns x live kernel/seed-heap oracle. The six
issuers sit on two client nodes, three to an endpoint, so they contend
for a local TX engine *and* (READ responses) for the server's.

``verb_characterisation.json`` was generated at the commit *before* the
one-verb-executor refactor and regenerated once since, when queued turns
took the busy legs off the walk (event counts only). Regenerate it only
for an intended, explained change of simulated behaviour, and list what
moved first — every ``(cell, JSON path)`` that differs from the
recording::

    PYTHONPATH=src python -m tests.rdma.verb_characterisation --diff
    PYTHONPATH=src python -m tests.rdma.verb_characterisation --write
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue, post_write
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment
from tests.characterisation import main
from tests.sim.heapkernel import HeapEnvironment

FIXTURE = Path(__file__).with_name("verb_characterisation.json")

VERBS = (
    "write", "read", "cas", "faa", "send", "write_with_imm",
    "write_many_1", "write_many_4", "write_many_16", "post_write", "mixed",
)
# The labels are cell ids in the recorded fixture: "wheel" is the live
# kernel (once a timer wheel), "heap" the tests' seed-heap oracle.
KERNELS = {"wheel": Environment, "heap": HeapEnvironment}
SLOT = 64 * 1024  # per-issuer window of target memory
ROUNDS = 3  # back-to-back ops per issuer


def _ops(verb: str, ep, cq, mr, k: int, r: int):
    """The generator for issuer ``k``'s ``r``-th operation of ``verb``."""
    base = k * SLOT
    size = 96 + 448 * k + 64 * r
    fill = bytes([65 + k]) * size
    if verb == "write":
        return ep.write(mr.rkey, base, fill)
    if verb == "read":
        return ep.read(mr.rkey, base, size)
    if verb == "cas":
        # All issuers race on one word: some swaps win, some lose.
        return ep.cas(mr.rkey, 0, bytes(8), bytes([k + 1]) * 8)
    if verb == "faa":
        return ep.faa(mr.rkey, 8, k + 1 + r)
    if verb == "send":
        return _sent(ep, {"k": k, "r": r}, size)
    if verb == "write_with_imm":
        return ep.write_with_imm(mr.rkey, base, fill, imm=k * 10 + r)
    if verb.startswith("write_many_"):
        n = int(verb.rsplit("_", 1)[1])
        return ep.write_many(
            [(mr.rkey, base + i * 1024, (fill * 8)[: 64 + 40 * i]) for i in range(n)]
        )
    if verb == "post_write":
        return _posted(ep, cq, mr, base, fill)
    raise ValueError(verb)


def _sent(ep, payload, size):
    """SEND, minus its return value: the req_id is a process-global counter."""
    yield from ep.send(payload, wire_bytes=size)


def _posted(ep, cq, mr, base, fill):
    """Post three WRITEs back to back, then harvest their completions."""
    for i in range(3):
        post_write(ep, cq, mr.rkey, base + i * 4096, fill, wr_id=i)
    wcs = yield from cq.wait(3)
    return [(wc.wr_id, wc.ok, wc.completed_at.hex()) for wc in wcs]


def _plain(result):
    """A JSON-able rendering of a verb's return value."""
    if isinstance(result, (bytes, bytearray)):
        return hashlib.sha256(result).hexdigest()[:16]
    if hasattr(result, "completed_at"):  # WorkCompletion (wr_id is a global counter)
        return [result.opcode.value, result.ok, result.completed_at.hex()]
    return result  # FAA's prior value, a posted batch's completions, None


def run_cell(verb: str, issuers: int, fastpath: bool, bucket_ns: float, kernel: str):
    env = KERNELS[kernel]()
    fabric = Fabric(env)
    fabric.fastpath = fastpath
    batcher = fabric.enable_completion_batching(bucket_ns) if bucket_ns else None
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    mr = server.register_memory(0, 1 << 20)
    clients = [fabric.create_node(f"client{i}") for i in range(2)]
    eps = [fabric.connect(c, server) for c in clients]
    done = []

    def issuer(k):
        ep = eps[k % 2]
        cq = CompletionQueue(env)
        yield env.timeout(37.0 * k)  # overlapping, not simultaneous
        sequence = VERBS[:-1] if verb == "mixed" else (verb,) * ROUNDS
        for r, v in enumerate(sequence):
            result = yield from _ops(v, ep, cq, mr, k, r)
            done.append([k, r, env.now.hex(), _plain(result)])

    for k in range(issuers):
        env.process(issuer(k))
    env.run()
    return {
        "done": done,
        "now": env.now.hex(),
        "events_scheduled": env.events_scheduled,
        "events_processed": env.events_processed,
        "fastpath_ops": fabric.fastpath_ops,
        "fallback_ops": fabric.fallback_ops,
        "inflight_left": fabric.inflight_count(),
        "batcher": [batcher.batches, batcher.batched_waits] if batcher else None,
        "stats": [dict(sorted(ep.stats.items())) for ep in eps],
        "ep_fastpath_ops": [ep.fastpath_ops for ep in eps],
        "deliveries": [
            [m.opcode.value, m.wire_bytes, m.imm, m.arrived_at.hex()]
            for m in server.srq.items
        ],
        "memory": hashlib.sha256(server.device.buffer.read(0, 1 << 20)).hexdigest()[:16],
    }


def cells():
    return itertools.product(VERBS, (1, 6), (True, False), (0.0, 256.0), KERNELS)


def cell_id(cell) -> str:
    verb, issuers, fastpath, bucket_ns, kernel = cell
    return (
        f"{verb}-x{issuers}-{'fast' if fastpath else 'event'}"
        f"-{'grid' if bucket_ns else 'nogrid'}-{kernel}"
    )


def characterise() -> dict:
    return {cell_id(cell): run_cell(*cell) for cell in cells()}


if __name__ == "__main__":
    main(__doc__, FIXTURE, characterise)
