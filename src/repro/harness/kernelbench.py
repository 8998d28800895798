"""Kernel benchmark: the analytic verb fast path's speedup and equivalence.

One wall-clock cell, ``verb`` — the macro cell and headline gate:
CQ-posted one-sided WRITEs, one at a time, on the same kernel twice. The
baseline forces the event path (~8 events per op); the candidate takes
the analytic fast path (~3 events per op). Both simulate identical
nanoseconds — ``sim_identical`` is asserted — so the ratio is purely
simulator speed, bought by *retiring ops in fewer events*. (Raw
scheduler cost is on the ledger: ``python -m bench`` reports
``micro.kernel_drain_us`` / ``micro.kernel_ping_us``.)

The equivalence harness re-runs the fig1/fig2 workloads with the fast
path on and off and asserts the measured latency samples are *exactly*
equal (``ns == ns``, no tolerance) — the bit-identical-defaults
invariant DESIGN.md §11 documents.

Consumed by ``python -m repro bench-kernel`` (writes ``BENCH_pr6.json``)
and the CI ``bench-kernel`` job, which gates on the macro ratio and on
equivalence.
"""

from __future__ import annotations

import time
from collections.abc import Generator
from typing import Any, Callable

import numpy as np

from repro.harness.runner import RunSpec, run_experiment
from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue, post_write
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment, Event
from repro.workloads.ycsb import update_only, ycsb_c

__all__ = [
    "run_kernel_suite",
    "run_equivalence_check",
    "EQUIVALENCE_CASES",
]

#: (store, workload factory, value size) cells the equivalence harness
#: replays — the fig1 (durable-write) and fig2 (GET breakdown) setups.
EQUIVALENCE_CASES: tuple[tuple[str, str, int], ...] = (
    ("ca", "update_only", 64),
    ("saw", "update_only", 1024),
    ("imm", "update_only", 64),
    ("rpc", "update_only", 1024),
    ("erda", "ycsb_c", 64),
    ("forca", "ycsb_c", 1024),
)

_WORKLOADS = {"update_only": update_only, "ycsb_c": ycsb_c}


# -- macro cell -----------------------------------------------------------------

def _bench_verbs(
    make_env: Callable[[], Environment], n: int, fastpath: bool
) -> dict[str, float]:
    """CQ-posted one-sided WRITEs, one outstanding at a time."""
    env = make_env()
    fabric = Fabric(env)
    server = fabric.create_node("s", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("c")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20)
    fabric.fastpath = fastpath
    cq = CompletionQueue(env)
    payload = b"\x42" * 64

    def proc() -> Generator[Event, Any, None]:
        for i in range(n):
            post_write(ep, cq, mr.rkey, (i % 1024) * 64, payload)
            yield from cq.wait(1)

    t0 = time.perf_counter()
    env.run(env.process(proc(), name="verbs"))
    wall = time.perf_counter() - t0
    return {
        "sim_ns": env.now,
        "ops_per_sec": n / wall,
        "events_per_op": env.events_processed / n,
        "fastpath_ops": fabric.fastpath_ops,
    }


def run_kernel_suite(*, verb_ops: int = 4_000) -> dict[str, Any]:
    """The macro cell, event path vs fast path; JSON-ready."""
    verb = {
        "baseline": _bench_verbs(Environment, verb_ops, fastpath=False),
        "fast": _bench_verbs(Environment, verb_ops, fastpath=True),
    }
    return {
        "suite": "kernel",
        "verb": {
            **verb,
            "sim_identical": verb["baseline"]["sim_ns"] == verb["fast"]["sim_ns"],
            "ratio": verb["fast"]["ops_per_sec"] / verb["baseline"]["ops_per_sec"],
        },
    }


# -- fig1/fig2 equivalence -----------------------------------------------------

def _run_case(
    store: str, workload: str, size: int, ops: int, fastpath: bool
) -> tuple[Any, dict[str, Any]]:
    spec = RunSpec(
        store=store,
        workload=_WORKLOADS[workload](value_len=size, key_count=64),
        n_clients=2,
        ops_per_client=ops,
        warmup_ops=max(5, ops // 10),
        seed=42,
    )
    captured: dict[str, Any] = {}

    def hook(env: Environment, setup: Any) -> None:
        # Runs after preload/settle, before measurement: the preload is
        # identical (default fast path) in both runs; only the measured
        # window switches paths.
        captured["fabric"] = setup.fabric
        setup.fabric.fastpath = fastpath

    result = run_experiment(spec, post_setup=hook)
    return result, captured


def run_equivalence_check(ops: int = 40) -> dict[str, Any]:
    """fig1/fig2 cells, fast path vs event path: exact-ns equality."""
    rows = []
    for store, workload, size in EQUIVALENCE_CASES:
        fast, captured = _run_case(store, workload, size, ops, fastpath=True)
        slow, _ = _run_case(store, workload, size, ops, fastpath=False)
        kinds = sorted(set(fast.latency.kinds()) | set(slow.latency.kinds()))
        same = fast.window_ns == slow.window_ns and all(
            np.array_equal(fast.latency.array(k), slow.latency.array(k))
            for k in kinds
        )
        rows.append(
            {
                "store": store,
                "workload": workload,
                "value_len": size,
                "samples": int(fast.latency.count()),
                "fastpath_ops": captured["fabric"].fastpath_ops,
                "identical": bool(same),
            }
        )
    return {
        "suite": "equivalence",
        "ops": ops,
        "identical": all(r["identical"] for r in rows),
        "fastpath_engaged": any(r["fastpath_ops"] > 0 for r in rows),
        "results": rows,
    }
