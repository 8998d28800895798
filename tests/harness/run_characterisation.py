"""Characterisation of the six experiment drivers: what a run does, to the float.

One small cell per driver — closed-loop run, crash experiment, chaos run
(every shipped plan, cluster-shaped where the plan needs one, plus a
``--parity`` cell), crash-point matrix, open-loop load run, and the
``bench/*`` cells of :mod:`tests.harness.cells` (single-client PUT,
``put_many``, cached and uncached GET, the three cluster cells), which
stand on the same scaffold — records the driver's report and,
for every store the driver deployed along the way, the final ``env.now``
(``float.hex``), ``events_processed`` and a SHA-256 of each server's NVM
image. Deployments are observed by wrapping ``StoreSetup.start`` /
``ClusterSetup.start``, so the script does not depend on how a driver
reaches ``build_store``. A driver that releases a finished instance's
image (the crash matrix does, point by point) has it hashed at the moment
of release, by wrapping ``PersistentBuffer.release`` the same way.

``run_characterisation.json`` was generated at the commit *before* the
drivers were moved onto the shared scaffold and oracle
(``harness/scaffold.py``, ``harness/oracle.py``) and regenerated four
times since, each time with event counts only moving: when queued turns
took the busy verb legs off the walk; when the crash experiment, the
crash matrix and chaos left the walk for the closed-form legs (24 cells,
``events_processed`` 89,111 → 62,163 in total); when the RPC server
stopped paying bookkeeping events (a handler is spawned inside the
loop's step, takes a free core without a grant event and ends without a
completion event; the verifier requeues without a zero-delay yield:
83 paths, all event counters, the deployments' ``events_processed``
127,350 → 110,708 in total); and when a partition's free dispatch-budget
unit stopped costing a grant event (11 paths, all event counters, in the
partitioned and clustered cells: ``bench/cluster``, ``bench/get_cached-p4``
and the ``kill-backup``, ``kill-during-migration`` and ``node-kill`` chaos
cells; 110,708 → 110,448 in total). Regenerate it only for an intended,
explained change of simulated behaviour, and list what moved first — every ``(cell, JSON
path)`` that differs from the recording::

    PYTHONPATH=src python -m tests.harness.run_characterisation --diff
    PYTHONPATH=src python -m tests.harness.run_characterisation --write

A crash report's violation *strings* are not recorded (the oracle words
them per key, the old crash harness per check); its counts, per-key
audits and ``ok`` are.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cluster.node import ClusterSetup
from repro.faults.plans import NODE_KILL_PLANS, shipped_plan_names
from repro.harness import crashmatrix
from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.crash import CrashSpec, run_crash_experiment
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix
from repro.harness.runner import RunSpec, run_experiment
from repro.loadgen import LoadSpec, TenantSpec, run_load
from repro.mem.buffer import PersistentBuffer
from repro.stores import StoreSetup, store_names
from repro.workloads.ycsb import WORKLOADS, WorkloadSpec
from tests.characterisation import main
from tests.harness.cells import (
    BenchSpec,
    bench_cell,
    load_cell_spec,
    run_cluster_bench_suite,
)

FIXTURE = Path(__file__).with_name("run_characterisation.json")


@contextmanager
def _deployments():
    """Collect every setup started while the block runs, and the image
    hash of every buffer released in it."""
    seen: list = []
    released: dict[PersistentBuffer, str] = {}
    originals = [(cls, cls.start) for cls in (StoreSetup, ClusterSetup)]
    release = PersistentBuffer.release

    def wrap(original):
        def start(self):
            seen.append(self)
            return original(self)

        return start

    def hashing_release(buf):
        released[buf] = _hash(buf)
        release(buf)

    for cls, original in originals:
        cls.start = wrap(original)
    PersistentBuffer.release = hashing_release
    try:
        yield seen, released
    finally:
        for cls, original in originals:
            cls.start = original
        PersistentBuffer.release = release


def _hash(buf: PersistentBuffer) -> str:
    h = hashlib.sha256()
    h.update(buf.durable)
    h.update(buf.visible)
    return h.hexdigest()


def _final_state(setup, released: dict) -> list:
    buffers = [s.device.buffer for s in setup.servers]
    return [
        setup.env.now.hex(),
        setup.env.events_processed,
        [released.get(buf) or _hash(buf) for buf in buffers],
    ]


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# -- one function per driver: report -> JSON-able dict ---------------------------


def _run(store: str) -> dict:
    workload = WorkloadSpec(
        "mixed", read_fraction=0.5, rmw_fraction=0.1, key_count=64, value_len=256
    )
    r = run_experiment(
        RunSpec(store=store, workload=workload, n_clients=2, ops_per_client=40,
                warmup_ops=5, seed=5)
    )
    return {
        "measured_ops": r.measured_ops,
        "window_ns": r.window_ns.hex(),
        "errors": r.errors,
        "reads": [r.pure_reads, r.fallback_reads, r.rpc_only_reads],
        "latencies": hashlib.sha256(r.latency.array().tobytes()).hexdigest()[:16],
    }


def _crash(store: str) -> dict:
    r = run_crash_experiment(
        CrashSpec(store=store, key_count=24, ops_before_crash=80, seed=7)
    )
    return {
        "completed_ops": r.completed_ops,
        "pre_crash_torn_reads": r.pre_crash_torn_reads,
        "torn_exposed": r.torn_exposed,
        "durability_losses": r.durability_losses,
        "monotonicity_losses": r.monotonicity_losses,
        "ok": r.ok,
        "recovery": r.recovery.as_dict() if r.recovery else None,
        "audits": [
            [a.key_id, a.recovered_version, a.torn, a.max_acked, a.max_read]
            for a in r.audits
        ],
    }


def _chaos_spec(store: str, plan: str, parity: bool = False) -> ChaosSpec:
    """The shape ``python -m repro chaos`` gives the plan."""
    kwargs: dict = {}
    clustered = plan in NODE_KILL_PLANS
    if clustered:
        kwargs = {"nodes": 3, "replication": 2,
                  "cluster_overrides": {"verify_promotion": True}}
    if plan == "kill-during-migration":
        kwargs["migration"] = (0, 2, 150_000.0)
        kwargs["cluster_overrides"]["drain_grace_ns"] = 200_000.0
    return ChaosSpec(store=store, plan=plan, seed=7, n_clients=2,
                     ops_per_client=30, key_count=12, parity=parity, **kwargs)


def _chaos(store: str, plan: str, parity: bool = False) -> dict:
    r = run_chaos_experiment(_chaos_spec(store, plan, parity))
    return {**r.as_dict(), "fault_schedule": _sha(r.fault_schedule)}


def _matrix() -> dict:
    # Every point in this process, where the deployments are observed.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crashmatrix, "_processes", lambda jobs: 1)
        return run_crash_matrix(
            CrashMatrixSpec(max_per_site=2, recovery_points=2, replay=False)
        ).as_dict()


def _load_single() -> dict:
    return run_load(load_cell_spec("YCSB-A", 16, 20, seed=3)).as_dict()


def _load_two_tenants() -> dict:
    # Two object sizes: the pool is sized from the sum over tenants. 1 KiB
    # keeps a 16-item put_many chunk inside the verify window (4 KiB would not).
    small = TenantSpec("small", WORKLOADS["YCSB-B"](key_count=96, value_len=128),
                       clients=4, ops_per_client=12, rate_ops_s=8_000.0)
    large = TenantSpec("large", WORKLOADS["YCSB-A"](key_count=40, value_len=1024),
                       clients=3, ops_per_client=10, rate_ops_s=6_000.0)
    return run_load(LoadSpec(tenants=(small, large), seed=9)).as_dict()


def _bench(kind: str, partitions: int) -> dict:
    return bench_cell(BenchSpec(bench=kind, partitions=partitions, ops=48))


def _bench_cluster() -> dict:
    return run_cluster_bench_suite(nodes=2, ops=24)


def cells() -> dict:
    """cell id -> zero-argument callable producing the driver's record."""
    out: dict = {}
    for store in store_names():
        out[f"run/{store}"] = lambda s=store: _run(s)
    for store in store_names():
        out[f"crash/{store}"] = lambda s=store: _crash(s)
    for plan in shipped_plan_names():
        out[f"chaos/efactory/{plan}"] = lambda p=plan: _chaos("efactory", p)
    out["chaos/efactory/bitrot+parity"] = lambda: _chaos("efactory", "bitrot", True)
    out["chaos/rpc/rpc-stall"] = lambda: _chaos("rpc", "rpc-stall")
    out["chaos/erda/torn-media"] = lambda: _chaos("erda", "torn-media")
    out["crashmatrix/efactory"] = _matrix
    out["load/YCSB-A"] = _load_single
    out["load/two-tenants"] = _load_two_tenants
    for kind in ("put", "put_many", "get_uncached", "get_cached"):
        out[f"bench/{kind}"] = lambda k=kind: _bench(k, 1)
    out["bench/get_cached-p4"] = lambda: _bench("get_cached", 4)
    out["bench/cluster"] = _bench_cluster
    return out


def run_cell(cell) -> dict:
    with _deployments() as (seen, released):
        report = cell()
    return {
        "report": report,
        "deployments": [_final_state(s, released) for s in seen],
    }


def characterise() -> dict:
    return {cid: run_cell(cell) for cid, cell in cells().items()}


if __name__ == "__main__":
    main(__doc__, FIXTURE, characterise)
