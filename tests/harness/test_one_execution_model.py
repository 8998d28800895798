"""The fault harnesses run the closed-form TX legs.

Idle claims and queued turns take every TX leg in the crash experiment,
the crash-point matrix and chaos, as in every other experiment. The
event-by-event walk (``fabric.fastpath = False``) is only the reference
they are held to.
"""

from contextlib import contextmanager

import pytest

from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.crash import CrashSpec, run_crash_experiment
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix
from repro.rdma.fabric import Fabric
from repro.rdma.qp import Endpoint


@contextmanager
def _fabrics(*, walk: bool = False):
    """Collect every fabric built in the block; with ``walk``, each one
    starts with the closed forms off, so every TX leg walks."""
    built = []
    init = Fabric.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.fastpath = not walk
        built.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fabric, "__init__", tracked)
        yield built


def _no_walk(*_args, **_kwargs):
    raise AssertionError("a fault harness walked a TX leg")


HARNESSES = {
    "crashmatrix": lambda: run_crash_matrix(
        CrashMatrixSpec(ops_per_client=12, max_per_site=1, recovery_points=1)
    ),
    "crash": lambda: run_crash_experiment(
        CrashSpec(store="efactory", n_clients=2, key_count=12, ops_before_crash=40)
    ),
    "chaos": lambda: run_chaos_experiment(
        ChaosSpec(
            store="rpc", plan="rpc-stall", n_clients=2, ops_per_client=20,
            key_count=12, seed=7,
        )
    ),
}


@pytest.mark.parametrize("harness", sorted(HARNESSES))
def test_fault_harness_never_walks(harness, monkeypatch):
    """With the walk made to raise, each harness still runs to its end,
    and its verbs were taken in closed form."""
    monkeypatch.setattr(Endpoint, "_tx_walk", _no_walk)
    with _fabrics() as built:
        HARNESSES[harness]()
    assert sum(f.fastpath_ops for f in built) > 0


def test_crash_matrix_equals_its_walked_reference():
    """The SAW matrix (seed 1) whose double-crash primary crashes while a
    WRITE is still in its sender's TX engine. The crash draws no coin
    for it; the client's interrupt withdraws it; the primary's capsule
    leaves it out. The report — capsule route and replay included — is
    the one every leg walking produces."""
    spec = CrashMatrixSpec(
        store="saw", seed=1, ops_per_client=20, max_per_site=1, recovery_points=1
    )
    with _fabrics() as built:
        closed = run_crash_matrix(spec)
    with _fabrics(walk=True) as walked_fabrics:
        walked = run_crash_matrix(spec)
    assert closed.ok and not closed.replay_mismatches
    assert closed.as_dict() == walked.as_dict()
    assert sum(f.fastpath_ops for f in built) > 0
    assert sum(f.fastpath_ops for f in walked_fabrics) == 0
