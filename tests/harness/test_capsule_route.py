"""A capsule crash is the crash it stands for.

With replay on, the crash-point matrix judges every original on a crash
capsule taken by its armed pass (a fresh deployment at the crash
instant, loaded with the capsule and power-failed), and only the replay
runs the workload from scratch. This module keeps the route every
original took before capsules — re-run the workload from scratch with
one crash rule and really crash — as the oracle, and requires every
field of every point's verdict to come out equal on both routes.
"""

import pytest

from repro.core.config import DEFAULT_PARITY_STRIPE_KB
from repro.harness import crashmatrix
from repro.harness.crashmatrix import (
    CrashMatrixSpec,
    CrashPointResult,
    run_crash_matrix,
)

FIELDS = (
    "crashed", "crash_summary", "recovery", "violations", "weaknesses",
    "idempotent", "digest",
)


def _from_scratch(spec, point, result, step):
    """The oracle: one instance runs the workload up to ``point`` (and,
    for a double-crash point, recovery up to ``step``), really crashing
    there, and is judged."""
    rules = crashmatrix._crash_rule(*point)
    with crashmatrix._Instance(spec, rules) as inst:
        result.crashed = inst.run_workload() and (
            step is None or inst.crash_in_recovery(step)
        )
        if result.crashed:
            inst.verdict(result, "summary" if step is None else "summary2")
    return result


def _oracle(spec, report):
    primary = crashmatrix._pick_primary(spec, report.site_op_counts)
    out = []
    for r in report.results:
        recovery = r.phase == "recovery"
        point = primary if recovery else (r.site, r.op_index)
        out.append(_from_scratch(
            spec, point, CrashPointResult(r.site, r.op_index, r.phase, False),
            r.op_index if recovery else None,
        ))
    return out


def _fields(results):
    return [
        (r.phase, r.site, r.op_index, *(getattr(r, f) for f in FIELDS))
        for r in results
    ]


SPECS = {
    "efactory": CrashMatrixSpec(
        seed=7, ops_per_client=20, max_per_site=2, recovery_points=2
    ),
    "efactory-integrity": CrashMatrixSpec(
        seed=7, ops_per_client=20, max_per_site=1, recovery_points=0,
        config_overrides={"parity_stripe_kb": DEFAULT_PARITY_STRIPE_KB},
    ),
    # Erda's rpc.dispatch #24 exposes torn values after recovery: the
    # violations must be the same ones on both routes.
    "erda": CrashMatrixSpec(
        store="erda", sites=("rpc.dispatch", "nvm.store64"), max_per_site=3,
        recovery_points=1,
    ),
    "ca": CrashMatrixSpec(store="ca", ops_per_client=20, max_per_site=6),
}


@pytest.mark.parametrize("name", SPECS)
def test_every_point_judged_on_its_capsule_equals_its_crash_from_scratch(name):
    spec = SPECS[name]
    report = run_crash_matrix(spec)
    assert report.replay_mismatches == []
    crashed = [r for r in report.results if r.crashed]
    assert crashed
    if spec.recovery_points and spec.store != "ca":
        assert any(r.phase == "recovery" for r in crashed)
    assert _fields(report.results) == _fields(_oracle(spec, report))
    if name == "erda":
        assert report.violations == [
            "workload:rpc.dispatch#24: key 1: torn value exposed after recovery",
            "workload:rpc.dispatch#24: key 10: torn value exposed after recovery",
        ]
