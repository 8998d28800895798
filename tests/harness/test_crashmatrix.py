"""The crash-point matrix: deterministic enumeration, coverage of every
boundary class, and clean verdicts on the reference store."""

from repro.core.config import integrity_overrides
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix


def _spec(**kw):
    defaults = dict(
        store="efactory",
        seed=7,
        ops_per_client=20,
        max_per_site=2,
        recovery_points=1,
        replay=False,
        sites=("nvm.persist", "bg.cleaner.compress"),
    )
    defaults.update(kw)
    return CrashMatrixSpec(**defaults)


def test_matrix_passes_and_covers_every_boundary_class():
    rep = run_crash_matrix(_spec(replay=True))
    assert rep.ok, (rep.violations, rep.non_idempotent, rep.replay_mismatches)
    assert rep.total_points >= 4
    crashed = {r.site for r in rep.results if r.crashed}
    assert "nvm.persist" in crashed
    assert "bg.cleaner.compress" in crashed
    assert "recovery.step" in crashed  # the double-crash points ran
    # the counting pass saw every persist/atomic-store boundary even
    # though we only crashed at two of them
    for site in ("nvm.store64", "nvm.flush", "nvm.persist", "rpc.dispatch"):
        assert rep.site_op_counts.get(site, 0) > 0, site


def test_every_crashed_point_recovers_idempotently():
    rep = run_crash_matrix(_spec())
    for r in rep.results:
        if r.crashed:
            assert r.idempotent, f"{r.phase}:{r.site}#{r.op_index}"
            assert r.recovery is not None
            assert r.digest  # the post-recovery image was fingerprinted


def test_matrix_with_parity_recovers_idempotently():
    """The integrity tier is DRAM-authoritative with a deterministic
    NVM region rebuild on recovery, so arming it must not cost the
    matrix its idempotence or replay identity."""
    rep = run_crash_matrix(
        _spec(replay=True, config_overrides=integrity_overrides())
    )
    assert rep.ok, (rep.violations, rep.non_idempotent, rep.replay_mismatches)
    assert rep.non_idempotent == []
    assert rep.replay_mismatches == []
    assert any(r.crashed for r in rep.results)


def test_matrix_is_deterministic():
    a = run_crash_matrix(_spec())
    b = run_crash_matrix(_spec())
    assert a.site_op_counts == b.site_op_counts
    assert [(r.site, r.op_index, r.crashed, r.digest) for r in a.results] == [
        (r.site, r.op_index, r.crashed, r.digest) for r in b.results
    ]


def test_report_round_trips_to_dict():
    rep = run_crash_matrix(_spec(recovery_points=0))
    d = rep.as_dict()
    assert d["store"] == "efactory"
    assert d["total_points"] == rep.total_points
    assert d["violations"] == []
    assert len(d["points"]) == len(rep.results)


def test_cleaning_keeps_the_acked_version_behind_an_in_flight_head():
    """Log merging used to skip a key whose working slot already pointed
    into the new pool even when that head was not durable yet; ``_finish``
    then nulled the head's PrePTR, and a crash before the head settled
    left recovery a torn head with no predecessor — the key vanished,
    behind a version a GET had returned. Seeds 29 and 2147483647 reach
    that interleaving (at ``nvm.store64`` #84 / #94 and at
    ``bg.cleaner.finish`` #5 / #10)."""
    for seed in (29, 2147483647):
        rep = run_crash_matrix(
            CrashMatrixSpec(
                seed=seed, max_per_site=3, recovery_points=0, replay=False,
                sites=("nvm.store64", "bg.cleaner.finish"),
            )
        )
        crashed = {(r.site, r.op_index) for r in rep.results if r.crashed}
        assert ("bg.cleaner.finish", 10) in crashed
        assert rep.ok, (seed, rep.violations, rep.non_idempotent)
