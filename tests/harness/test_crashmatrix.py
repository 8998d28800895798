"""The crash-point matrix: deterministic enumeration, coverage of every
boundary class, and clean verdicts on the reference store."""

import hashlib
from collections import Counter

import pytest

from repro.core.config import integrity_overrides
from repro.harness import crashmatrix
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


# -- the byte-compare judgements make every check the SHA-256 pair made ------------


def _point_ids(rep):
    return [f"{r.phase}:{r.site}#{r.op_index}" for r in rep.results if r.crashed]


def _second_recovery_flips(monkeypatch, image):
    """Plant a fault: the second recovery to *finish* on an instance also
    flips the last byte of ``image`` (only)."""
    real = crashmatrix.recover
    finished: Counter = Counter()  # per buffer (a setup is unhashable)

    def recover(setup):
        report = real(setup)
        buf = setup.server.device.buffer
        finished[buf] += 1
        if finished[buf] == 2:
            getattr(buf, image)[-1] ^= 1
        return report

    monkeypatch.setattr(crashmatrix, "recover", recover)


@pytest.mark.parametrize("image", ["durable", "visible"])
def test_a_second_recovery_that_moves_one_byte_is_reported(monkeypatch, image):
    clean = run_crash_matrix(_spec())
    _second_recovery_flips(monkeypatch, image)
    rep = run_crash_matrix(_spec())
    assert rep.non_idempotent == _point_ids(rep) != []
    assert not rep.ok and rep.violations == []
    # the published fingerprint is of the image *before* the second pass
    assert [r.digest for r in rep.results] == [r.digest for r in clean.results]


@pytest.mark.parametrize("image", ["durable", "visible"])
def test_a_replay_that_lands_on_other_bytes_is_reported(monkeypatch, image):
    real = crashmatrix._Instance.recovers_to

    def recovers_to(self, snap):
        getattr(self.server.device.buffer, image)[-1] ^= 1
        return real(self, snap)

    monkeypatch.setattr(crashmatrix._Instance, "recovers_to", recovers_to)
    rep = run_crash_matrix(_spec(replay=True))
    assert rep.replay_mismatches == _point_ids(rep) != []
    assert rep.non_idempotent == [] and rep.violations == []


def test_a_replay_that_never_reaches_its_crash_is_reported(monkeypatch):
    built: Counter = Counter()

    class _DeafReplay(crashmatrix._Instance):
        """The second instance built for a point — its replay — is armed
        with a crash no run can reach."""

        def __init__(self, spec, rules):
            if rules:
                point = (rules[0].site, rules[0].after_op)
                built[point] += 1
                if built[point] == 2:
                    rules = crashmatrix._crash_rule(rules[0].site, 10**9)
            super().__init__(spec, rules)

    monkeypatch.setattr(crashmatrix, "_Instance", _DeafReplay)
    rep = run_crash_matrix(_spec(replay=True, recovery_points=0))
    assert rep.replay_mismatches == _point_ids(rep) != []
    assert rep.non_idempotent == [] and rep.violations == []


# -- cost guard (deterministic, in the style of tests/stores/test_scan_cost.py) ----


class _CountingSha256:
    """Stands in for ``hashlib`` inside the matrix: a real SHA-256 that
    adds the bytes it is fed to ``fed``."""

    def __init__(self):
        self.fed = 0

    def sha256(self):
        counter, real = self, hashlib.sha256()

        class _Hash:
            def update(self, data):
                counter.fed += memoryview(data).nbytes
                real.update(data)

            hexdigest = staticmethod(real.hexdigest)

        return _Hash()


def test_one_image_is_hashed_per_crashed_point_and_every_image_is_freed(monkeypatch):
    """A crashed point costs one SHA-256 over one image (2 x device size)
    — the fingerprint the report publishes — however many comparisons are
    made on it; replays hash nothing; and no instance keeps its image past
    the end of its point. If this fails, a comparison went back to hashing
    or an instance is being left to the garbage collector."""
    expected = run_crash_matrix(_spec(replay=True))
    counting = _CountingSha256()
    monkeypatch.setattr(crashmatrix, "hashlib", counting)
    instances, sizes = [], set()

    class _Tracked(crashmatrix._Instance):
        def __init__(self, spec, rules):
            super().__init__(spec, rules)
            instances.append(self)
            sizes.add(self.server.device.size)

    monkeypatch.setattr(crashmatrix, "_Instance", _Tracked)

    rep = run_crash_matrix(_spec(replay=True))

    assert rep.as_dict() == expected.as_dict()  # same hex, counted or not
    assert len(sizes) == 1 and rep.total_points >= 4
    assert counting.fed == rep.total_points * 2 * sizes.pop()
    # counting pass + probe + (original + replay) per crashed point at least
    assert len(instances) >= 2 + 2 * rep.total_points
    for inst in instances:
        buf = inst.server.device.buffer
        assert buf.visible is None and buf.durable is None
