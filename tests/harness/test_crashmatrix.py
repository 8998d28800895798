"""The crash-point matrix: deterministic enumeration, coverage of every
boundary class, and clean verdicts on the reference store."""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

import repro.mem.buffer as buffer_module
from repro.core.config import integrity_overrides
from repro.harness import crashmatrix
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix
from repro.mem.buffer import CHUNK, PersistentBuffer
from tests.mem.test_image_snapshot import flip_one_image


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


def _plant(buf, image, touched):
    """Flip one byte of ``image`` only, through the buffer's API: the last
    byte of the last chunk the run stored to, or of the last it never did
    (which a judgement that looks only at touched chunks would miss)."""
    stored = {addr // CHUNK for addr, _ in buf.snapshot().pieces}
    chunk = max(c for c in range(buf.size // CHUNK) if (c in stored) == touched)
    flip_one_image(buf, image, (chunk + 1) * CHUNK - 1)


# Each plant is made twice: in a chunk the run never stored to and in one it did.
IMAGES = pytest.mark.parametrize("image", ["durable", "visible"])


@IMAGES
def test_a_second_recovery_that_moves_one_byte_is_reported(monkeypatch, image):
    clean = run_crash_matrix(_spec())
    real = crashmatrix.recover
    for touched in (False, True):
        finished: Counter = Counter()  # per buffer (a setup is unhashable)

        def recover(setup):
            """The second recovery to *finish* on an instance also flips a byte."""
            report = real(setup)
            buf = setup.server.device.buffer
            finished[buf] += 1
            if finished[buf] == 2:
                _plant(buf, image, touched)
            return report

        monkeypatch.setattr(crashmatrix, "recover", recover)
        rep = run_crash_matrix(_spec())
        assert rep.non_idempotent == _point_ids(rep) != []
        assert not rep.ok and rep.violations == []
        # the published fingerprint is of the image *before* the second pass
        assert [r.digest for r in rep.results] == [r.digest for r in clean.results]


@IMAGES
def test_a_replay_that_lands_on_other_bytes_is_reported(monkeypatch, image):
    real = crashmatrix._Instance.recovers_to
    for touched in (False, True):

        def recovers_to(self, snap):
            assert real(self, snap)
            _plant(self.server.device.buffer, image, touched)
            return self.server.device.same_image(snap)

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


def test_two_points_share_a_digest_iff_they_share_a_dense_hash(monkeypatch):
    """The published fingerprint hashes touched, non-zero chunks only; its
    equality classes must be those of a SHA-256 over every byte of
    ``durable ‖ visible`` at the same instant."""
    dense_of: dict[str, set[str]] = {}
    real = PersistentBuffer.fingerprint

    def fingerprint(self, *ranges):
        digest = real(self, *ranges)
        dense = hashlib.sha256(self.durable)
        dense.update(self.visible)
        dense_of.setdefault(digest, set()).add(dense.hexdigest())
        return digest

    monkeypatch.setattr(PersistentBuffer, "fingerprint", fingerprint)
    rep = run_crash_matrix(CrashMatrixSpec(
        replay=False, sites=("bg.cleaner.merge", "bg.cleaner.finish"),
        recovery_points=3,
    ))
    digests = [r.digest for r in rep.results if r.crashed]
    assert set(digests) == set(dense_of)
    assert 1 < len(dense_of) < len(digests)  # some points share, some do not
    assert all(len(dense) == 1 for dense in dense_of.values())
    assert len(set.union(*dense_of.values())) == len(dense_of)


# -- cost guard (deterministic, in the style of tests/stores/test_scan_cost.py) ----


class _CountingSha256:
    """Stands in for ``hashlib`` inside :mod:`repro.mem.buffer`: a real
    SHA-256 that adds the bytes it is fed to ``fed``."""

    def __init__(self):
        self.fed = 0

    def sha256(self, data=b""):
        counter, real = self, hashlib.sha256()

        class _Hash:
            def update(self, data):
                counter.fed += memoryview(data).nbytes
                real.update(data)

            hexdigest = staticmethod(real.hexdigest)

        h = _Hash()
        h.update(data)
        return h


def _image_costs(monkeypatch, spec):
    """Run ``spec`` and return its report with what the whole-image
    primitive was made to do: bytes fed to SHA-256, bytes gathered out of
    the images (``snapshot`` copies, ``same_image`` compares), per
    snapshot the (bytes, pieces) its touched chunks hold, device sizes."""
    with monkeypatch.context() as m:
        counting = _CountingSha256()
        m.setattr(buffer_module, "hashlib", counting)
        gathered, touched, instances = [0], [], []
        real_gather, real_snapshot = PersistentBuffer._gather, PersistentBuffer.snapshot

        def _gather(self, pieces):
            out = real_gather(self, pieces)
            gathered[0] += len(out[0]) + len(out[1])
            return out

        def snapshot(self, *ranges):
            snap = real_snapshot(self, *ranges)
            touched.append((sum(n for _, n in snap.pieces), len(snap.pieces)))
            return snap

        m.setattr(PersistentBuffer, "_gather", _gather)
        m.setattr(PersistentBuffer, "snapshot", snapshot)

        class _Tracked(crashmatrix._Instance):
            def __init__(self, spec, rules):
                super().__init__(spec, rules)
                instances.append((self, self.server.device.size))

        m.setattr(crashmatrix, "_Instance", _Tracked)
        rep = run_crash_matrix(spec)
    return rep, counting.fed, gathered[0], touched, instances


def test_a_point_costs_its_touched_chunks_and_every_image_is_freed(monkeypatch):
    """Fingerprint, snapshot and both comparisons of a crashed point move
    bytes of the chunks its run stored to and nothing else: the same
    counts on a device eight times the size, under what those chunks
    hold; and no instance keeps its image past the end of its point. If
    this fails, a whole-image judgement went back to paying per device
    byte, or an instance is being left to the garbage collector."""
    expected = run_crash_matrix(_spec(replay=True))
    rep, fed, gathered, touched, instances = _image_costs(
        monkeypatch, _spec(replay=True)
    )
    assert rep.as_dict() == expected.as_dict()  # same report, counted or not

    points = rep.total_points
    assert points >= 4 and len(touched) == points  # one snapshot per crashed point
    # per image: the non-zero touched chunks, each behind a 17-byte record
    # header, after 32 bytes of size and range
    assert 0 < fed <= sum(32 + 2 * (size + 17 * pieces) for size, pieces in touched)
    # one copy (snapshot) and two compares (second recovery, replay), two images
    assert 0 < gathered <= 3 * 2 * sum(size for size, _ in touched)
    sizes = {size for _, size in instances}
    assert len(sizes) == 1 and 2 * max(size for size, _ in touched) < sizes.pop() / 8
    # counting pass + probe + (original + replay) per crashed point at least
    assert len(instances) >= 2 + 2 * points
    for inst, _ in instances:
        buf = inst.server.device.buffer
        assert buf.visible is None and buf.durable is None

    pool = instances[0][0].server.config.pool_size
    big, *costs = _image_costs(
        monkeypatch, _spec(replay=True, config_overrides={"pool_size": 8 * pool})
    )
    assert big.ok and big.total_points == points
    assert costs[:3] == [fed, gathered, touched]
    assert min(size for _, size in costs[3]) > 4 * max(size for _, size in instances)


def test_no_dense_image_idiom_remains():
    """One fingerprint idiom, and no per-device-byte one: the two image
    hashers go through ``PersistentBuffer.fingerprint``, and the buffer
    neither allocates zero-filled ``bytearray`` images, nor copies one
    whole image over the other, nor slices a whole image."""
    src = Path(buffer_module.__file__).parents[1]
    for module in ("harness/crashmatrix.py", "cluster/failover.py"):
        assert "hashlib" not in (src / module).read_text(), module
    code = (src / "mem/buffer.py").read_text()
    for idiom in ("bytearray(size)", "visible[:]", "durable[:]", "map[:]",
                  "bytes(self.visible)", "bytes(self.durable)"):
        assert idiom not in code, idiom
