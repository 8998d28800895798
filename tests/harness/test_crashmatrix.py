"""The crash-point matrix: deterministic enumeration, coverage of every
boundary class, and clean verdicts on the reference store."""

import hashlib
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import repro.mem.buffer as buffer_module
from repro.core.config import integrity_overrides
from repro.harness import crashmatrix
from repro.harness.crashmatrix import CrashMatrixSpec, run_crash_matrix
from repro.mem.buffer import CHUNK, PersistentBuffer
from repro.stores import StoreSetup
from repro.workloads.keyspace import parse_value
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


def _one_process(monkeypatch):
    """Judge every point in this process: the spies below watch instances
    and buffers, which a forked child would keep to itself."""
    monkeypatch.setattr(crashmatrix, "_processes", lambda jobs: 1)


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


def test_a_client_that_owns_no_key_writes_none(monkeypatch):
    """Four clients over three keys: the fourth owns no key and only
    reads, so every key keeps the single writer the oracle's acked and
    max-read marks rely on."""
    writers = defaultdict(set)
    start = StoreSetup.start

    def recording(put, i):
        def put_and_record(key, value):
            if parse_value(value)[1] > 0:  # version 0 is the preload
                writers[key].add(i)
            return put(key, value)

        return put_and_record

    def start_recording(setup):
        for i, client in enumerate(setup.clients):
            client.put = recording(client.put, i)
        return start(setup)

    monkeypatch.setattr(StoreSetup, "start", start_recording)
    spec = _spec(n_clients=4, key_count=3, read_fraction=0.0)
    with crashmatrix._Instance(spec) as inst:
        inst.run_workload()
    assert len(writers) == 3
    assert all(len(ids) == 1 for ids in writers.values()), dict(writers)
    assert max(inst.loop.ledger.max_read) >= 0  # the keyless client read


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
    _one_process(monkeypatch)
    armed = []

    class _DeafReplay(crashmatrix._Instance):
        """Every instance that crashes from scratch — armed with one crash
        rule: with replay on that is each point's replay, since the
        originals come from capsules (the counting pass holds no rule, the
        armed pass every point's) — is armed with a crash no run can reach."""

        def __init__(self, spec, rules=(), **kw):
            armed.append(len(rules))
            if len(rules) == 1:
                rules = crashmatrix._crash_rule(rules[0].site, 10**9)
            super().__init__(spec, rules, **kw)

    monkeypatch.setattr(crashmatrix, "_Instance", _DeafReplay)
    rep = run_crash_matrix(_spec(replay=True, recovery_points=0))
    assert rep.replay_mismatches == _point_ids(rep) != []
    assert rep.non_idempotent == [] and rep.violations == []
    assert armed[:2] == [0, rep.total_points] and armed.count(1) == rep.total_points


# -- the replay holds the capsule route to a real crash ------------------------------


def _bump_capsule_crash(monkeypatch):
    """Every capsule crash reports one torn write more than it tore."""
    real = crashmatrix._Instance.from_capsule.__func__

    def from_capsule(cls, spec, capsule):
        inst = real(cls, spec, capsule)
        inst.crash_info["summary"]["torn_writes"] += 1
        return inst

    monkeypatch.setattr(crashmatrix._Instance, "from_capsule", classmethod(from_capsule))


def _bump_first_recovery(monkeypatch):
    """Every original's first recovery reports one torn object more."""
    real = crashmatrix._Instance.verdict

    def verdict(self, result, summary):
        image = real(self, result, summary)
        result.recovery["torn_objects"] += 1
        return image

    monkeypatch.setattr(crashmatrix._Instance, "verdict", verdict)


@pytest.mark.parametrize("mutant", [_bump_capsule_crash, _bump_first_recovery])
def test_a_replay_that_crashes_or_recovers_otherwise_is_reported(monkeypatch, mutant):
    """Same bytes are not enough: the replay's crash summary and first
    recovery report must equal the original's too."""
    clean = run_crash_matrix(_spec(replay=True))
    mutant(monkeypatch)
    rep = run_crash_matrix(_spec(replay=True))
    # The torn-write count is the workload crash's; a double-crash point
    # publishes its crash inside recovery, which both routes run alike.
    expected = [
        p for p in _point_ids(rep)
        if mutant is _bump_first_recovery or p.startswith("workload:")
    ]
    assert rep.replay_mismatches == expected != []
    assert rep.non_idempotent == [] and rep.violations == []
    assert [r.digest for r in rep.results] == [r.digest for r in clean.results]


def test_an_armed_pass_that_strays_from_the_counting_pass_is_reported(monkeypatch):
    """One site visit more in the armed pass than in the counting pass:
    its capsules are not of the run the points were chosen from, so every
    point is judged from scratch instead and reported as not
    deterministic — never judged on them silently."""
    clean = run_crash_matrix(_spec(replay=True))
    real = crashmatrix._Instance._take_capsule

    def take_capsule(self, capsules, site):
        real(self, capsules, site)
        if len(capsules) == 1:
            self.injector.fire("bg.verifier")  # a visit the counting pass never made

    monkeypatch.setattr(crashmatrix._Instance, "_take_capsule", take_capsule)
    rep = run_crash_matrix(_spec(replay=True))
    assert rep.site_op_counts == clean.site_op_counts
    assert rep.replay_mismatches == _point_ids(rep) == _point_ids(clean) != []
    assert rep.non_idempotent == [] and rep.violations == []
    assert [r.digest for r in rep.results] == [r.digest for r in clean.results]


def test_two_points_share_a_digest_iff_they_share_a_dense_hash(monkeypatch):
    """The published fingerprint hashes touched, non-zero chunks only; its
    equality classes must be those of a SHA-256 over every byte of
    ``durable ‖ visible`` at the same instant."""
    _one_process(monkeypatch)
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
    snapshot the (bytes, pieces) its touched chunks hold, per capsule's
    capture the (bytes, chunks) of one image it holds, and the instances
    with their device sizes. Every instance built must find all earlier
    ones released."""
    with monkeypatch.context() as m:
        counting = _CountingSha256()
        m.setattr(buffer_module, "hashlib", counting)
        gathered, touched, captured, instances = [0], [], [], []
        real_gather, real_snapshot = PersistentBuffer._gather, PersistentBuffer.snapshot
        real_capture = PersistentBuffer.capture

        def _gather(self, pieces):
            out = real_gather(self, pieces)
            gathered[0] += len(out[0]) + len(out[1])
            return out

        def snapshot(self, *ranges):
            snap = real_snapshot(self, *ranges)
            touched.append((sum(n for _, n in snap.pieces), len(snap.pieces)))
            return snap

        def capture(self, like=None):
            cap = real_capture(self, like)
            captured.append((sum(len(d) for _, d, _, _ in cap.chunks), len(cap.chunks)))
            return cap

        m.setattr(PersistentBuffer, "_gather", _gather)
        m.setattr(PersistentBuffer, "snapshot", snapshot)
        m.setattr(PersistentBuffer, "capture", capture)

        class _Tracked(crashmatrix._Instance):
            def __init__(self, spec, rules=(), **kw):
                # the point before this one, the pass before it: all freed
                for inst, _ in instances:
                    assert inst.server.device.buffer.visible is None
                super().__init__(spec, rules, **kw)
                instances.append((self, self.server.device.size))

        m.setattr(crashmatrix, "_Instance", _Tracked)
        rep = run_crash_matrix(spec)
    return rep, counting.fed, gathered[0], touched, captured, instances


def test_a_point_costs_its_touched_chunks_and_every_image_is_freed(monkeypatch):
    """Capsule, fingerprint, snapshot and both comparisons of a crashed
    point move bytes of the chunks its run stored to and nothing else:
    the same counts on a device eight times the size, under what those
    chunks hold; and no instance — counting pass, armed pass, capsule
    setup, replay — keeps its image past the end of its point. If this
    fails, a whole-image judgement went back to paying per device byte,
    or an instance is being left to the garbage collector."""
    _one_process(monkeypatch)
    expected = run_crash_matrix(_spec(replay=True))
    rep, fed, gathered, touched, captured, instances = _image_costs(
        monkeypatch, _spec(replay=True)
    )
    assert rep.as_dict() == expected.as_dict()  # same report, counted or not

    points = rep.total_points
    assert points >= 4 and len(touched) == points  # one snapshot per crashed point
    # one capsule per crash the armed pass met, each feeding a crashed
    # point (the double-crash points all start from the primary's)
    assert 0 < len(captured) <= points
    # per image: the non-zero touched chunks, each behind a 17-byte record
    # header, after 32 bytes of size and range
    assert 0 < fed <= sum(32 + 2 * (size + 17 * pieces) for size, pieces in touched)
    # one copy (snapshot) and two compares (second recovery, replay), two images
    assert 0 < gathered <= 3 * 2 * sum(size for size, _ in touched)
    sizes = {size for _, size in instances}
    assert len(sizes) == 1 and 2 * max(size for size, _ in touched + captured) < sizes.pop() / 8
    # counting pass + armed pass + probe + (capsule setup + replay) per crashed point
    assert len(instances) == 3 + 2 * points
    for inst, _ in instances:
        buf = inst.server.device.buffer
        assert buf.visible is None and buf.durable is None

    pool = instances[0][0].server.config.pool_size
    big, *costs = _image_costs(
        monkeypatch, _spec(replay=True, config_overrides={"pool_size": 8 * pool})
    )
    assert big.ok and big.total_points == points
    assert costs[:4] == [fed, gathered, touched, captured]
    assert min(size for _, size in costs[4]) > 4 * max(size for _, size in instances)


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
