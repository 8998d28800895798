"""Smoke test of the benchmark. Not in tier-1's ``testpaths``; run explicitly:

    python -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.workloads import make_value  # noqa: E402

from bench.compare import verdict  # noqa: E402
from bench.oracle import OpRecord, Oracle  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declaration_is_within_the_limits():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [
        m["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for m in DECLARED[group]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_smoke_run_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert time.time() - started < 60
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    for name, result in report["workloads"].items():
        assert result["failed"] == 0 and not result["problems"], name
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in DECLARED[group]}
            emitted = {k: v["unit"] for k, v in result[group].items()}
            assert emitted == declared, (name, group)
        assert all(v["value"] > 0 for v in result["end_to_end"].values()), name
        assert (ROOT / "bench" / "out" / f"{name}.trace.json").is_file()


def _get(key_id: int, version: int, start: float, end: float) -> OpRecord:
    return OpRecord(0, "get", key_id, version, start, start, end, True)


def _put(key_id: int, version: int, start: float, end: float, ok: bool = True) -> OpRecord:
    return OpRecord(1, "put", key_id, version, start, start, end, ok)


def test_corrupted_get_value_is_counted_as_failed():
    oracle = Oracle(versions_per_key=[2, 0], consistent_get=True)
    good = make_value(0, 1, 64)
    assert oracle.observe_get(0, good) == 1 and oracle.failed == 0
    torn = good[:40] + bytes([good[40] ^ 0xFF]) + good[41:]
    assert oracle.observe_get(0, torn) == -1 and oracle.failed == 1
    assert oracle.observe_get(1, good) == -1 and oracle.failed == 2  # another key's value
    assert oracle.observe_get(0, make_value(0, 3, 64)) == -1 and oracle.failed == 3  # phantom


def test_torn_value_is_tolerated_only_without_consistent_get():
    oracle = Oracle(versions_per_key=[1], consistent_get=False)
    assert oracle.observe_get(0, b"\x00" * 64) == -1 and oracle.failed == 0


def test_audit_flags_stale_and_phantom_reads_by_real_time():
    history = [
        _put(0, 1, 10.0, 20.0),
        _put(0, 2, 30.0, 40.0),   # began after version 1 was acknowledged
        _get(0, 2, 50.0, 55.0),   # fine
        _get(0, 1, 35.0, 45.0),   # fine: overlaps PUT 2
        _get(0, 0, 12.0, 25.0),   # fine: overlaps PUT 1
    ]
    oracle = Oracle([2], True)
    oracle.audit(history)
    assert oracle.failed == 0

    oracle = Oracle([2], True)
    oracle.audit(history + [_get(0, 1, 41.0, 46.0)])  # PUT 2 acknowledged at 40
    assert oracle.failed == 1 and "superseded" in oracle.messages[0]

    oracle = Oracle([2], True)
    oracle.audit(history + [_get(0, 0, 21.0, 26.0)])  # preload superseded by PUT 1
    assert oracle.failed == 1

    oracle = Oracle([2], True)
    oracle.audit(history + [_get(0, 2, 22.0, 28.0)])  # PUT 2 had not begun
    assert oracle.failed == 1 and "began" in oracle.messages[0]


def test_audit_does_not_order_concurrent_writers_by_version_number():
    # Two clients write one key concurrently; the lower number lands last.
    history = [_put(0, 2, 10.0, 30.0), _put(0, 1, 12.0, 32.0), _get(0, 1, 40.0, 45.0)]
    oracle = Oracle([2], True)
    oracle.audit(history)
    assert oracle.failed == 0


def test_compare_verdicts():
    assert verdict(100.0, 95.0, "higher", 0.10)[0] == "same"
    assert verdict(100.0, 85.0, "higher", 0.10)[0] == "worse"
    assert verdict(100.0, 115.0, "higher", 0.10)[0] == "better"
    assert verdict(1.0, 1.3, "lower", 0.25)[0] == "worse"
    # Repetitions spread wider than the bound and overlap: not "same".
    assert verdict(100.0, 99.0, "higher", 0.10, [90.0, 110.0], [85.0, 105.0])[0] == "unresolved"
    # ... unless every repetition of B beats every repetition of A.
    assert verdict(100.0, 130.0, "higher", 0.10, [90.0, 110.0], [120.0, 140.0])[0] == "better"
