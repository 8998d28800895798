"""Every committed golden re-runs byte-identical (see
:mod:`tests.harness.goldens` for the manifest and how to regenerate)."""

from __future__ import annotations

import json

import pytest

from tests.harness import goldens
from tests.harness.goldens import GOLDENS, Golden


@pytest.mark.parametrize("golden", GOLDENS, ids=[g.id for g in GOLDENS])
def test_golden_is_byte_identical(golden: Golden, tmp_path):
    paths = goldens.moved(golden, tmp_path)
    assert not paths, (
        f"{golden.path.name} moved; moved JSON paths "
        f"(at most {goldens.SHOWN_PATHS} shown):\n  "
        + "\n  ".join(paths)
    )


def test_manifest_is_every_committed_golden():
    """A committed report without a row would be pinned by nothing."""
    committed = {
        p.name
        for pattern in ("crashmatrix_*.json", "fig*_default.json",
                        "loadgen_*.json", "chaos_*.json")
        for p in goldens.HERE.glob(pattern)
    }
    assert committed == {g.path.name for g in GOLDENS}
    assert len(goldens.BY_ID) == len(GOLDENS) == 13


def test_a_moved_value_is_named():
    """A mismatch names the JSON paths whose values moved, at most
    ``SHOWN_PATHS`` of them."""
    raw = goldens.BY_ID["crashmatrix_default"].path.read_bytes()
    report = json.loads(raw)
    report["points"][3]["digest"] = "moved"
    report["total_points"] = -1
    paths = goldens.compare(raw, json.dumps(report, indent=2).encode())
    assert paths == ["points[3].digest", "total_points"]
    for point in report["points"]:
        point["digest"] = "moved"
    many = goldens.compare(raw, json.dumps(report).encode())
    assert len(many) == goldens.SHOWN_PATHS
    assert goldens.compare(raw, raw) == []
    assert goldens.compare(raw, json.dumps(json.loads(raw)).encode()) == [
        "(values equal, bytes differ)"
    ]
