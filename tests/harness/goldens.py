"""The committed goldens: one manifest row per file, each the ``--json``
report of one ``repro`` command, byte for byte.

Together with the characterisation fixtures these are the standing
invariant that makes refactoring safe: the default crash matrix of every
clean store, Fig. 1 and Fig. 2 to the nanosecond, the open-loop load
cell on the completion grid, and the self-healing tier's chaos reports.
``tests/harness/test_goldens.py`` re-runs every row in-process and
compares bytes; CI calls this module for the same check::

    python -m tests.harness.goldens [ID ...]          # check (all rows by default)
    python -m tests.harness.goldens --write ID ...    # regenerate

``--write`` is the only way a golden is written. Regenerate one only for
an intended, explained change of simulated behaviour, and first list
every value that moved (the check prints up to 20 JSON paths per row).
A crash matrix's ``digest`` strings are ``PersistentBuffer.fingerprint()``
of the image after its first recovery: SHA-256 over the device size and
each touched, non-zero 4 KiB chunk of durable and visible memory. If the
encoding itself changes (buffer size, chunk, record layout), show that
nothing but the digest strings moved and that their equality classes
did not.

Erda and Forca have no matrix row: their default matrices still report
violations, and a golden would pin a known defect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from repro.cli import main as repro_main
from tests.characterisation import differing_paths

HERE = Path(__file__).resolve().parent

#: Moved JSON paths a failed check lists per golden.
SHOWN_PATHS = 20


class Golden(NamedTuple):
    """One committed report: its id, the ``repro`` argv that writes it
    (less ``--json``) and the file it must equal."""

    id: str
    argv: tuple[str, ...]
    path: Path


def _row(gid: str, *argv: str) -> Golden:
    return Golden(gid, argv, HERE / f"{gid}.json")


_PARITY_CHAOS = ("chaos", "--store", "efactory", "--parity", "--strict")

GOLDENS: tuple[Golden, ...] = (
    _row("crashmatrix_default", "crashmatrix", "--store", "efactory", "--strict"),
    *(
        _row(f"crashmatrix_{store}", "crashmatrix", "--store", store, "--strict")
        for store in ("efactory_nohr", "ca", "rpc", "saw", "imm")
    ),
    _row("fig1_default", "fig", "1"),
    _row("fig2_default", "fig", "2"),
    _row(
        "loadgen_default", "loadgen", "--store", "efactory", "--mix", "YCSB-B",
        "--clients", "200", "--ops", "20", "--admission", "8", "--seed", "7",
    ),
    *(
        _row(
            f"chaos_parity_{plan}", *_PARITY_CHAOS, "--plan", plan,
            "--seeds", "7", "13", "--clients", "2", "--ops", "60",
        )
        for plan in ("bitrot", "bitrot-heavy", "torn-media")
    ),
    _row(
        "chaos_parity_cluster", *_PARITY_CHAOS, "--plan", "bitrot-heavy",
        "--nodes", "3", "--replication", "2", "--seeds", "7", "--clients", "2",
        "--ops", "40",
    ),
)
BY_ID = {g.id: g for g in GOLDENS}


def render(golden: Golden, out: Path) -> None:
    """Run the golden's command in-process, its report written to ``out``;
    raises if the command exits non-zero (``--strict`` found a violation)."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main([*golden.argv, "--json", str(out)])
    if status != 0:
        raise AssertionError(f"repro {' '.join(golden.argv)} exited {status}")


def moved(golden: Golden, workdir: Path) -> list[str]:
    """Re-run ``golden`` into ``workdir``: [] when the report equals the
    committed file byte for byte, else the first moved JSON paths."""
    fresh = workdir / golden.path.name
    render(golden, fresh)
    return compare(golden.path.read_bytes(), fresh.read_bytes())


def compare(committed: bytes, fresh: bytes) -> list[str]:
    """[] for equal bytes, else up to :data:`SHOWN_PATHS` JSON paths
    whose values differ."""
    if fresh == committed:
        return []
    paths = differing_paths(json.loads(committed), json.loads(fresh))
    return list(islice(paths, SHOWN_PATHS)) or ["(values equal, bytes differ)"]


def _cli(args: list[str]) -> int:
    write = args[:1] == ["--write"]
    ids = args[1:] if write else args
    unknown = [gid for gid in ids if gid not in BY_ID]
    if unknown or (write and not ids):
        print(__doc__, file=sys.stderr)
        print(f"ids: {' '.join(BY_ID)}", file=sys.stderr)
        return 2
    rows = [BY_ID[gid] for gid in ids] or list(GOLDENS)
    if write:
        for golden in rows:
            render(golden, golden.path)
            print(f"wrote {golden.path}")
        return 0
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for golden in rows:
            paths = moved(golden, Path(tmp))
            failed += bool(paths)
            print(f"{golden.id}: " + ("ok" if not paths else "MOVED"))
            for path in paths:
                print(f"  {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_cli(sys.argv[1:]))
