"""The command line the characterisation fixtures share.

``--write`` records a fresh run, one cell per line, so a behaviour change
shows up as that cell's diff. ``--diff`` runs every cell and prints each
``(cell, JSON path)`` whose value differs from the recording, one per
line — the check that a regeneration moved only the fields it meant to.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

_ABSENT = object()


def differing_paths(recorded: Any, fresh: Any, path: str = "") -> Iterator[str]:
    """The JSON path of every leaf where ``recorded`` and ``fresh`` differ;
    a key or list item present on one side only is one differing leaf."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        for key in sorted(recorded.keys() | fresh.keys()):
            yield from differing_paths(
                recorded.get(key, _ABSENT),
                fresh.get(key, _ABSENT),
                f"{path}.{key}" if path else key,
            )
    elif isinstance(recorded, list) and isinstance(fresh, list):
        for i in range(max(len(recorded), len(fresh))):
            yield from differing_paths(
                recorded[i] if i < len(recorded) else _ABSENT,
                fresh[i] if i < len(fresh) else _ABSENT,
                f"{path}[{i}]",
            )
    elif recorded != fresh:
        yield path


def main(doc: str, fixture: Path, characterise: Callable[[], dict]) -> None:
    """``--write`` or ``--diff`` for one fixture; anything else prints ``doc``."""
    args = sys.argv[1:]
    if args == ["--write"]:
        lines = [
            f"{json.dumps(cid)}: {json.dumps(cell, sort_keys=True, separators=(',', ':'))}"
            for cid, cell in characterise().items()
        ]
        fixture.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {fixture}")
    elif args == ["--diff"]:
        recorded = json.loads(fixture.read_text())
        # Round-trip through JSON so tuples compare as the lists they were stored as.
        fresh = json.loads(json.dumps(characterise()))
        for cid in sorted(recorded.keys() | fresh.keys()):
            for path in differing_paths(
                recorded.get(cid, _ABSENT), fresh.get(cid, _ABSENT)
            ):
                print(f"{cid}\t{path}")
    else:
        sys.exit(doc)
