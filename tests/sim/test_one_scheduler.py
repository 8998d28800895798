"""Guard: the kernel has one scheduler. The timer wheel was replaced by a
single heap, not forked beside it; the seed heap is the tests' oracle
(:mod:`tests.sim.heapkernel`), not shipped code. A second queue, a
selectable kernel or a returning bucket array fails here, by name."""

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.sim.kernel import Environment

SRC = Path(repro.__file__).parent

#: Everything an Environment holds that is not its event queue.
NOT_THE_QUEUE = {
    "now",
    "_seq",
    "_active_process",
    "trace_hook",
    "_free_timeouts",
    "events_scheduled",
}


def test_no_wheel_vocabulary_in_sim():
    banned = re.compile(r"_WHEEL|_BUCKET_NS|_overflow|_stage|_advance")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted((SRC / "sim").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


def test_environment_has_one_queue_and_no_subclass_in_src():
    assert set(Environment.__slots__) - NOT_THE_QUEUE == {"_queue"}
    subclass = re.compile(r"^\s*class\s+\w+\([^)]*\bEnvironment\b", re.M)
    assert [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if subclass.search(path.read_text())
    ] == []


def test_seed_heap_is_not_shipped():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.heapkernel")
