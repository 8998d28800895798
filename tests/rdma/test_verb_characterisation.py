"""Every verb still behaves, to the float and to the event, as it did
when ``verb_characterisation.json`` was recorded (see
:mod:`tests.rdma.verb_characterisation` for what a cell holds)."""

import json

import pytest

from tests.rdma.verb_characterisation import FIXTURE, cell_id, cells, run_cell

RECORDED = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_matrix():
    assert sorted(RECORDED) == sorted(cell_id(cell) for cell in cells())


@pytest.mark.parametrize("cell", cells(), ids=cell_id)
def test_cell_matches_recording(cell):
    # Round-trip through JSON so tuples compare as the lists they were stored as.
    assert json.loads(json.dumps(run_cell(*cell))) == RECORDED[cell_id(cell)]
