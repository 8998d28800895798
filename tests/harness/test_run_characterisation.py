"""Every experiment driver still behaves, to the float, the event and the
NVM byte, as it did when ``run_characterisation.json`` was recorded (see
:mod:`tests.harness.run_characterisation` for what a cell holds)."""

import json

import pytest

from tests.harness.run_characterisation import FIXTURE, cells, run_cell

RECORDED = json.loads(FIXTURE.read_text())
CELLS = cells()


def test_fixture_covers_every_cell():
    assert sorted(RECORDED) == sorted(CELLS)


@pytest.mark.parametrize("cell_id", CELLS)
def test_cell_matches_recording(cell_id):
    # Round-trip through JSON so tuples compare as the lists they were stored as.
    assert json.loads(json.dumps(run_cell(CELLS[cell_id]))) == RECORDED[cell_id]
