"""Every case of the pin corpus (pins.py) against the record for the running
interpreter's summation behaviour. A failure lists each moved value with its
case, index, recorded and new float.hex and distance in ulps;
`python tests/pins.py` re-records the file and prints the same list."""

import pytest

import pins


@pytest.fixture(scope="module")
def record():
    return pins.load()


def test_record_holds_exactly_the_cases(record):
    assert sorted(record) == sorted(pins.CASES), pins.record_path()


@pytest.mark.parametrize("name", sorted(pins.CASES))
def test_pin(record, name):
    moved = pins.moved(name, record.get(name), pins.render(name))
    assert moved == [], "\n".join(moved)
