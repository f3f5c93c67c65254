"""Every case of the pin corpus (pins.py) against the record for the running
interpreter's summation behaviour. A failure lists each moved value with its
case, index, recorded and new float.hex and distance in ulps;
`python tests/pins.py` re-records the file and prints the same list."""

import json
from pathlib import Path

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


def test_mlp_cases_have_one_record():
    # the MLP kernel adds left to right on every CPython, so its cases, and
    # the numcli xor artifacts, hold the same bits in both records. Every
    # case outside pins.SUM_DEPENDENT does too, which lets a run on either
    # summation behaviour check the other record on those cases
    plain, compensated = (
        json.loads(Path(pins.PINS_DIR, f"sum-{s}.json").read_text()) for s in ("plain", "compensated")
    )
    mlp = [n for n in pins.CASES if n.startswith("mlp.") or n == "cli.xor"]
    assert mlp and not [n for n in mlp if n.startswith(pins.SUM_DEPENDENT)]
    moved = [n for n in pins.CASES if plain[n] != compensated[n]]
    assert [n for n in moved if not n.startswith(pins.SUM_DEPENDENT)] == []
    # and each listed group does differ, so the list holds no stale entry
    assert [p for p in pins.SUM_DEPENDENT if not any(n.startswith(p) for n in moved)] == []
