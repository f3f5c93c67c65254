"""Every case of the pin corpus (pins.py) against the shared record and the
record for the running interpreter's summation behaviour. A failure lists
each moved value with its case, index, recorded and new float.hex and
distance in ulps; `python tests/pins.py` re-records both files and prints
the same list. The layout tests hold each case in the one file its name
selects."""

import pytest

import pins


@pytest.fixture(scope="module")
def record():
    return pins.load()


def test_record_holds_exactly_the_cases(record):
    assert sorted(record) == sorted(pins.CASES)


@pytest.mark.parametrize("name", sorted(pins.CASES))
def test_pin(record, name):
    moved = pins.moved(name, record.get(name), pins.render(name))
    assert moved == [], "\n".join(moved)


def test_sum_dependent_cases_have_one_record_per_summation():
    plain, compensated = pins.read("sum-plain"), pins.read("sum-compensated")
    dependent = sorted(n for n in pins.CASES if n.startswith(pins.SUM_DEPENDENT))
    assert [n for n in pins.read("shared") if n.startswith(pins.SUM_DEPENDENT)] == []
    assert sorted(plain) == sorted(compensated) == dependent
    # and each listed group does differ, so the list holds no stale entry
    moved = [n for n in dependent if plain[n] != compensated[n]]
    assert [p for p in pins.SUM_DEPENDENT if not any(n.startswith(p) for n in moved)] == []


def test_mlp_cases_have_one_record():
    # the MLP kernel and microlearn.affine add left to right on every CPython,
    # so their cases and the numcli xor artifacts are shared
    mlp = [n for n in pins.CASES if n.startswith(("mlp.", "microlearn.")) or n == "cli.xor"]
    assert mlp and not [n for n in mlp if n.startswith(pins.SUM_DEPENDENT)]
