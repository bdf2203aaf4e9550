import pytest

from groverline import absorb
from groverline.absorb import table1
from groverline.localize import oscillation_trace, two_peak_profile


@pytest.fixture(scope="session")
def table1_rows():
    return table1(max_n=6)


@pytest.fixture(scope="session")
def trace500():
    return oscillation_trace(500)


@pytest.fixture(scope="session")
def profile500():
    return two_peak_profile(500)


@pytest.fixture
def cold_strip_rows(monkeypatch):
    """An empty row slot for every clamped strip geometry, for one test.

    The strip route builds a geometry's float rows from the committed table
    the first time it is read; with this fixture every read in the test is
    a first read again, and the slots are put back afterwards.
    """
    rows = [None] * len(absorb._strip_rows)
    monkeypatch.setattr(absorb, "_strip_rows", rows)
    return rows
