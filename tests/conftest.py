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
    """The strip table unloaded, for one test.

    The first two-boundary read builds every clamped geometry's row of 18
    floats from the committed table into ``absorb._ROWS``; with this fixture that
    first read happens in the test, and the loaded rows are put back
    afterwards.
    """
    monkeypatch.setattr(absorb, "_ROWS", None)
