"""Property tests of two-boundary absorption over random spinors and strips."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groverline.absorb import (  # noqa: E402
    AbsorptionQuery,
    absorption_matrices,
    prob_two_boundary,
)
from test_strip import form  # noqa: E402

TOL = 1e-12

component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
raw_spinor = st.tuples(*[st.tuples(component, component)] * 3)
boundary = st.integers(min_value=1, max_value=8)


def normalized(raw):
    v = np.array([complex(re, im) for re, im in raw])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([0, 0, 1], dtype=complex), 1.0
    return tuple(complex(c) for c in v / norm)


@settings(max_examples=60, deadline=None)
@given(raw_spinor, boundary, boundary)
def test_sides_are_forms_and_ledger_closes(raw, m, n):
    spinor = normalized(raw)
    x_left, x_right, trapped = absorption_matrices(m, n)
    answer = prob_two_boundary(AbsorptionQuery(spinor, left=m, right=n))
    assert answer.p_left == pytest.approx(form(x_left, spinor), abs=TOL)
    assert answer.p_right == pytest.approx(form(x_right, spinor), abs=TOL)
    assert answer.p_left + answer.p_right + form(trapped, spinor) == pytest.approx(
        1.0, abs=TOL
    )


@settings(max_examples=60, deadline=None)
@given(raw_spinor, boundary, boundary)
def test_mirror_swaps_sides(raw, m, n):
    a, b, g = normalized(raw)
    fwd = prob_two_boundary(AbsorptionQuery((a, b, g), left=m, right=n))
    rev = prob_two_boundary(AbsorptionQuery((g, b, a), left=n, right=m))
    assert fwd.p_left == pytest.approx(rev.p_right, abs=TOL)
    assert fwd.p_right == pytest.approx(rev.p_left, abs=TOL)
    assert fwd.deficit == pytest.approx(rev.deficit, abs=TOL)
