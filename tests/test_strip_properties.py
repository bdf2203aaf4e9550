"""Property tests of absorption over random spinors and strips."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groverline import absorb  # noqa: E402
from groverline.absorb import (  # noqa: E402
    _ONE_BOUNDARY_ERROR,
    AbsorptionQuery,
    _strip_forms,
    absorption_matrices,
    prob_one_boundary,
    prob_two_boundary,
)
from test_strip import UPPER, form  # noqa: E402

TOL = 1e-12
LOEWNER_TOL = 1e-11

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


@settings(max_examples=200, deadline=None)
@given(raw_spinor, st.integers(min_value=2, max_value=30), st.data())
def test_answer_is_the_forms_of_the_matrices_to_the_bit(raw, width, data):
    # any start site, first asked or already converted: the cached rows give
    # the bits of the forms of the returned blocks
    m = data.draw(st.integers(min_value=1, max_value=width - 1), label="m")
    spinor = normalized(raw)
    answer = prob_two_boundary(AbsorptionQuery(spinor, left=m, right=width - m))
    forms = _strip_forms([x[UPPER] for x in absorption_matrices(m, width - m)], spinor)
    got = [answer.p_left, answer.p_right, answer.trapped]
    assert [float(x).hex() for x in got] == [float(x).hex() for x in forms]


#: component types of the drift test: every branch of the exact route's
#: ``complex()`` dispatch (kept, converted) and of the number check
COMPONENT_TYPES = (complex, float, int, np.float64, np.complex128, Fraction)


@st.composite
def typed_spinors(draw):
    """A unit spinor whose components have the drawn types.

    ``int`` components are 0, or +-1 when all three are ``int``; real types
    carry the magnitude of their complex draw, with its real part's sign.
    """
    types = draw(st.tuples(*[st.sampled_from(COMPONENT_TYPES)] * 3))
    if all(t is int for t in types):
        k, sign = draw(st.integers(0, 2)), draw(st.sampled_from((1, -1)))
        return tuple(sign if i == k else 0 for i in range(3))
    raw = [complex(re, im) for re, im in draw(raw_spinor)]
    v = np.array([0j if t is int else c for t, c in zip(types, raw)])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([0j if t is int else 1.0 for t in types])
        norm = np.linalg.norm(v)
    out = []
    for t, c in zip(types, v / norm):
        if t is int:
            out.append(0)
        elif t in (complex, np.complex128):
            out.append(t(c))
        else:
            out.append(t(math.copysign(abs(c), c.real)))
    return tuple(out)


@settings(max_examples=400, deadline=None)
@given(typed_spinors(), st.integers(1, 30), st.integers(1, 30))
@example((Fraction(3, 5), 0, np.complex128(0.8j)), 3, 4)
@example((0, np.float64(-1.0), 0), 30, 1)
def test_written_out_sums_are_the_contraction_to_the_bit(spinor, m, n):
    # prob_two_boundary writes its three sums out instead of calling
    # _strip_forms; every field is the contraction of the geometry's row,
    # and total, deficit and error_estimate are formed from it as before
    answer = prob_two_boundary(AbsorptionQuery(spinor, left=m, right=n))
    row = absorb._site_rows(m, n)
    p_left, p_right, trapped = _strip_forms([row[:6], row[6:12], row[12:]], spinor)
    total = p_left + p_right
    want = (p_left, p_right, total, trapped, abs(total + trapped - 1.0), trapped)
    got = dataclasses.astuple(answer)
    assert [type(v) for v in got] == [float] * 6
    assert [v.hex() for v in got] == [float(v).hex() for v in want]


def smallest_eigenvalue(x):
    return float(np.min(np.linalg.eigvalsh(x)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_monotone_in_boundary_distance(m, n):
    # Loewner orders, so they hold for every spinor at once: a side absorbs
    # less as its own boundary moves away, and the trapped projection's
    # start block grows with the width
    x_left, x_right, trapped = absorption_matrices(m, n)
    left_farther, _, trapped_left_farther = absorption_matrices(m + 1, n)
    _, right_farther, trapped_right_farther = absorption_matrices(m, n + 1)
    assert smallest_eigenvalue(x_left - left_farther) >= -LOEWNER_TOL
    assert smallest_eigenvalue(x_right - right_farther) >= -LOEWNER_TOL
    assert smallest_eigenvalue(trapped_right_farther - trapped) >= -LOEWNER_TOL
    assert smallest_eigenvalue(trapped_left_farther - trapped) >= -LOEWNER_TOL


@settings(max_examples=30, deadline=None)
@given(raw_spinor)
def test_one_boundary_monotone_in_distance(raw):
    # the exact forms decrease in the Loewner order (test_exact_one_boundary),
    # and each value is within the form route's error estimate of 5e-16 of
    # its exact form
    spinor = normalized(raw)
    values = [prob_one_boundary(m, spinor) for m in range(1, 13)]
    assert all(b <= a + 2 * _ONE_BOUNDARY_ERROR for a, b in zip(values, values[1:]))
