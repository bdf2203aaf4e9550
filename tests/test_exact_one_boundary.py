"""The one-boundary form route against its exact oracle and its asymptotics.

``exact_one_boundary.py`` computes F_m exactly, as a + (b sqrt2 +
c theta_b)/pi per entry, from the moment recurrence in Fractions, and the
Taylor coefficients c_k of the integrand g(s) in s = -ln y.  The
production route, ``absorb._one_boundary_form``, reads F_1..F_15 from the
committed table of correctly rounded forms and sums Watson's series
M_inf + sum_k (k! c_k / (2 sqrt2 pi)) (2m - 1)^-(k+1), 14 committed terms,
for every farther m; it is held to the exact forms entry by entry, on both
sides of that switch, and to the 16-node Gauss-Legendre rule of
``one_boundary_rule.py``, which shares no code with it.  For large m the
series' first terms are the corner asymptotics F_m - M_inf =
Re(g_b g_b^H)/(8 sqrt2 pi m^2) + O(m^-3), with g_b = (-1, sqrt2 i, -1) the
first-hit functions (l, s, r) at the branch point; LS and SR vanish at that
order and are -+1/(16 sqrt2 pi m^3).
"""

import functools
import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import groverline.absorb as absorb
from groverline import prob_one_boundary

import exact_one_boundary
from exact_one_boundary import M_INF, UPPER, evaluate, exact_form, form_floats, taylor
from one_boundary_rule import rule_form

mpmath = pytest.importorskip("mpmath")

#: Re(g_b g_b^H) / (8 sqrt2 pi), g_b = (-1, sqrt2 i, -1)
LEADING = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0]]) / (8 * math.sqrt(2) * math.pi)


def _production(m):
    """The production form of distance m, expanded from its six upper-triangle floats."""
    out = np.empty((3, 3))
    for (i, j), entry in zip(UPPER, absorb._one_boundary_form(m)):
        out[i, j] = out[j, i] = entry
    return out


@functools.lru_cache(maxsize=None)
def _exact(m):
    """F_m, each entry the float nearest its exact value."""
    return np.array(form_floats(m, mpmath))


def _m_inf():
    out = np.empty((3, 3))
    for (i, j), entry in zip(UPPER, M_INF):
        out[i, j] = out[j, i] = float(evaluate(entry, mpmath))
    return out


def test_production_within_1e15_of_the_exact_forms():
    # measured: every entry within 4.7e-17 for m = 1..400 (the table's are
    # the exact floats themselves)
    worst = 0.0
    for m in range(1, 401):
        worst = max(worst, np.max(np.abs(_production(m) - _exact(m))))
    assert worst <= 1e-15


def test_m_inf_matches_the_exact_limit():
    # the table's M_inf is the correctly rounded limit
    assert np.max(np.abs(np.subtract(absorb._M_INF, [_m_inf()[i, j] for i, j in UPPER]))) <= 1.2e-16


def test_small_forms_are_the_known_closed_values():
    f1, f2 = exact_form(1), exact_form(2)
    ll, lr, rr = 0, 2, 5  # positions in UPPER
    assert f1[ll] == (Fraction(-15), Fraction(14), Fraction(15))
    assert f1[lr] == (0, 0, 0)
    assert f1[rr] == (0, Fraction(10, 4), Fraction(-3, 4))
    assert f2[rr] == (Fraction(-16), Fraction(66, 4), Fraction(57, 4))
    # the basis spinors read the diagonal: RR(1) = (10 sqrt2 - 3 theta_b)/(4 pi)
    assert prob_one_boundary(1, (0, 0, 1)) == pytest.approx(float(evaluate(f1[rr], mpmath)), abs=1e-15)
    assert prob_one_boundary(2, (0, 0, 1)) == pytest.approx(float(evaluate(f2[rr], mpmath)), abs=1e-15)


def test_the_exact_forms_decrease_to_m_inf():
    # the boundary absorbs less as it recedes, for every spinor at once
    # (Loewner order), and F_m - M_inf stays positive semidefinite
    m_inf = _m_inf()
    prev = np.array(form_floats(1, mpmath))
    for m in range(2, 30):
        cur = np.array(form_floats(m, mpmath))
        assert np.linalg.eigvalsh(prev - cur).min() >= -1e-15
        assert np.linalg.eigvalsh(cur - m_inf).min() >= -1e-15
        prev = cur


# measured |ratio - 1| * m at m = 100 and 1000: LL 0.0016, LR 1.005, SS
# 1.009, RR 2.03 (its 1 + 2/m), LS 0.76 and SR 2.3
SLOPE = {(0, 0): 0.002, (0, 2): 1.02, (1, 1): 1.02, (2, 2): 2.05, (0, 1): 1.0, (1, 2): 2.5}
#: how far the difference of two rounded entries, route and limit, may be off
ROUNDING = 3e-16


@pytest.mark.parametrize("m", (10 ** 2, 10 ** 3, 10 ** 4))
def test_approach_to_m_inf_is_the_corner_term(m):
    diff = _production(m) - _m_inf()
    # the m^-2 term on LL, LR, SS and RR; LS and SR are -+1/(16 sqrt2 pi m^3)
    scale = np.where(LEADING != 0, LEADING / m ** 2, 1 / (16 * math.sqrt(2) * math.pi * m ** 3))
    term = scale * np.array([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
    for (i, j), slope in SLOPE.items():
        ratio = diff[i, j] / term[i, j]
        assert abs(ratio - 1) <= slope / m + ROUNDING / abs(term[i, j]), (i, j, ratio)


@pytest.mark.parametrize("m", (10 ** 6, 10 ** 9, 10 ** 400))
def test_far_boundaries_are_answered(m):
    # M_inf + LEADING / m^2 is within about 1e-17 of F_m here; measured:
    # the route is within 8.3e-17 of it
    tail = LEADING / float(m) ** 2 if m < 10 ** 300 else 0.0
    assert np.max(np.abs(_production(m) - (_m_inf() + tail))) <= 1e-15


def test_taylor_coefficients_are_the_corner_asymptotics():
    # c_0 = 0, since R(1) = 0; c_1 and c_2 are the m^-2 and m^-3 terms above
    c = taylor(2)
    assert [e[0] for e in c] == [0] * 6
    assert [e[1] for e in c] == [1, 0, 1, 2, 0, 1]
    assert [e[2] for e in c][1::3] == [Fraction(-1, 2), Fraction(1, 2)]  # LS, SR


def _series_truncation(m):
    """The largest entry distance of the 14-term series to F_m, both exact, at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(1) / (2 * m - 1)
        scale = 1 / (2 * mpmath.sqrt(2) * mpmath.pi)
        worst = 0
        for c, limit, entry in zip(taylor(exact_one_boundary.TERMS), M_INF, exact_form(m)):
            series = evaluate(limit, mpmath) + scale * sum(
                factorial(k) * mpmath.mpf(c[k].numerator) / c[k].denominator * x ** (k + 1)
                for k in range(1, len(c)))
            worst = max(worst, abs(series - evaluate(entry, mpmath)))
        return worst


def test_series_truncation_falls_from_the_switch():
    # measured: 2.8e-18 at m = 16, the first m the series answers, and
    # falling like (2m - 1)^-16, the first term left out; 8.3e-18 at m = 15 and 3.7e-16 at m = 12
    errors = [_series_truncation(m) for m in (15, 16, 17, 20, 30)]
    assert errors[1] <= 3e-18
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_series_meets_the_exact_forms_at_the_switch(monkeypatch):
    # the production series, not the table, read at m = 15 and 16: a table
    # cut before m = 15 makes the route sum the series there too
    forms, m_inf, series = absorb._load_one()
    assert len(forms) == exact_one_boundary.TABLE_M == 15
    monkeypatch.setattr(absorb, "_ONE", (forms[:14], m_inf, series))
    for m in (15, 16):
        assert np.max(np.abs(_production(m) - _exact(m))) <= absorb._ONE_BOUNDARY_ERROR, m


def test_production_decreases_across_the_switch():
    # F_13..F_15 from the table, F_16..F_19 from the series; measured: the
    # least eigenvalue of each step is 1.7e-8 to 8.6e-8
    for m in range(13, 19):
        assert np.linalg.eigvalsh(_production(m) - _production(m + 1)).min() >= -1e-15, m


def _rule(m):
    out = np.empty((3, 3))
    for (i, j), entry in zip(UPPER, rule_form(m)):
        out[i, j] = out[j, i] = entry
    return out


def test_panel_rule_within_1e15_of_the_exact_forms():
    # the 16-node Gauss-Legendre rule, a quadrature with no shared code;
    # measured: every entry within 1.1e-16 for m = 1..400
    worst = max(np.max(np.abs(_rule(m) - _exact(m))) for m in range(1, 401))
    assert worst <= 1e-15


@pytest.mark.parametrize("m", (10 ** 2, 10 ** 4, 10 ** 6))
def test_panel_rule_agrees_with_production_far_out(m):
    # measured: every entry within 8.3e-17 at each m
    assert np.max(np.abs(_rule(m) - _production(m))) <= 2 * absorb._ONE_BOUNDARY_ERROR
