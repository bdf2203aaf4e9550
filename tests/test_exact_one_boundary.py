"""The one-boundary form route against its exact oracle and its asymptotics.

``exact_one_boundary.py`` computes F_m exactly, as a + (b sqrt2 +
c theta_b)/pi per entry, from the moment recurrence in Fractions.  The
production route, ``absorb._one_boundary_form``, is a fixed 16-node rule in
y = -l, and is held to it entry by entry.  For large m, Watson's lemma at
the branch corner y = 1 gives F_m - M_inf = Re(g_b g_b^H)/(8 sqrt2 pi m^2)
+ O(m^-3), with g_b = (-1, sqrt2 i, -1) the first-hit functions (l, s, r)
at the branch point; LS and SR vanish at that order and are
-+1/(16 sqrt2 pi m^3).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import groverline.absorb as absorb
from groverline import prob_one_boundary

from exact_one_boundary import M_INF, UPPER, evaluate, exact_form, form_floats

mpmath = pytest.importorskip("mpmath")

#: Re(g_b g_b^H) / (8 sqrt2 pi), g_b = (-1, sqrt2 i, -1)
LEADING = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0]]) / (8 * math.sqrt(2) * math.pi)


def _production(m):
    """The production form of distance m, expanded from its six upper-triangle floats."""
    out = np.empty((3, 3))
    for (i, j), entry in zip(UPPER, absorb._one_boundary_form(m)):
        out[i, j] = out[j, i] = entry
    return out


def _m_inf():
    out = np.empty((3, 3))
    for (i, j), entry in zip(UPPER, M_INF):
        out[i, j] = out[j, i] = float(evaluate(entry, mpmath))
    return out


def test_production_within_1e15_of_the_exact_forms():
    # measured: every entry within 1.2e-16 for m = 1..400
    worst = 0.0
    for m in range(1, 401):
        worst = max(worst, np.max(np.abs(_production(m) - np.array(form_floats(m, mpmath)))))
    assert worst <= 1e-15


def test_m_inf_matches_the_exact_limit():
    # measured: every entry within 8.3e-17 of the correctly rounded limit
    assert np.max(np.abs(absorb._M_INF - [_m_inf()[i, j] for i, j in UPPER])) <= 1.2e-16


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
