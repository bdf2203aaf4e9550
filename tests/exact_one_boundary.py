"""Exact one-boundary forms F_m, from moments of y = -l in Fractions.

On the inner arc |theta| < theta_b = arccos(-1/3) the first-hit function l
is real and lies in [-1, -q], q = 5 - 2 sqrt 6, with l + 1/l =
-2(2 + 3 cos theta); on the outer arc |l| = 1.  So with y = -l the
one-boundary form of a boundary m sites to the left is

    F_m = M_inf + (1/pi) int_q^1 R(y) y^(2m - 2) dy / sqrt((y - q)(1/q - y)),

where M_inf, the outer arc's m-independent share, and the Laurent
polynomial R are

    M_inf: LL = 1 - theta_b/pi          R: LL = y (1 - y)
           LS = -1 + (2 sqrt2 + theta_b)/(2 pi)    LS = -(1 - y)^2 / 2
           LR = -1 + (2 sqrt2 + 5 theta_b)/(4 pi)  LR = -(1 - y)(y^2 - 6y + 1)/(4y)
           SS = (2 sqrt2 - theta_b)/pi             SS = 2 (1 - y)
           SR = (5 theta_b - 6 sqrt2)/(4 pi)       SR = (1 - y)^2 / (2y)
           RR = (10 sqrt2 - 7 theta_b)/(4 pi)      RR = (1 - y)/y

The moments J_k = int_q^1 y^k dy / sqrt((y - q)(1/q - y)) obey, by
integration by parts, (k + 1) J_(k+1) = (10k + 5) J_k - k J_(k-1) - 2 sqrt2,
with J_0 = (pi - theta_b)/2 and J_(-1) = (pi + theta_b)/2.  So every J_k is
A pi + B sqrt2 + C theta_b with rational A, B, C, and every entry of F_m is
a + (b sqrt2 + c theta_b)/pi: the pi terms cancel into a.  :func:`exact_form`
returns those triples in Fractions, and :func:`form_floats` the correctly
rounded floats, evaluated in mpmath at enough digits to cover the
cancellation (the rationals grow by about 3.7 digits per m).  The recurrence
is no float route: in floats it loses about a digit per step of k, since its
other solutions grow like (1/q)^k.  The oracle imports nothing from the
package.
"""

from __future__ import annotations

import functools
from fractions import Fraction

#: the upper-triangle entries of a symmetric 3x3 form, in (L, S, R) order
UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: M_inf's entries as (a, b, c), meaning a + (b sqrt2 + c theta_b)/pi, in UPPER order
M_INF = (
    (Fraction(1), Fraction(0), Fraction(-1)),
    (Fraction(-1), Fraction(1), Fraction(1, 2)),
    (Fraction(-1), Fraction(1, 2), Fraction(5, 4)),
    (Fraction(0), Fraction(2), Fraction(-1)),
    (Fraction(0), Fraction(-3, 2), Fraction(5, 4)),
    (Fraction(0), Fraction(5, 2), Fraction(-7, 4)),
)

#: R's entries as {power of y: coefficient}, in UPPER order
R_LAURENT = (
    {1: Fraction(1), 2: Fraction(-1)},
    {0: Fraction(-1, 2), 1: Fraction(1), 2: Fraction(-1, 2)},
    {-1: Fraction(-1, 4), 0: Fraction(7, 4), 1: Fraction(-7, 4), 2: Fraction(1, 4)},
    {0: Fraction(2), 1: Fraction(-2)},
    {-1: Fraction(1, 2), 0: Fraction(-1), 1: Fraction(1, 2)},
    {-1: Fraction(1), 0: Fraction(-1)},
)


@functools.lru_cache(maxsize=None)
def moment(k: int) -> tuple[Fraction, Fraction, Fraction]:
    """J_k as (A, B, C), meaning A pi + B sqrt2 + C theta_b, for k >= -1."""
    if k == -1:
        return Fraction(1, 2), Fraction(0), Fraction(1, 2)
    if k == 0:
        return Fraction(1, 2), Fraction(0), Fraction(-1, 2)
    # fill the cache upwards, so a large k does not recurse k deep
    for j in range(1, k):
        moment(j)
    n = k - 1
    cur, prev = moment(n), moment(n - 1)
    a, b, c = ((10 * n + 5) * x - n * y for x, y in zip(cur, prev))
    return a / k, (b - 2) / k, c / k


def exact_form(m: int) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """F_m's upper-triangle entries as (a, b, c), meaning a + (b sqrt2 + c theta_b)/pi."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = []
    for (a, b, c), laurent in zip(M_INF, R_LAURENT):
        for power, coeff in laurent.items():
            ja, jb, jc = moment(power + 2 * m - 2)
            a, b, c = a + coeff * ja, b + coeff * jb, c + coeff * jc
        out.append((a, b, c))
    return tuple(out)


def evaluate(entry, mpmath, extra_digits: int = 30):
    """a + (b sqrt2 + c theta_b)/pi as an mpf, at enough digits for the cancellation."""
    a, b, c = entry
    digits = max(len(str(abs(x.numerator))) + len(str(x.denominator)) for x in entry)
    with mpmath.workdps(digits + extra_digits):
        theta = mpmath.acos(mpmath.mpf(-1) / 3)
        value = mpmath.mpf(a.numerator) / a.denominator + (
            mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(2)
            + mpmath.mpf(c.numerator) / c.denominator * theta
        ) / mpmath.pi
        return +value


def form_floats(m: int, mpmath) -> list[list[float]]:
    """F_m as a nested list of floats, each entry the float nearest its exact value."""
    upper = [float(evaluate(entry, mpmath)) for entry in exact_form(m)]
    out = [[0.0] * 3 for _ in range(3)]
    for (i, j), value in zip(UPPER, upper):
        out[i][j] = out[j][i] = value
    return out
