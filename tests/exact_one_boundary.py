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
other solutions grow like (1/q)^k.

In s = -ln y, (y - q)(1/q - y) = e^-s (10 - 2 cosh s), whose square root at
s = 0 is 2 sqrt2, so with n = 2m - 1

    F_m = M_inf + (1/(2 sqrt2 pi)) int_0^ln(1/q) e^(-n s) g(s) ds,
    g(s) = R(e^-s) e^(s/2) (1 - (cosh s - 1)/4)^(-1/2).

Every factor of g is a power series in s with rational coefficients, so
:func:`taylor` returns g's Taylor coefficients c_k in Fractions; c_0 = 0,
since R(1) = 0.  g is analytic for |s| < ln(5 + 2 sqrt6) = 2.29, where
cosh s = 5, so Watson's lemma gives the asymptotic series
F_m - M_inf ~ (1/(2 sqrt2 pi)) sum_k k! c_k / n^(k+1), whose optimal
truncation is about q^n.  Its first terms are the corner asymptotics:
c_1 = 1 on LL, LR and RR and 2 on SS, c_2 = -1/2 on LS and +1/2 on SR.

Run as a script, it writes or checks the table that the package reads:

    python tests/exact_one_boundary.py --write   # regenerate src/groverline/_one_boundary_table.py
    python tests/exact_one_boundary.py --check   # compare it bit for bit

The table holds, each the float nearest its exact value, M_inf, the forms
F_1..F_TABLE_M, and the TERMS series coefficients k! c_k / (2 sqrt2 pi),
k = 1..TERMS, of every entry.  The oracle imports nothing from the package.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

#: the forms the table holds, F_1..F_TABLE_M; farther ones are read from the series
TABLE_M = 15
#: the series terms the table holds, k = 1..TERMS
TERMS = 14
TABLE = Path(__file__).resolve().parents[1] / "src" / "groverline" / "_one_boundary_table.py"
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


def _product(a: list, b: list) -> list:
    """The Cauchy product of two coefficient lists, truncated to their common length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def taylor(order: int) -> tuple[list[Fraction], ...]:
    """g's Taylor coefficients c_0..c_order at s = 0, per entry in UPPER order.

    R(e^-s) e^(s/2) is a sum of exponentials e^((1/2 - p) s), one per power
    p of R, and (1 - u)^(-1/2) = sum_j binom(2j, j) (u/4)^j with
    u = (cosh s - 1)/4 = sum_(j >= 1) s^(2j) / (4 (2j)!).
    """
    u = [Fraction(1, 4 * factorial(k)) if k and k % 2 == 0 else Fraction(0)
         for k in range(order + 1)]
    root, power = [Fraction(0)] * (order + 1), [Fraction(1)] + [Fraction(0)] * order
    for j in range(order // 2 + 1):
        root = [r + Fraction(comb(2 * j, j), 4 ** j) * x for r, x in zip(root, power)]
        power = _product(power, u)
    return tuple(
        _product([sum(c * (Fraction(1, 2) - p) ** k for p, c in laurent.items()) / factorial(k)
                  for k in range(order + 1)], root)
        for laurent in R_LAURENT
    )


def _rounded(value: Fraction, mpmath) -> float:
    """The float nearest value / (2 sqrt2 pi)."""
    digits = len(str(abs(value.numerator))) + len(str(value.denominator))
    with mpmath.workdps(digits + 30):
        return float(mpmath.mpf(value.numerator) / value.denominator
                     / (2 * mpmath.sqrt(2) * mpmath.pi))


def table_entries(mpmath) -> list[float]:
    """The table's rows of six, flat: M_inf, F_1..F_TABLE_M, then k! c_k / (2 sqrt2 pi) per k."""
    out = [float(evaluate(entry, mpmath)) for entry in M_INF]
    for m in range(1, TABLE_M + 1):
        out += [float(evaluate(entry, mpmath)) for entry in exact_form(m)]
    coeffs = taylor(TERMS)
    for k in range(1, TERMS + 1):
        out += [_rounded(factorial(k) * c[k], mpmath) for c in coeffs]
    return out


def render(entries: list[float]) -> str:
    """The source of the generated table module, each entry written with ``float.hex``."""
    lines = [
        '"""One-boundary forms F_1..F_%d and the series of every farther one, correctly rounded.' % TABLE_M,
        "",
        "Generated by ``python tests/exact_one_boundary.py --write`` from the exact",
        "forms and Taylor coefficients of that script; do not edit.  Each line of",
        "the string is one row of six upper-triangle entries (LL, LS, LR, SS, SR,",
        "RR), each the float nearest its exact value, written with ``float.hex``:",
        "M_inf, then F_1..F_%d, then k! c_k / (2 sqrt2 pi) for k = 1..%d, so that" % (TABLE_M, TERMS),
        "F_m ~ M_inf + sum_k SERIES[k - 1] x^(k + 1) with x = 1/(2m - 1).",
        '"""',
        "",
        'ROWS = tuple(map(float.fromhex, """',
    ]
    for i in range(0, len(entries), 6):
        lines.append(" ".join(x.hex() for x in entries[i : i + 6]))
    lines += [
        '""".split()))',
        "M_INF = ROWS[:6]",
        "FORMS = tuple(ROWS[i:i + 6] for i in range(6, %d, 6))" % (6 * TABLE_M + 6),
        "SERIES = tuple(ROWS[i:i + 6] for i in range(%d, %d, 6))" % (6 * TABLE_M + 6, len(entries)),
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"regenerate {TABLE.name}")
    mode.add_argument("--check", action="store_true", help=f"compare {TABLE.name} bit for bit")
    args = parser.parse_args(argv)
    import mpmath

    entries = table_entries(mpmath)
    text = render(entries)
    if args.write:
        TABLE.write_text(text)
        print(f"wrote {TABLE}")
        return 0
    if TABLE.read_text() != text:
        print(f"{TABLE} differs from the exact forms and series; run --write", file=sys.stderr)
        return 1
    print(f"{TABLE.name}: all {len(entries)} entries are the exact values, correctly rounded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
