"""The committed strip table against the exact rational oracle.

``tests/exact_oracle.py`` computes every strip block in Fractions
(Berlekamp-Massey and the Gohberg-Semencul inverse for X_left, the
closed-form flat band for P_trapped) and asserts the ledger
X_left + X_right + P_trapped = I exactly.  Here its values are pinned
against exact numbers with other derivations, and the table and the
production blocks are checked to be its values correctly rounded, bit for
bit, on every geometry of width <= 12; the CI's full-table step
(``python tests/exact_oracle.py --check``) covers all K^2 geometries.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import exact_oracle
from groverline import _strip_table, absorb, absorption_matrices
from groverline._strip_table import BLOCKS

K = absorb._CLAMP
SMALL_WIDTHS = range(2, 13)


def test_table_covers_the_clamped_geometries():
    # the oracle writes the module the package reads, for K = _CLAMP
    assert exact_oracle.K == K
    assert len(BLOCKS) == 12 * K * K
    assert Path(_strip_table.__file__).resolve() == exact_oracle.TABLE


def test_table1_left_entries_are_exact():
    # Table 1 (left boundary at 2, coin R): X_left's R-R entry at right
    # boundaries 1-4, 0.1529411765, 0.1616161616, 0.1619106568, 0.1619197226
    entries = [exact_oracle.x_left(2, n)[2][2] for n in range(1, 5)]
    assert entries == [Fraction(13, 85), Fraction(16, 99), Fraction(45777, 282730),
                       Fraction(1760848, 10874821)]
    # row 1's right side, X_right(2, 1) = X_left(1, 2) coin-reversed
    assert exact_oracle.exact_blocks(2, 1)[1][2][2] == Fraction(38, 85)


def test_width_five_left_block():
    x = exact_oracle.x_left(2, 3)
    assert x[0] == (Fraction(12507, 28273), Fraction(-13523, 56546), Fraction(1, 49))
    assert x[1][1:] == (Fraction(466097, 1130920), Fraction(33907, 565460))
    assert x[2][2] == Fraction(45777, 282730)
    assert all(x[i][j] == x[j][i] for i in range(3) for j in range(3))


def test_box_blocks():
    # one interior site: coin R sends 2/3 of the mass left, 1/3 right
    left, right, band = exact_oracle.exact_blocks(1, 1)
    assert left[2] == [0, Fraction(1, 3), Fraction(2, 3)]
    assert right[2] == [0, Fraction(-1, 3), Fraction(1, 3)]
    assert band == [[0] * 3] * 3


@pytest.mark.parametrize("n", range(1, K + 1))
def test_theorem4_and_table1_recurrences(n):
    # boundary adjacent on the left, coin R: X_left's R-R entry is Theorem
    # 4's p_n, p_(k+1) = (2 + 3 p_k)/(3 + 4 p_k), p_0 = 0; with the left
    # boundary at 2 the trapped mass of coin R is t_n,
    # t_(k+1) = 16/(40 - t_k), t_0 = 0
    p, t = Fraction(0), Fraction(0)
    for _ in range(n):
        p, t = (2 + 3 * p) / (3 + 4 * p), 16 / (40 - t)
    assert exact_oracle.x_left(1, n)[2][2] == p
    assert exact_oracle.exact_blocks(2, n)[2][2][2] == t


def test_denominator_order():
    # one recurrence of order 2W - 2 for every hit sequence of the strip
    for width in SMALL_WIDTHS:
        assert exact_oracle._width(width).order == 2 * width - 2


@pytest.mark.parametrize("width", SMALL_WIDTHS)
def test_table_is_the_exact_blocks_correctly_rounded(width):
    # every geometry of the width: the table's twelve entries are float()
    # of the oracle's Fractions, bit for bit, and so are the production
    # blocks, X_right included (exact_blocks asserts the exact ledger)
    for m in range(1, width):
        n = width - m
        exact = exact_oracle.exact_blocks(m, n)
        i = 12 * (K * (m - 1) + n - 1)
        want = [float(b[r][c]).hex() for b in (exact[0], exact[2]) for r, c in exact_oracle.UPPER]
        assert [x.hex() for x in BLOCKS[i : i + 12]] == want, (m, n)
        for got, block in zip(absorption_matrices(m, n), exact):
            assert [x.hex() for x in got.ravel()] == [float(x).hex() for row in block for x in row]

