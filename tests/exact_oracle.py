"""Exact rational strip blocks, and the committed float table made from them.

The strip between absorbing walls at -M and +N has W - 1 interior sites
(W = M + N).  One step, coin then shift, is a real matrix A on the 3(W - 1)
site-major amplitudes, and 3A is an integer matrix (the coin's entries are
-1/3 and 2/3).  So the amplitude absorbed at -M on step t + 1, c_L A^t e for
a start basis vector e, is an integer over 3^(t + 1); :func:`_hits` computes
the integers with Python ints.

Every hit function H(z) = sum_t h_t z^t of the strip is N(z)/D(z) with one
denominator D, D(0) = 1.  Berlekamp-Massey over Q (Massey, IEEE Trans. Inf.
Theory 15, 122, 1969), run on the hits of one generic combination of every
start basis vector, finds it; its order is p = 2W - 2.  The left block is
the Gram matrix of the start site's three hit sequences,
X_jk = sum_t h_t(j) h_t(k) = n_j^T R n_k, where n_j holds the coefficients of
N_j and R is the (p + 1)-square Toeplitz autocovariance of 1/D.  R is an
infinite sum, its inverse is not: by Gohberg and Semencul (Mat. Issled.
7(2), 1972), R^-1 = T_1 T_1^T - T_2 T_2^T, with T_1 and T_2 the lower
triangular Toeplitz matrices whose first columns are (1, d_1, ..., d_p) and
(0, d_p, ..., d_1).  R^-1 depends on the width alone, so it is factored once
per width (LDL^T in Fractions), and each start site costs one exact solve.

X_R(M, N) is X_L(N, M) with the coin order reversed (the site-and-coin
mirror).  The trapped block comes from the flat band in closed form,
P = B G^-1 B^T, with B the W - 2 compactly supported eigenvalue-1 states,
(1, 1/2, 0) on one interior site and (0, 1/2, 1) on the next, and
G = B^T B = tridiag(1/4, 5/2, 1/4).  :func:`exact_blocks` asserts the
ledger X_L + X_R + P = I in Fractions for every geometry it returns.  The
oracle imports nothing from the package.

Run as a script, it writes or checks the table that the package reads:

    python tests/exact_oracle.py --write   # regenerate src/groverline/_strip_table.py
    python tests/exact_oracle.py --check   # compare it bit for bit, and check the clamp

The table holds, for every geometry with M, N <= K = 14, the six
upper-triangle entries of X_L and of P, each the nearest float to the exact
rational (``float(Fraction)`` rounds correctly), written with ``float.hex``.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

#: the depth of the boundary layer the table covers: every geometry with
#: M, N <= K (``absorb._CLAMP``)
K = 14
TABLE = Path(__file__).resolve().parents[1] / "src" / "groverline" / "_strip_table.py"
#: the upper-triangle entries of a symmetric 3x3 block, in table order
UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _hits(width: int, vector: list[int], steps: int) -> list[int]:
    """3^(t + 1) times the amplitude absorbed at the left wall on step t + 1, t < steps.

    ``vector`` is the start state as 3(W - 1) site-major integers (index
    3 * site + coin, coins L, S, R).  3 x the coin is 2 J - 3 I (J all
    ones); then L moves one site left, S stays and R moves one site right,
    and the L amplitude of site 0 leaves the strip at the left wall.
    """
    sites = width - 1
    out = []
    v = list(vector)
    for _ in range(steps):
        new = [0] * (3 * sites)
        for s in range(sites):
            a, b, c = v[3 * s : 3 * s + 3]
            twice = 2 * (a + b + c)
            if s:
                new[3 * s - 3] = twice - 3 * a
            else:
                out.append(twice - 3 * a)
            new[3 * s + 1] = twice - 3 * b
            if s < sites - 1:
                new[3 * s + 5] = twice - 3 * c
        v = new
    return out


def _berlekamp_massey(seq: list[int]) -> list[Fraction]:
    """The shortest connection polynomial (1, c_1, ..., c_L) of ``seq`` over Q."""
    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n, x in enumerate(seq):
        d = x + sum(c[i] * seq[n - i] for i in range(1, length + 1))
        if d == 0:
            shift += 1
            continue
        prev = list(c)
        c += [Fraction(0)] * (len(b) + shift - len(c))
        for i, y in enumerate(b):
            c[i + shift] -= d / last * y
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, prev, d, 1
        else:
            shift += 1
    return c[: length + 1]


class _Width:
    """One width's denominator and factored Gohberg-Semencul inverse."""

    def __init__(self, width: int):
        self.width = width
        size = 3 * (width - 1)
        rng = random.Random(width)
        generic = [rng.randrange(1, 2**32) for _ in range(size)]
        # any sequence of the strip obeys a recurrence of order <= size, so
        # 2 * size terms pin Berlekamp-Massey's answer
        conn = _berlekamp_massey(_hits(width, generic, 2 * size))
        assert all(x.denominator == 1 for x in conn), width
        self.conn = [int(x) for x in conn]  # D in w = z/3: integer coefficients
        self.order = p = len(conn) - 1
        d = [Fraction(x, 3**k) for k, x in enumerate(self.conn)]
        first, second = d, [Fraction(0), *d[:0:-1]]
        inverse = [
            [
                sum(first[i - k] * first[j - k] - second[i - k] * second[j - k]
                    for k in range(j + 1))
                for j in range(i + 1)
            ]
            for i in range(p + 1)
        ]
        # LDL^T of the symmetric R^-1, from its lower triangle
        self.lower = [[Fraction(0)] * i for i in range(p + 1)]
        self.diag = []
        for j in range(p + 1):
            row = self.lower[j]
            self.diag.append(inverse[j][j] - sum(row[k] ** 2 * self.diag[k] for k in range(j)))
            assert self.diag[j] > 0, (width, j)
            for i in range(j + 1, p + 1):
                other = self.lower[i]
                other[j] = (
                    inverse[i][j] - sum(other[k] * row[k] * self.diag[k] for k in range(j))
                ) / self.diag[j]

    def solve(self, rhs: list[Fraction]) -> list[Fraction]:
        """R rhs, that is (R^-1)^-1 rhs, from the factors."""
        y = []
        for i, x in enumerate(rhs):
            y.append(x - sum(a * b for a, b in zip(self.lower[i], y)))
        y = [x / g for x, g in zip(y, self.diag)]
        for i in reversed(range(len(y))):
            y[i] -= sum(self.lower[k][i] * y[k] for k in range(i + 1, len(y)))
        return y

    def x_left(self, m: int) -> list[list[Fraction]]:
        """X_L of geometry (m, W - m): the Gram matrix of its three hit sequences."""
        sites, p = self.width - 1, self.order
        numerators = []
        for coin in range(3):
            start = [0] * (3 * sites)
            start[3 * (m - 1) + coin] = 1
            # D annihilates the sequence if it does so on as many terms as
            # the strip has amplitudes: past t = p the products D * h obey a
            # recurrence of that order themselves
            a = _hits(self.width, start, p + 3 * sites)
            conv = [sum(self.conn[i] * a[t - i] for i in range(min(t, p) + 1))
                    for t in range(len(a))]
            assert not any(conv[p:]), (self.width, m, coin)
            # N's coefficients in z, zero-padded to the size of R
            numerators.append([Fraction(x, 3 ** (t + 1)) for t, x in enumerate(conv[:p])]
                              + [Fraction(0)])
        solved = [self.solve(n) for n in numerators]
        return [[sum(a * b for a, b in zip(nj, rk)) for rk in solved] for nj in numerators]


@functools.lru_cache(maxsize=None)
def _width(width: int) -> _Width:
    return _Width(width)


@functools.lru_cache(maxsize=None)
def x_left(m: int, n: int) -> tuple[tuple[Fraction, ...], ...]:
    """X_L of boundaries at -m and +n, in Fractions."""
    return tuple(map(tuple, _width(m + n).x_left(m)))


def trapped(m: int, n: int) -> list[list[Fraction]]:
    """P's start-site block, B_s G^-1 B_s^T, from the closed-form flat band."""
    flat = m + n - 2
    # G^-1 by Gauss-Jordan on the tridiagonal Gram matrix
    gram = [[Fraction(5, 2) if i == j else Fraction(1, 4) if abs(i - j) == 1 else Fraction(0)
             for j in range(flat)] + [Fraction(int(i == j)) for j in range(flat)]
            for i in range(flat)]
    for j in range(flat):
        pivot = gram[j][j]
        gram[j] = [x / pivot for x in gram[j]]
        for i in range(flat):
            if i != j and gram[i][j]:
                f = gram[i][j]
                gram[i] = [x - f * y for x, y in zip(gram[i], gram[j])]
    inverse = [row[flat:] for row in gram]
    # the start site s = m - 1 carries state s as (1, 1/2, 0), state s - 1 as (0, 1/2, 1)
    s = m - 1
    states = [(k, v) for k, v in ((s, (1, Fraction(1, 2), 0)), (s - 1, (0, Fraction(1, 2), 1)))
              if 0 <= k < flat]
    return [
        [sum(u[i] * inverse[k][l] * v[j] for k, u in states for l, v in states) for j in range(3)]
        for i in range(3)
    ]


def exact_blocks(m: int, n: int):
    """``(X_L, X_R, P)`` of boundaries at -m and +n, with the ledger asserted exactly."""
    left = [list(row) for row in x_left(m, n)]
    mirror = x_left(n, m)
    right = [[mirror[2 - i][2 - j] for j in range(3)] for i in range(3)]
    band = trapped(m, n)
    for i in range(3):
        for j in range(3):
            assert left[i][j] + right[i][j] + band[i][j] == int(i == j), (m, n, i, j)
    return left, right, band


def table_entries(k: int = K) -> list[float]:
    """X_L's and P's upper-triangle entries, correctly rounded, for (m, n) <= (k, k)."""
    out = []
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            left, _, band = exact_blocks(m, n)
            out += [float(block[i][j]) for block in (left, band) for i, j in UPPER]
    return out


def render(entries: list[float], k: int = K) -> str:
    """The source of the generated table module.

    The entries are written with ``float.hex``, which round-trips every
    float, into one string that the module parses with ``float.fromhex``.
    In a process that keeps no bytecode (``PYTHONDONTWRITEBYTECODE``),
    compiling the same entries as a 2352-element tuple literal took 7 ms;
    compiling and parsing the string takes about 1 ms.  Parsing the 2352
    strings takes 0.59 ms with ``float`` on their ``repr`` and 0.35 ms with
    ``float.fromhex`` (best of 7, warm, 2-vCPU x86_64).
    """
    lines = [
        '"""Strip blocks of every geometry (M, N) with M, N <= %d, correctly rounded.' % k,
        "",
        "Generated by ``python tests/exact_oracle.py --write`` from the exact",
        "rational blocks of that script; do not edit.  The string holds two lines",
        "per geometry, (1, 1), (1, 2), ..., (1, %d), (2, 1), ..., (%d, %d): the" % (k, k, k),
        "upper triangle (LL, LS, LR, SS, SR, RR) of X_left, then that of",
        "P_trapped, each the float nearest to the exact rational, written with",
        "``float.hex``.  So the entries of geometry (M, N) are ``BLOCKS[i:i + 12]``",
        "with i = 12 * (%d * (M - 1) + N - 1)." % k,
        '"""',
        "",
        'BLOCKS = tuple(map(float.fromhex, """',
    ]
    for i in range(0, len(entries), 6):
        lines.append(" ".join(x.hex() for x in entries[i : i + 6]))
    lines.append('""".split()))')
    return "\n".join(lines) + "\n"


#: geometries past 2K on which --check holds the clamp, exactly
CLAMP_CHECKS = ((15, 15), (14, 20), (1, 30))
RATE = (3 - 2 * math.sqrt(2)) ** 2


def clamp_error(m: int, n: int, k: int = K) -> Fraction:
    """The largest entry change of the three blocks when (m, n) is read at its clamp."""
    far, near = exact_blocks(m, n), exact_blocks(min(m, k), min(n, k))
    return max(abs(x - y) for a, b in zip(far, near)
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"regenerate {TABLE.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare {TABLE.name} bit for bit and check the clamp")
    args = parser.parse_args(argv)
    text = render(table_entries())
    if args.write:
        TABLE.write_text(text)
        print(f"wrote {TABLE}")
        return 0
    committed = TABLE.read_text()
    if committed != text:
        print(f"{TABLE} differs from the exact blocks; run --write", file=sys.stderr)
        return 1
    print(f"{TABLE.name}: all {12 * K * K} entries are the exact blocks, correctly rounded")
    bound = 0.36 * RATE ** (K - 1)
    for m, n in CLAMP_CHECKS:
        err = clamp_error(m, n)
        print(f"clamp at ({m}, {n}): {float(err):.3g} (bound {bound:.3g})")
        if not err < bound:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
