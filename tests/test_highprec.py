"""Independent high-precision oracles: the finite-line deficit table, and one-boundary constants.

A plain mpmath walk that shares no code with ``groverline``: the coin
G = (2/3)J - I acts on the (L, S, R) components of every site, then L moves
one site left, S stays and R moves one site right.  The walk starts at 0 in
coin R; sites -2 and +N absorb after every step.  At 30 digits it runs until
the mass absorbed in one step falls below 1e-32, for N = 1..6.  That leaves
about 15 significant digits in the scaled deficit p(N) = (s_N - s_{N+1}) *
1e12 where double precision leaves about 5 at p(5) ~ 4.4e-11, so it settles
which of the package and the published table is right at N = 4 and N = 5.

The same file checks, by 40-digit quadrature of the printed closed forms,
the constants the exact one-boundary oracle (``exact_one_boundary.py``)
rests on: the outer arc's limit M_inf and the recurrence's first moments.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")

from exact_one_boundary import M_INF, evaluate, moment  # noqa: E402
from exact_one_boundary import UPPER as UPPER_ONE  # noqa: E402
from test_absorb import DEFICIT_1E12, LOG2_DEFICIT  # noqa: E402
from test_acceptance import (  # noqa: E402
    PUBLISHED_DEFICIT,
    PUBLISHED_LOG2,
    REF_DEFICIT,
    REF_DEFICIT_TOL,
    REF_L,
    REF_LOG2,
    REF_LOG2_TOL,
    REF_R,
    REF_S,
)

LEFT = 2  # the left boundary sits at -LEFT
MAX_N = 6
DPS = 30
CUTOFF = "1e-32"


def _absorption(n):
    """Return the (left, right) absorbed mass of the walk between -LEFT and +n."""
    width = LEFT + n - 1  # interior sites -LEFT+1 .. n-1
    zero = mpmath.mpf(0)
    two_thirds = mpmath.mpf(2) / 3
    cutoff = mpmath.mpf(CUTOFF)
    # coin and start are real, so every amplitude stays real
    amp = [[zero] * 3 for _ in range(width)]
    amp[LEFT - 1][2] = mpmath.mpf(1)
    left = right = zero
    t = 0
    while True:
        t += 1
        new = [[zero] * 3 for _ in range(width)]
        hit_left = hit_right = zero
        for i, (a_l, a_s, a_r) in enumerate(amp):
            mean = two_thirds * (a_l + a_s + a_r)
            b_l, b_s, b_r = mean - a_l, mean - a_s, mean - a_r
            if i == 0:
                hit_left = b_l * b_l
            else:
                new[i - 1][0] = b_l
            new[i][1] = b_s
            if i == width - 1:
                hit_right = b_r * b_r
            else:
                new[i + 1][2] = b_r
        amp = new
        left += hit_left
        right += hit_right
        # before step LEFT + n one boundary may be out of reach and absorb
        # nothing, so the cutoff only ends the walk after that
        if t > width and hit_left + hit_right < cutoff:
            return left, right


@pytest.fixture(scope="module")
def oracle():
    with mpmath.workdps(DPS):
        sides = [_absorption(n) for n in range(1, MAX_N + 1)]
        totals = [l + r for l, r in sides]
        deficits = [(totals[i] - totals[i + 1]) * mpmath.mpf(10) ** 12
                    for i in range(MAX_N - 1)]
        return {
            "left": [float(l) for l, _ in sides],
            "right": [float(r) for _, r in sides],
            "total": [float(s) for s in totals],
            "deficit": [float(d) for d in deficits],
            "log2": [float(mpmath.log(d, 2)) for d in deficits],
        }


def test_probabilities_match_ten_digit_columns(oracle):
    for i in range(MAX_N):
        assert oracle["left"][i] == pytest.approx(REF_L[i], abs=1e-9)
        assert oracle["right"][i] == pytest.approx(REF_R[i], abs=1e-9)
        assert oracle["total"][i] == pytest.approx(REF_S[i], abs=1e-9)


def test_deficits_match_table1(oracle, table1_rows):
    for i in range(MAX_N - 1):
        assert table1_rows[i].deficit_scaled == pytest.approx(
            oracle["deficit"][i], abs=0.01
        )


def test_deficits_match_frozen_values(oracle):
    for i in range(MAX_N - 1):
        assert oracle["deficit"][i] == pytest.approx(DEFICIT_1E12[i], abs=0.05)
        assert oracle["log2"][i] == pytest.approx(LOG2_DEFICIT[i], abs=1e-3)


def test_deficits_match_acceptance_reference(oracle):
    for i in range(MAX_N - 1):
        assert abs(oracle["deficit"][i] - REF_DEFICIT[i]) <= REF_DEFICIT_TOL[i]
        assert abs(oracle["log2"][i] - REF_LOG2[i]) <= REF_LOG2_TOL[i]


def test_published_entries_contradict_oracle(oracle):
    for n, published in PUBLISHED_DEFICIT.items():
        assert abs(oracle["deficit"][n - 1] - published) > REF_DEFICIT_TOL[n - 1]
    # the log2 deficit falls by the same step from every N to the next; the
    # published N = 4 and N = 5 entries break that step
    steps = [a - b for a, b in zip(oracle["log2"], oracle["log2"][1:])]
    assert max(steps) - min(steps) < 1e-3
    published_step = PUBLISHED_LOG2[4] - PUBLISHED_LOG2[5]
    assert abs(published_step - steps[-1]) > 1
    # the published ten-digit totals cannot resolve p(5) at all
    assert REF_S[4] == REF_S[5]
    # the published log2 at N = 4 is that of 4292, so it carries the same error
    assert math.log2(PUBLISHED_DEFICIT[4]) == pytest.approx(
        PUBLISHED_LOG2[4], abs=1e-4
    )


# --- the one-boundary constants, by 40-digit quadrature -------------------
#
# The exact one-boundary oracle (exact_one_boundary.py) rests on two
# integrals it does not compute: the outer arc's limit M_inf, and the first
# moments J_0 = (pi - theta_b)/2 and J_(-1) = (pi + theta_b)/2 of its
# recurrence.  Each is checked here against an mpmath quadrature at 40
# digits that uses only the printed closed forms.

ONE_DPS = 40


def _outer_arc_limit():
    """(1/2pi) int Re(g g^H) dtheta over theta_b < |theta| < pi, g = (l, s, r)."""
    corner = mpmath.acos(mpmath.mpf(-1) / 3)

    def g(t):
        z = mpmath.expj(t)
        d = -mpmath.expj((t + mpmath.pi) / 2) * mpmath.sqrt(-6 * (1 + 3 * mpmath.cos(t)))
        return (
            (-3 - 4 * z - 3 * z * z + (1 + z) * d) / (2 * z),
            (-3 - z + d) / (2 * z),
            (3 - 2 * z + 3 * z * z + (z - 1) * d) / (4 * z),
        )

    def entry(i, j, u):
        # theta = corner + (pi - corner) u^2 smooths the square-root corner
        t = corner + (mpmath.pi - corner) * u * u
        l_s_r = g(t)
        return mpmath.re(l_s_r[i] * mpmath.conj(l_s_r[j])) * 2 * (mpmath.pi - corner) * u

    # theta and -theta give conjugate (l, s, r), so Re(g g^H) is even
    out = {(i, j): mpmath.quad(lambda u: entry(i, j, u), [0, 1]) / mpmath.pi for i, j in UPPER_ONE}
    return out, g


def test_outer_arc_limit_matches_m_inf():
    with mpmath.workdps(ONE_DPS):
        limit, g = _outer_arc_limit()
        # |l| = 1 on the outer arc, so the arc's share does not depend on m
        assert abs(abs(g(mpmath.mpf(2))[0]) - 1) < mpmath.mpf(10) ** -38
        for (i, j), entry in zip(UPPER_ONE, M_INF):
            exact = evaluate(entry, mpmath, ONE_DPS + 20)
            assert abs(limit[i, j] - exact) < mpmath.mpf(10) ** -38, (i, j)


def test_first_moments_match_their_closed_forms():
    with mpmath.workdps(ONE_DPS):
        q = 5 - 2 * mpmath.sqrt(6)
        mid, half = (q + 1 / q) / 2, (1 / q - q) / 2
        # y = mid - half cos(t) takes dy / sqrt((y - q)(1/q - y)) to dt
        end = mpmath.acos((mid - 1) / half)
        for k in (-1, 0, 1, 2, 7):
            got = mpmath.quad(lambda t: (mid - half * mpmath.cos(t)) ** k, [0, end])
            # J_k = A pi + B sqrt2 + C theta_b = pi (A + (B sqrt2 + C theta_b)/pi)
            want = mpmath.pi * evaluate(moment(k), mpmath, ONE_DPS + 20)
            assert abs(got - want) < mpmath.mpf(10) ** -38, k
