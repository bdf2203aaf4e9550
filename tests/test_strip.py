"""The exact finite-strip route against the circle quadrature and itself.

``absorption_matrices`` answers two-boundary queries from the committed
table of correctly rounded blocks (``tests/exact_oracle.py`` makes it and
pins it, in ``tests/test_exact_oracle.py``); ``prob_two_boundary`` with an
explicit ``QuadratureSpec`` still runs the independent circle
quadrature, which is the reference here,
``strip_oracle`` keeps the dense construction with one SVD and one scipy
Stein solve per side, an 80-bit construction with no LAPACK call and a
float mirror-split Stein solve, and
theorem4's recurrence run in ``Fraction`` gives one block entry exactly.
Every route reads a geometry at its boundary-layer clamp
(min(M, K), min(N, K)); the clamp is held to the 80-bit reference, to a
float solve of the unclamped width, and to the per-site rate it rests on.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from groverline import absorb
from groverline.absorb import (
    AbsorptionQuery,
    QuadratureSpec,
    absorption_matrices,
    absorption_profile,
    prob_one_boundary,
    prob_two_boundary,
)
from groverline import _strip_table
from strip_oracle import (
    dense_absorption_matrices,
    longdouble_strip_blocks,
    mirror_doubling,
    mirror_strip_blocks,
)
from test_series import BAD_COUNTS

SWEEP = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 6, 8, 10, 12)]
J = np.eye(3)[::-1]  # reverses the coin order (L, S, R) -> (R, S, L)
REFERENCE_WIDTHS = [*range(2, 41), 50, 60]
K = absorb._CLAMP
RATE = (3 - 2 * math.sqrt(2)) ** 2  # Theorem 4's multiplier at 1/sqrt(2)
#: the upper triangle (LL, LS, LR, SS, SR, RR) of a 3x3 block, the order of
#: each block of a strip row and of the one-boundary form
UPPER = np.triu_indices(3)
EXTENDED = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the 80-bit reference needs an extended-precision np.longdouble",
)


def random_spinors(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        out.append(tuple(complex(c) for c in v / np.linalg.norm(v)))
    return out


def form(x, spinor):
    psi = np.asarray(spinor, dtype=complex)
    return float(np.real(np.conj(psi) @ x @ psi))


@pytest.mark.parametrize("m,n", SWEEP)
def test_agrees_with_quadrature(m, n):
    spec = QuadratureSpec("trapezoid", 1e-13)
    for spinor in random_spinors(100 * m + n, 3):
        query = AbsorptionQuery(spinor, left=m, right=n)
        exact = prob_two_boundary(query)
        quad = prob_two_boundary(query, spec)
        assert exact.p_left == pytest.approx(quad.p_left, abs=1e-11)
        assert exact.p_right == pytest.approx(quad.p_right, abs=1e-11)


@pytest.mark.parametrize("width", range(1, 9))
def test_kernel_dimension(width):
    # the strip operator depends only on the width M + N - 1, so the start
    # blocks of P over all start sites add up to the trace of the whole
    # projection onto ker(A - I), which is its dimension M + N - 2
    traces = [np.trace(absorption_matrices(m, width + 1 - m)[2])
              for m in range(1, width + 1)]
    assert sum(traces) == pytest.approx(width - 1, abs=1e-12)


@pytest.mark.parametrize("n", [8, 12, 20])
def test_trapped_mass_tends_to_4q(n):
    # start in coin R two sites right of the boundary at -2: as the right
    # boundary recedes the trapped mass tends to the flat band's 4q =
    # 20 - 8 sqrt(6), q = 5 - 2 sqrt(6), its gap shrinking by q^2 per site
    q = 1 / (5 + 2 * np.sqrt(6))
    assert absorption_matrices(2, n)[2][2, 2] == pytest.approx(4 * q, abs=1e-14)


def exact_theorem4(max_n):
    # theorem4_sequence's recurrence p_next = (2 + 3p) / (3 + 4p), in Fraction
    p = [Fraction(0)]
    for _ in range(max_n):
        p.append((2 + 3 * p[-1]) / (3 + 4 * p[-1]))
    return p


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 40, 59, 79])
def test_start_entry_is_the_exact_recurrence(n):
    # boundary adjacent on the left, coin R: X_left's R-R entry is p_n
    # exactly; the table holds p_n correctly rounded for n <= K, measured
    # at most 4.8e-17 off over n = 1..79 (n >= K reads p_K)
    exact = exact_theorem4(n)[n]
    assert abs(absorption_matrices(1, n)[0][2, 2] - float(exact)) < 5e-14


def test_strip_limit_is_not_the_half_line():
    # p_n tends to the recurrence's fixed point 1/sqrt(2), but a single
    # boundary one site left absorbs only 0.6692653092 of coin R: the
    # receding right boundary does not give back the half-line
    assert abs(absorption_matrices(1, 80)[0][2, 2] - 1 / math.sqrt(2)) < 1e-13
    assert prob_one_boundary(1, (0, 0, 1)) == pytest.approx(0.6692653092, abs=1e-10)


# a quarter turn (eigenvalues +-i, squared exactly) beside a decaying mode
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])


@pytest.mark.parametrize(
    "a,q,message",
    [
        ((1.01 * np.eye(3),) * 2, np.eye(3), "non-finite increment"),
        ((np.full((3, 3), np.nan),) * 2, np.eye(3), "non-finite increment"),
        ((0.5 * np.eye(3),) * 2, np.full((3, 3), np.nan), "non-finite increment"),
        ((np.eye(3),) * 2, np.eye(3), "did not converge in 64 doublings"),
        # a unit-modulus pair in the even sector, a strictly stable odd one:
        # the sum's increments vanish, but only the powers certify both
        (
            (QUARTER_TURN, 0.5 * np.eye(2)),
            np.ones((3, 2)),
            "did not converge in 64 doublings",
        ),
    ],
)
def test_stein_doubling_fails_fast(a, q, message):
    b_even, b_odd = a
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=message):
        mirror_doubling(b_even, b_odd, q)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("m,n", SWEEP)
def test_ledger_and_mirror(m, n):
    x_left, x_right, trapped = absorption_matrices(m, n)
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-12
    for x in (x_left, x_right, trapped):
        assert np.array_equal(x, x.T)
        assert np.min(np.linalg.eigvalsh(x)) > -1e-12
    mirror_left, mirror_right, mirror_trapped = absorption_matrices(n, m)
    assert np.max(np.abs(x_right - J @ mirror_left @ J)) < 1e-12
    assert np.max(np.abs(x_left - J @ mirror_right @ J)) < 1e-12
    assert np.max(np.abs(trapped - J @ mirror_trapped @ J)) < 1e-12


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 12), (5, 20)])
def test_trapped_form_is_the_deficit(m, n):
    trapped = absorption_matrices(m, n)[2]
    for spinor in random_spinors(7 * m + n, 3):
        answer = prob_two_boundary(AbsorptionQuery(spinor, left=m, right=n))
        assert form(trapped, spinor) == pytest.approx(answer.deficit, abs=1e-12)
        assert answer.error_estimate < 1e-12


def test_box_has_no_trapped_mass():
    x_left, x_right, trapped = absorption_matrices(1, 1)
    assert np.array_equal(trapped, np.zeros((3, 3)))
    # coin R: one step sends 2/3 of the mass left, 1/3 right
    assert x_left[2, 2] == pytest.approx(2 / 3, abs=1e-15)
    assert x_right[2, 2] == pytest.approx(1 / 3, abs=1e-15)


def test_wide_strip_is_fast():
    # the circle quadrature took minutes here (16.8M integrand nodes)
    t0 = time.perf_counter()
    x_left, x_right, trapped = absorption_matrices(20, 40)
    assert time.perf_counter() - t0 < 5.0
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-12


def test_validation():
    for m, n in ((0, 1), (1, -2), (True, 2), (2.5, 3)):
        with pytest.raises(ValueError):
            absorption_matrices(m, n)
    for width in (1, 0, -3, 2.5, 4.0, "5", *BAD_COUNTS):
        with pytest.raises(ValueError, match="width"):
            absorption_profile(width)
    assert absorption_profile(np.int64(4))[0].shape == (3, 3, 3)


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(1, 9) for n in range(1, 9)]
    + [pytest.param(20, 40, marks=EXTENDED)],
)
def test_agrees_with_dense_oracle(m, n):
    oracle = dense_absorption_matrices(m, n)
    # at (20, 40) the oracle's own SVD rounding (2.3e-13 from the 80-bit
    # blocks) exceeds the bound, so the blocks are held to the 80-bit
    # reference there instead
    wide = (m, n) == (20, 40)
    reference = longdouble_strip_blocks(m + n)[:, m - 1] if wide else oracle
    for x, y in zip(absorption_matrices(m, n), reference):
        assert np.max(np.abs(x - y)) < 1e-13
    # the mirror that supplies X_right, checked on the oracle's own direct
    # solves: X_R(m, n) = J X_L(n, m) J
    oracle_left_mirrored = dense_absorption_matrices(n, m)[0]
    assert np.max(np.abs(oracle[1] - J @ oracle_left_mirrored @ J)) < 1e-13


@pytest.mark.parametrize("width", [2, 3, 7, 15, 16, 28, 29, 40, 300])
def test_profile_is_every_start_site(width):
    x_left, x_right, trapped = absorption_profile(width)
    assert x_left.shape == x_right.shape == trapped.shape == (width - 1, 3, 3)
    total = x_left + x_right + trapped
    assert np.max(np.abs(total - np.eye(3))) < 1e-12
    for s in range(width - 1):
        single = absorption_matrices(s + 1, width - 1 - s)
        for x, y in zip((x_left[s], x_right[s], trapped[s]), single):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("width", [2, 3, 7, 40, 300])
def test_cache_is_one_read_only_array(width):
    profile = np.stack(absorption_profile(width))
    assert profile.shape == (3, width - 1, 3, 3)
    assert np.array_equal(profile, profile.transpose(0, 1, 3, 2))
    # X_right is X_left's site-and-coin mirror, to the bit
    assert np.array_equal(profile[1], profile[0][::-1, ::-1, ::-1])
    # every block is read from one read-only flat tuple of floats, twelve
    # entries per clamped geometry, through that geometry's prebuilt row of
    # 18: the upper triangles of X_left, X_right and P_trapped
    table = _strip_table.BLOCKS
    assert type(table) is tuple and len(table) == 12 * K * K
    assert {type(x) for x in table} == {float}
    assert type(absorb._ROWS) is tuple and len(absorb._ROWS) == K * K
    for s in range(width - 1):
        m, n = clamped(s + 1, width - 1 - s)
        row = absorb._ROWS[K * (m - 1) + n - 1]
        assert [list(x[UPPER]) for x in profile[:, s]] == [list(row[i:i + 6]) for i in (0, 6, 12)]
        i = 12 * (K * (m - 1) + n - 1)
        assert list(row[:6]) + list(row[12:]) == list(table[i : i + 12])


def test_returned_blocks_do_not_alias_the_cache():
    spinor = random_spinors(11, 1)[0]
    queries = [AbsorptionQuery(spinor, left=m, right=7 - m) for m in range(1, 7)]
    before = [prob_two_boundary(q) for q in queries]
    cached = np.stack(absorption_profile(7))
    rows = [absorb._ROWS[K * (m - 1) + 6 - m] for m in range(1, 7)]
    copies = [list(row) for row in rows]
    # the rows are tuples of floats: nothing can write into them
    assert all(type(row) is tuple and {type(x) for x in row} == {float} for row in rows)
    returned = absorption_matrices(3, 4) + absorption_profile(7)
    assert [b.shape for b in returned] == [(3, 3)] * 3 + [(6, 3, 3)] * 3
    for block in returned:
        assert block.flags.writeable
        block[...] = 7.0
    assert [prob_two_boundary(q) for q in queries] == before
    now = [absorb._ROWS[K * (m - 1) + 6 - m] for m in range(1, 7)]
    assert all(a is b for a, b in zip(now, rows))
    assert [list(row) for row in now] == copies
    assert all(np.array_equal(b, c) for b, c in zip(absorption_profile(7), cached))


def test_cold_solve_reproduces_cached_answer(monkeypatch):
    geometries = [(1, 1), (2, 5), (6, 3), (20, 40)]
    cached = [absorption_matrices(m, n) for m, n in geometries]
    loaded = absorb._ROWS
    monkeypatch.setattr(absorb, "_ROWS", None)
    for (m, n), before in zip(geometries, cached):
        after = absorption_matrices(m, n)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
    # the reload builds new rows equal to the old ones
    assert absorb._ROWS is not loaded and absorb._ROWS == loaded


@EXTENDED
@pytest.mark.parametrize("width", REFERENCE_WIDTHS)
def test_longdouble_reference_is_exact(width):
    # the 80-bit reference pins its own accuracy: its ledger at every start
    # site (measured at most 8.3e-17, at width 60), and its boundary-adjacent
    # R-R entry against theorem4's recurrence in Fraction
    ref = longdouble_strip_blocks(width)
    assert np.max(np.abs(ref.sum(axis=0) - np.eye(3, dtype=np.longdouble))) < 1e-16
    entry = Fraction(*ref[0, 0, 2, 2].as_integer_ratio())
    assert abs(entry - exact_theorem4(width - 1)[width - 1]) < 1e-16


@EXTENDED
@pytest.mark.parametrize("width", REFERENCE_WIDTHS)
def test_agrees_with_longdouble_reference(width):
    # every start site, clamped above width K + 1; measured at most 5.2e-17
    blocks = np.stack(absorption_profile(width))
    assert np.max(np.abs(blocks - longdouble_strip_blocks(width))) < 2e-14


def test_trapped_blocks_match_svd_kernel():
    # the closed-form band against the numerical kernel of the dense
    # oracle's SVD of A - I; measured 3.3e-16
    trapped = absorption_matrices(20, 40)[2]
    assert np.max(np.abs(trapped - dense_absorption_matrices(20, 40)[2])) < 1e-14


def test_strip_solve_needs_no_svd(monkeypatch):
    # the float mirror-split solve of strip_oracle
    def no_svd(*args, **kwargs):
        raise AssertionError("the strip solve called an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    x_left, x_right, trapped = mirror_strip_blocks(25)
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-12


def test_strip_solve_needs_no_factorization(monkeypatch):
    # the band's projection takes one linear solve and the rest is matrix
    # products: no QR, SVD or eigendecomposition
    def refuse(*args, **kwargs):
        raise AssertionError("the strip solve called a matrix factorization")

    for name in ("qr", "svd", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    x_left, x_right, trapped = mirror_strip_blocks(25)
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-12


def test_production_strip_route_runs_no_linear_algebra(monkeypatch, cold_strip_rows):
    # every two-boundary production path answers cold, the table module
    # imported anew, with numpy's solvers and factorizations refused
    def refuse(*args, **kwargs):
        raise AssertionError("a two-boundary production path ran numpy.linalg")

    for name in ("solve", "svd", "qr", "eig", "eigh", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.delitem(sys.modules, "groverline._strip_table", raising=False)
    answer = prob_two_boundary(AbsorptionQuery((0.6, 0.8j, 0), left=5, right=20))
    assert answer.error_estimate < 1e-15
    x_left, x_right, trapped = absorption_matrices(3, 4)
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-15
    profile = absorption_profile(300)
    assert np.max(np.abs(sum(profile) - np.eye(3))) < 1e-15
    rows = absorb.table1()
    assert all(row.precision_ok for row in rows)
    assert "groverline._strip_table" in sys.modules


def test_clamp_depth_follows_from_the_rate():
    # the clamp's truncation error at K is about 0.36 * RATE^(K - 1) (pinned
    # in the 80-bit reference below); K is the least K that puts it below 1e-20
    assert 0.36 * RATE ** (K - 1) < 1e-20 <= 0.36 * RATE ** (K - 2)


def clamped(m, n, k=K):
    return min(m, k), min(n, k)


@EXTENDED
@pytest.mark.parametrize("width", range(2, 61))
def test_clamp_agrees_with_longdouble_reference(width):
    # every geometry of the width, read at its clamped geometry; measured at
    # most 5.2e-17
    ref = longdouble_strip_blocks(width)
    for m in range(1, width):
        for x, y in zip(absorption_matrices(m, width - m), ref[:, m - 1]):
            assert np.max(np.abs(x - y)) < 1e-15


@EXTENDED
@pytest.mark.parametrize("k", [6, 8])
def test_clamp_error_is_geometric_in_the_depth(k):
    # in the 80-bit reference alone: clamping at depth k moves the blocks
    # by 0.3546 * RATE^(k - 1) at k = 6 and 0.3537 * RATE^(k - 1) at k = 8,
    # the largest change over every geometry of widths 2-40
    worst = max(
        float(np.max(np.abs(
            longdouble_strip_blocks(w)[:, m - 1]
            - longdouble_strip_blocks(sum(clamped(m, w - m, k)))[:, min(m, k) - 1]
        )))
        for w in range(2, 41)
        for m in range(1, w)
    )
    assert 0.3 * RATE ** (k - 1) < worst < 0.36 * RATE ** (k - 1)


@EXTENDED
@pytest.mark.parametrize("m", [1, 3, 8])
def test_blocks_forget_the_wall_at_the_theorem4_rate(m):
    # the step d_N = X(m, N + 1) - X(m, N) of all three blocks, Frobenius
    # norm: d_(N+1) / d_N within 2% of RATE for N = 3..9 (measured 0.65% off
    # at N = 3, 0.08% at N = 4, below 0.01% from N = 6)
    def block(n):
        return longdouble_strip_blocks(m + n)[:, m - 1]

    steps = [float(np.sqrt(np.sum((block(n + 1) - block(n)) ** 2))) for n in range(3, 11)]
    for n, (a, b) in enumerate(zip(steps, steps[1:]), start=3):
        assert b / a == pytest.approx(RATE, rel=0.02), n


@pytest.mark.parametrize("width", range(61, 201))
def test_clamp_agrees_with_the_unclamped_solve(width):
    # the left edge layer against a float solve of the whole width (the
    # right one is its mirror); measured at most 9.1e-15 (width 200), the
    # float solve's own drift, which grows with the width
    direct = mirror_strip_blocks(width)
    for m in range(1, K + 1):
        for x, y in zip(absorption_matrices(m, width - m), direct[:, m - 1]):
            assert np.max(np.abs(x - y)) < 2e-14


def test_no_strip_wider_than_2k_is_solved(monkeypatch, cold_strip_rows):
    # no geometry past the clamp is read from the table, and the rows of
    # every clamped geometry are built once, in one load
    built, loads = [], []
    load = absorb._load_rows

    class Reads(tuple):
        def __getitem__(self, i):
            built.append(tuple(x + 1 for x in divmod(i, K)))
            return super().__getitem__(i)

    def spy():
        loads.append(1)
        return Reads(load())

    monkeypatch.setattr(absorb, "_load_rows", spy)
    x_left, x_right, trapped = absorption_matrices(60, 120)
    assert np.max(np.abs(x_left + x_right + trapped - np.eye(3))) < 1e-12
    profile = absorption_profile(300)
    assert [b.shape for b in profile] == [(299, 3, 3)] * 3
    answer = prob_two_boundary(AbsorptionQuery((0.6, 0.8j, 0), left=20, right=40))
    assert abs(answer.total + answer.trapped - 1) < 1e-12
    assert built and max(m + n for m, n in built) <= 2 * K
    assert loads == [1] and len(absorb._ROWS) == K * K
    # the profile's edge geometries (m, K) and (K, n), widths K + 1..2K
    assert sorted({m + n for m, n in built}) == list(range(K + 1, 2 * K + 1))
    assert set(built) == {(m, K) for m in range(1, K + 1)} | {(K, n) for n in range(1, K + 1)}


def test_cache_holds_at_most_2k_minus_1_widths(cold_strip_rows):
    for width in (*range(2, 81), 150, 300):
        absorption_profile(width)
        for m in (1, K - 1, K, K + 1, width // 2):
            if m < width:
                absorption_matrices(m, width - m)
    # the rows are one tuple of the K^2 clamped geometries, each a flat
    # tuple of 18 floats, so they span at most the 2K - 1 widths 2..2K
    rows = absorb._ROWS
    assert type(rows) is tuple and len(rows) == K * K
    for row in rows:
        assert type(row) is tuple and len(row) == 18
        assert {type(x) for x in row} == {float}
    filled = [divmod(i, K) for i in range(len(rows))]
    assert len({m + n + 2 for m, n in filled}) == 2 * K - 1
