"""The first-hit series and their read-only coefficient holder."""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from groverline import series
from groverline.series import (
    DIRECT_MAX,
    TruncatedSeries,
    one_boundary_series,
    two_boundary_series,
)
from groverline.genfun import l_closed, r_closed
from groverline.walk import BoundarySpec, CoinSpinor, run_walk

from series_oracle import sweep_series

#: powers of two +- 1 exercise the last, partial doubling of each Newton loop;
#: the orders around DIRECT_MAX and its double run products and inverse passes
#: on both sides of the switch from direct convolution to FFT
ORDERS = (1, 2, 3, 4, 5, 63, 64, 65, DIRECT_MAX - 1, DIRECT_MAX, DIRECT_MAX + 1,
          2 * DIRECT_MAX - 1, 2 * DIRECT_MAX + 1, 1000, 3000)
#: product lengths on both sides of the crossover
CROSSOVER_LENGTHS = (DIRECT_MAX - 1, DIRECT_MAX, DIRECT_MAX + 1,
                     2 * DIRECT_MAX - 1, 2 * DIRECT_MAX + 1)
BAD_COUNTS = (True, False, "3", 3.0, 3.5, None)
BASIS = {"L": CoinSpinor(1, 0, 0), "S": CoinSpinor(0, 1, 0), "R": CoinSpinor(0, 0, 1)}


def first_hit_left(coin, bounds, steps):
    """Simulated left-boundary first-hit amplitudes for a basis start coin."""
    return run_walk(BASIS[coin], bounds, steps).first_hit_left


def first_hit_series(n_right, order):
    """(l, s, r) coefficient arrays; ``n_right=None`` is one boundary."""
    if n_right is None:
        fs = one_boundary_series(order)
    else:
        fs = two_boundary_series(n_right, order)
    return [f.coeffs for f in fs]


def coupled_residual(l, s, r, q):
    """Largest residual of the raw coupled system, products by np.convolve.

        l = -z/3 + (2z/3) s + (2z/3) l q
        s =  2z/3 - (z/3)  s + (2z/3) l q
        r =  2z/3 + (2z/3) s - (z/3)  l q
    """
    n = len(l)
    z = np.zeros(n)
    z[1] = 1.0

    def times_z(x):
        return np.concatenate([[0.0], x[: n - 1]])

    zs, zlq = times_z(s), times_z(np.convolve(l, q)[:n])
    res = (
        l - (-z / 3 + 2 * zs / 3 + 2 * zlq / 3),
        s - (2 * z / 3 - zs / 3 + 2 * zlq / 3),
        r - (2 * z / 3 + 2 * zs / 3 - zlq / 3),
    )
    return max(float(np.max(np.abs(x))) for x in res)


class TestArithmetic:
    def test_immutable(self):
        a = TruncatedSeries([1, 2])
        with pytest.raises((AttributeError, ValueError)):
            a.coeffs = np.zeros(2)
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0

    def test_product_matches_closed_forms_at_point(self):
        l, _, r = one_boundary_series(order=200)
        prod = np.convolve(l.coeffs, r.coeffs)[: l.order + 1]
        z = 0.3
        direct = l_closed(z) * r_closed(z)
        assert abs(polyval(z, prod) - direct) < 1e-10


class TestProductRule:
    """Direct and FFT products agree, whichever side of DIRECT_MAX they fall."""

    @staticmethod
    def both_ways(monkeypatch, fn, *args):
        monkeypatch.setattr(series, "DIRECT_MAX", 1 << 20)
        direct = fn(*args)
        monkeypatch.setattr(series, "DIRECT_MAX", 0)
        return direct, fn(*args)

    @pytest.mark.parametrize("n", CROSSOVER_LENGTHS)
    @pytest.mark.parametrize("len_a, len_b", [(None, None), (None, 7), (10, 20)])
    def test_products_agree(self, monkeypatch, n, len_a, len_b):
        # unit-norm factors, like the amplitudes; (10, 20) leaves the
        # product shorter than n, so its tail is zero padding
        rng = np.random.default_rng(n)
        a, b = (rng.standard_normal(k or n) for k in (len_a, len_b))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        for x, y in ((a, b), (a, a)):
            direct, fft = self.both_ways(monkeypatch, series._mul, x, y, n)
            assert direct.shape == fft.shape == (n,)
            assert np.max(np.abs(direct - fft)) < 1e-15
            want = np.zeros(n)
            full = np.convolve(x, y)[:n]
            want[: len(full)] = full
            assert np.array_equal(direct, want)

    @pytest.mark.parametrize("n", CROSSOVER_LENGTHS)
    def test_inverses_agree(self, monkeypatch, n):
        d = np.array([3.0, 4.0, 2.0])  # a level denominator at s = 0
        direct, fft = self.both_ways(monkeypatch, series._inverse, d, n)
        assert direct.shape == fft.shape == (n,)
        assert np.max(np.abs(direct - fft)) < 1e-15
        assert np.max(np.abs(np.convolve(d, direct)[:n] - np.eye(1, n)[0])) < 1e-15


class TestOneBoundarySeries:
    def test_hand_coefficients(self):
        l, s, r = one_boundary_series(order=4)
        assert l.coeffs[1] == pytest.approx(-1 / 3, abs=1e-15)
        assert l.coeffs[2] == pytest.approx(4 / 9, abs=1e-15)
        assert s.coeffs[1] == pytest.approx(2 / 3, abs=1e-15)
        assert s.coeffs[2] == pytest.approx(-2 / 9, abs=1e-15)
        assert r.coeffs[1] == pytest.approx(2 / 3, abs=1e-15)
        assert l.coeffs[0] == s.coeffs[0] == r.coeffs[0] == 0

    def test_matches_simulator(self):
        l, s, r = one_boundary_series(order=30)
        for coin, f in (("L", l), ("S", s), ("R", r)):
            amps = first_hit_left(coin, BoundarySpec(left=1), 30)
            assert np.allclose(f.coeffs[1:], amps, atol=1e-12)

    def test_recurrence_residual(self):
        # substitute the computed series back into the coupled system
        for order in (60, 1000):
            l, s, r = first_hit_series(None, order)
            assert coupled_residual(l, s, r, r) < 1e-12

    def test_root_of_the_r_quadratic(self):
        # r is the root with r(0) = 0 of 2z(1+z) r^2 - (3+z+z^2+3z^3) r + 2z(1+z)
        _, _, r = first_hit_series(None, 1000)
        n = len(r)
        beta = np.array([0.0, 2.0, 2.0])
        quad = np.convolve(beta, np.convolve(r, r)[:n])[:n]
        quad -= np.convolve([3.0, 1.0, 1.0, 3.0], r)[:n]
        quad[: len(beta)] += beta
        assert np.max(np.abs(quad)) < 1e-12

    def test_matches_walk_at_order_1500(self):
        l, s, r = one_boundary_series(order=1500)
        for coin, f in (("L", l), ("S", s), ("R", r)):
            amps = first_hit_left(coin, BoundarySpec(left=1), 1500)
            assert np.max(np.abs(f.coeffs[1:] - amps)) < 1e-12


class TestTwoBoundarySeries:
    def test_adjacent_right_boundary(self):
        _, _, r = two_boundary_series(1, order=4)
        assert np.allclose(r.coeffs, [0, 2 / 3, 4 / 9, -4 / 27, 4 / 81], atol=1e-15)

    def test_zero_width(self):
        l, s, r = two_boundary_series(0, order=6)
        for f in (l, s, r):
            assert np.allclose(f.coeffs, 0.0)
            assert f.order == 6 and np.all(f.coeffs == 0)

    @pytest.mark.parametrize("n_right", [1, 2, 5, 8])
    def test_recurrence_residual(self, n_right):
        # level n couples to level n - 1's r
        order = 1000
        _, _, q = first_hit_series(n_right - 1, order)
        l, s, r = first_hit_series(n_right, order)
        assert coupled_residual(l, s, r, q) < 1e-12

    def test_matches_walk_at_order_1000(self):
        l, s, r = two_boundary_series(4, order=1000)
        for coin, f in (("L", l), ("S", s), ("R", r)):
            amps = first_hit_left(coin, BoundarySpec(left=1, right=4), 1000)
            assert np.max(np.abs(f.coeffs[1:] - amps)) < 1e-12

    def test_matches_simulator(self):
        for n in range(1, 6):
            l, s, r = two_boundary_series(n, order=30)
            for coin, f in (("L", l), ("S", s), ("R", r)):
                amps = first_hit_left(
                    coin, BoundarySpec(left=1, right=n), 30
                )
                assert np.allclose(f.coeffs[1:], amps, atol=1e-12)

    def test_converges_to_one_boundary(self):
        # a boundary n sites away is invisible until the walker can reach
        # it and come back: coefficients agree exactly for t <= 2n - 1
        l1, s1, r1 = one_boundary_series(order=25)
        for n in (3, 6, 10):
            l2, s2, r2 = two_boundary_series(n, order=25)
            cut = 2 * n - 1
            for a, b in ((l1, l2), (s1, s2), (r1, r2)):
                assert np.allclose(
                    a.coeffs[: cut + 1], b.coeffs[: cut + 1], atol=1e-13
                )


class TestAgainstSweepOracle:
    """The Newton route against the coefficient-by-coefficient sweep."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("n_right", [None, *range(9)])
    def test_agrees_with_sweep(self, n_right, order):
        got = first_hit_series(n_right, order)
        want = sweep_series(n_right, order)
        for g, w in zip(got, want):
            assert g.shape == (order + 1,) and g.dtype == complex
            assert np.max(np.abs(g - w)) < 1e-13
            # constant terms are structural zeros, not rounded ones
            assert g[0] == 0


class TestSeriesValidation:
    """order >= 1 and n_right >= 0 go through the one integer check."""

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_bad_order(self, bad):
        with pytest.raises(ValueError, match="order must be"):
            one_boundary_series(bad)
        with pytest.raises(ValueError, match="order must be"):
            two_boundary_series(2, bad)

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_bad_n_right(self, bad):
        with pytest.raises(ValueError, match="n_right must be"):
            two_boundary_series(bad, 10)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            one_boundary_series(0)
        with pytest.raises(ValueError, match="order must be >= 1"):
            two_boundary_series(1, 0)
        with pytest.raises(ValueError, match="n_right must be >= 0"):
            two_boundary_series(-1, 10)

    def test_numpy_integers_accepted(self):
        want = first_hit_series(3, 20)
        got = [f.coeffs for f in two_boundary_series(np.int64(3), np.int32(20))]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert one_boundary_series(np.int16(4))[0].order == 4


class TestPartialAbsorption:
    """sum_{t >= 1} |c_t|^2, a monotone lower bound of the absorption."""

    def test_zero_series(self):
        c = TruncatedSeries.zeros(10).coeffs
        assert np.sum(np.abs(c[1:]) ** 2) == 0.0

    def test_box_value_converges_fast(self):
        c = two_boundary_series(1, order=40)[2].coeffs
        assert np.sum(np.abs(c[1:]) ** 2) == pytest.approx(2 / 3, abs=1e-15)

    def test_one_boundary_partial_sum(self):
        c = one_boundary_series(order=200)[2].coeffs
        assert np.sum(np.abs(c[1:]) ** 2) == pytest.approx(0.6692653092, abs=5e-3)

    def test_monotone_lower_bound(self):
        c200 = one_boundary_series(order=200)[2].coeffs
        c400 = one_boundary_series(order=400)[2].coeffs
        p200, p400 = (np.sum(np.abs(c[1:]) ** 2) for c in (c200, c400))
        assert p200 <= p400 <= 0.6692653092 + 1e-12
