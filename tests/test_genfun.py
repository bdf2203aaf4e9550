"""Closed forms, branch bookkeeping, and the transfer-matrix identities."""

import numpy as np
import pytest

from groverline.genfun import (
    BRANCH_ANGLES,
    BRANCH_POINTS,
    BranchPointError,
    PoleError,
    delta,
    delta_on_circle,
    l_closed,
    lsr_from_previous,
    r_closed,
    r_iterates,
    s_closed,
)
from groverline.series import one_boundary_series, two_boundary_series
from groverline.absorb import theorem4_sequence

from genfun_oracle import (
    OMEGA,
    BranchTrace,
    check_contraction,
    check_prop8,
    check_prop10,
    lambda_pm,
    r_closed_two_boundary,
    r_closed_uncorrected,
    two_boundary_eval,
)


def taylor_coeffs(f, n_terms: int, radius: float = 0.5, n_samples: int = 256):
    """Cauchy coefficient extraction by FFT on a circle of given radius."""
    ks = np.arange(n_samples)
    zs = radius * np.exp(2j * np.pi * ks / n_samples)
    vals = f(zs)
    coeffs = np.fft.fft(vals) / n_samples
    return coeffs[:n_terms] / radius ** np.arange(n_terms)


class TestDelta:
    def test_reference_points(self):
        assert delta(1.0) == pytest.approx(np.sqrt(24), abs=1e-13)
        assert delta(0.0) == pytest.approx(3.0, abs=1e-15)
        assert delta(-1.0) == pytest.approx(np.sqrt(12), abs=1e-13)

    def test_branch_points_on_circle(self):
        for bp in BRANCH_POINTS:
            assert abs(abs(bp) - 1.0) < 1e-13
            assert abs(9 + 6 * bp + 9 * bp * bp) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointError):
            delta(BRANCH_POINTS[0])

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            delta(1.5)

    def test_square_identity_inside(self):
        rng = np.random.default_rng(3)
        zs = rng.uniform(-0.7, 0.7, 300) + 1j * rng.uniform(-0.7, 0.7, 300)
        d = delta(zs)
        assert np.max(np.abs(d * d - (9 + 6 * zs + 9 * zs * zs))) < 1e-12

    def test_square_identity_on_circle(self):
        theta = np.linspace(0.01, 2 * np.pi - 0.01, 500)
        z = np.exp(1j * theta)
        d = delta_on_circle(theta)
        assert np.max(np.abs(d * d - (9 + 6 * z + 9 * z * z))) < 1e-12

    def test_continuity_selection_along_circle(self):
        # adjacent samples within one arc pick the nearer root
        for lo, hi in (
            (0.0, BRANCH_ANGLES[0] - 1e-6),
            (BRANCH_ANGLES[0] + 1e-6, BRANCH_ANGLES[1] - 1e-6),
            (BRANCH_ANGLES[1] + 1e-6, 2 * np.pi),
        ):
            theta = np.linspace(lo, hi, 400)
            d = delta_on_circle(theta)
            assert np.all(np.abs(np.diff(d)) < np.abs(d[1:] + d[:-1]))

    def test_matches_interior_limit(self):
        # the on-circle branch is the radial limit of the disk branch
        theta = np.linspace(0.05, 2 * np.pi - 0.05, 97)
        theta = theta[np.min(np.abs(theta[:, None] - np.array(BRANCH_ANGLES)), axis=1) > 0.05]
        on = delta_on_circle(theta)
        inside = delta((1 - 1e-8) * np.exp(1j * theta))
        assert np.max(np.abs(on - inside)) < 1e-6

    @pytest.mark.parametrize(
        "f", [delta, delta_on_circle, l_closed, s_closed, r_closed],
        ids=lambda f: f.__name__,
    )
    def test_empty_in_empty_out(self, f):
        for shape in ((0,), (0, 3)):
            out = f(np.zeros(shape))
            assert out.shape == shape and out.dtype == complex

    @pytest.mark.parametrize(
        "f", [delta, delta_on_circle, l_closed, s_closed, r_closed],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 0)],
        ids=repr,
    )
    def test_non_finite_point_rejected(self, f, bad):
        # refused before any arithmetic, so no RuntimeWarning fires first
        for point in (bad, np.array([0.5, bad]), np.array([[0.0], [bad]])):
            with pytest.raises(ValueError, match="finite"):
                f(point)
        if f is not delta and f is not delta_on_circle:
            with pytest.raises(ValueError, match="finite"):
                f(bad, dl=3.0)

    def test_complex_angle_rejected(self):
        with pytest.raises(ValueError, match="real angles"):
            delta_on_circle(0.5j)
        with pytest.raises(ValueError, match="real angles"):
            delta_on_circle(np.array([0.0, 1.0 + 1e-3j]))
        # real angles of every kind keep working
        for theta in (0, 0.0, np.float64(0.0), np.array(0.0), 0.0 + 0j):
            assert delta_on_circle(theta) == pytest.approx(np.sqrt(24), abs=1e-13)
        assert delta_on_circle([0.0, np.pi]) == pytest.approx(
            [np.sqrt(24), np.sqrt(12)], abs=1e-13
        )

    def test_trace_agrees_with_arc_formula(self):
        trace = BranchTrace.build(n=512)
        direct = delta_on_circle(trace.theta_grid)
        assert np.max(np.abs(trace.values - direct)) < 1e-12
        assert trace.resolve(0.3) == pytest.approx(delta_on_circle(0.3), abs=1e-12)


class TestClosedForms:
    def test_maclaurin_matches_series(self):
        l, s, r = one_boundary_series(order=20)
        for f, srs in ((l_closed, l), (s_closed, s), (r_closed, r)):
            got = taylor_coeffs(f, 21)
            assert np.allclose(got, srs.coeffs, atol=1e-9)

    def test_leading_coefficients(self):
        cl = taylor_coeffs(l_closed, 3)
        cs = taylor_coeffs(s_closed, 3)
        cr = taylor_coeffs(r_closed, 3)
        assert cl[1] == pytest.approx(-1 / 3, abs=1e-12)
        assert cl[2] == pytest.approx(4 / 9, abs=1e-12)
        assert cs[1] == pytest.approx(2 / 3, abs=1e-12)
        assert cs[2] == pytest.approx(-2 / 9, abs=1e-12)
        assert cr[1] == pytest.approx(2 / 3, abs=1e-12)
        assert abs(cr[0]) < 1e-12

    def test_sign_regression_uncorrected_form(self):
        # the +2z variant picks up a spurious constant term: first-hit
        # series must start at t = 1, so this documents the correction
        cu = taylor_coeffs(r_closed_uncorrected, 2)
        assert abs(cu[0] - 1.0) < 1e-12
        assert r_closed_uncorrected(0.0) == pytest.approx(1.0, abs=0)
        assert r_closed(0.0) == pytest.approx(0.0, abs=0)

    def test_algebraic_identities(self):
        rng = np.random.default_rng(17)
        zs = 0.99 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 100)
        )
        l = l_closed(zs)
        assert np.max(np.abs(r_closed(zs) - (l + zs) / (1 + zs * l))) < 1e-11
        assert np.max(np.abs(s_closed(zs) - (l + zs) / (1 + zs))) < 1e-11

    def test_z_zero_series_limits(self):
        assert l_closed(0.0) == 0.0
        assert s_closed(0.0) == 0.0
        assert r_closed(0.0) == 0.0


class TestTwoBoundaryEval:
    def test_adjacent(self):
        z = np.array([0.2, 0.5 + 0.1j, -0.4])
        _, _, r = two_boundary_eval(1, z)
        assert np.allclose(r, 2 * z * (1 + z) / (3 + z), atol=1e-14)

    def test_zero_width(self):
        l, s, r = two_boundary_eval(0, 0.37)
        assert l == s == r == 0.0

    def test_converges_to_one_boundary(self):
        zs = 0.5 * np.exp(2j * np.pi * np.linspace(0, 1, 17, endpoint=False))
        _, _, r40 = two_boundary_eval(40, zs)
        assert np.max(np.abs(r40 - r_closed(zs))) < 1e-10

    def test_maclaurin_matches_series(self):
        for n in range(1, 6):
            ls, ss, rs = two_boundary_series(n, order=20)
            for pick, srs in ((0, ls), (1, ss), (2, rs)):
                got = taylor_coeffs(lambda z: two_boundary_eval(n, z)[pick], 21)
                assert np.allclose(got, srs.coeffs, atol=1e-9)

    def test_pole_guard(self):
        # z = 1 makes the widening denominator vanish for the k=1 step
        # seeded with r_prev = r(1, 1) = 1
        with pytest.raises(PoleError):
            lsr_from_previous(np.array([1.0 + 0j]), np.array([1.0 + 0j]))


class TestTransferMatrix:
    def test_product_identity(self):
        rng = np.random.default_rng(23)
        zs = rng.uniform(-0.9, 0.9, 200) + 1j * rng.uniform(-0.9, 0.9, 200)
        lp, lm = lambda_pm(zs)
        assert np.max(np.abs(lp * lm - zs * zs * (1 - zs) ** 2)) < 1e-12

    def test_sum_identity(self):
        zs = np.array([0.3, -0.2 + 0.4j, 0.9j])
        lp, lm = lambda_pm(zs)
        tr = (3 + zs) - (zs ** 2 + 3 * zs ** 3)
        assert np.allclose(lp + lm, tr, atol=1e-13)

    def test_at_zero(self):
        lp, lm = lambda_pm(0.0)
        assert lp == pytest.approx(3.0, abs=1e-15)
        assert lm == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_matches_iteration(self):
        rng = np.random.default_rng(29)
        zs = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 100)
        )
        for n in range(1, 11):
            direct = r_closed_two_boundary(n, zs)
            iterated = r_iterates(n, zs)[-1]
            assert np.max(np.abs(direct - iterated)) < 1e-10

    def test_closed_form_point_value(self):
        # n = 1, z = 0.5: 2z(1+z)/(3+z) = 1.5/3.5 = 3/7
        assert r_closed_two_boundary(1, 0.5) == pytest.approx(3 / 7, abs=1e-14)

    def test_zero_width_is_zero(self):
        assert r_closed_two_boundary(0, 0.5) == 0.0


class TestRIterates:
    def test_levels_start_at_zero(self):
        assert len(r_iterates(0, 0.5)) == 1
        assert r_iterates(0, 0.5)[0] == 0
        assert r_iterates(1, 0.5)[1] == pytest.approx(3 / 7, abs=1e-15)

    @pytest.mark.parametrize("max_k", ["3", 2.5, True, -1])
    def test_rejects_bad_max_k(self, max_k):
        with pytest.raises(ValueError, match="max_k"):
            r_iterates(max_k, 0.5)


class TestReflectionIdentity:
    def test_on_circle_points(self):
        rng = np.random.default_rng(31)
        theta = rng.uniform(0.02, 2 * np.pi - 0.02, 50)
        zs = np.exp(1j * theta)
        for n in range(1, 7):
            assert np.max(check_prop8(n, zs)) < 1e-10

    def test_degenerate_cases(self):
        assert check_prop8(0, np.array([np.exp(0.7j)]))[0] == pytest.approx(0.0, abs=0)
        # z = 1 is regular for the adjacent strip: r(1,1) = 1 on both sides
        assert check_prop8(1, 1.0 + 0j) < 1e-12

    def test_z_one_pole_is_guarded_for_wider_strips(self):
        # beyond n = 1 the widening step at z = 1 is a removable 0/0;
        # the iteration refuses it instead of emitting garbage
        with pytest.raises(PoleError):
            check_prop8(2, 1.0 + 0j)


class TestOmegaPoint:
    def test_omega_is_root(self):
        assert abs(3 * OMEGA ** 2 - 2 * OMEGA + 3) < 1e-14

    def test_purely_imaginary_and_matches_recurrence(self):
        seq = theorem4_sequence(10)
        for n in range(1, 11):
            re_part, pn = check_prop10(n)
            assert abs(re_part) < 1e-12
            assert pn == pytest.approx(seq[n], abs=1e-12)

    def test_first_value(self):
        _, p1 = check_prop10(1)
        assert p1 == pytest.approx(2 / 3, abs=1e-14)


class TestContraction:
    def test_origin(self):
        assert check_contraction(0.0, 0.0) == 0.0

    def test_sample_value(self):
        # w=0, z=0.9: |2 * 0.9 * 1.9 / 3.9|
        assert check_contraction(0.0, 0.9) == pytest.approx(3.42 / 3.9, abs=1e-13)

    def test_strict_on_bidisk(self):
        rng = np.random.default_rng(37)
        n = 10_000
        ws = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        zs = np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        ws *= 0.999999
        zs *= 0.999999
        vals = np.array([check_contraction(w, z) for w, z in zip(ws, zs)])
        assert np.all(vals < 1.0)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            check_contraction(1.0, 0.5)
        with pytest.raises(ValueError):
            check_contraction(0.5, 1.2)
