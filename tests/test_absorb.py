"""Quadrature, absorption probabilities, and the deficit table.

The high-precision reference values here were frozen from midpoint-rule
circle averages of the closed forms and, at 4 digits, checked against the
simulator.  The scaled deficits are also checked against the independent
30-digit walk of ``tests/test_highprec.py``.
"""

import numpy as np
import pytest

from groverline.absorb import (
    AbsorptionQuery,
    QuadratureSpec,
    ToleranceError,
    _form,
    absorption_answer,
    absorption_matrices,
    integrate_periodic,
    prob_one_boundary,
    prob_two_boundary,
    table1,
    theorem4_crosscheck,
    theorem4_sequence,
)
from groverline.genfun import BranchPointError, r_closed
from groverline.walk import BoundarySpec, CoinSpinor, run_walk

from test_series import BAD_COUNTS

P_ONE_L = 0.4248159326
P_ONE_S = 0.5254692924
P_ONE_R = 0.6692653092
P_TWO_R = 0.0940812419

TABLE_L = [0.1529411765, 0.1616161616, 0.1619106568,
           0.1619197226, 0.1619199936, 0.1619200016]
TABLE_R = [0.4470588235, 0.4343434343, 0.4340077105,
           0.4339982240, 0.4339979488, 0.4339979407]
TABLE_S = [0.6, 0.5959595960, 0.5959183673,
           0.5959179466, 0.5959179423, 0.5959179423]
DEFICIT_1E12 = [4040404040.404, 41228612.657, 420743.496, 4293.748, 43.818]
LOG2_DEFICIT = [31.9119, 25.2971, 18.6826, 12.0680, 5.4535]


class TestIntegratePeriodic:
    def test_constant_trapezoid(self):
        value, err = integrate_periodic(
            lambda t: np.full_like(t, 2.5), QuadratureSpec("trapezoid", 1e-12)
        )
        assert value == pytest.approx(2.5, abs=1e-14)
        assert err == 0.0

    def test_constant_adaptive(self):
        value, err = integrate_periodic(
            lambda t: np.full_like(t, -0.75),
            QuadratureSpec("adaptive-split", 1e-10),
        )
        assert value == pytest.approx(-0.75, abs=1e-12)

    def test_box_series_mass(self):
        # |r(1, e^(i theta))|^2 averages to the total absorbed mass 2/3
        def f(theta):
            z = np.exp(1j * theta)
            return np.abs(2 * z * (1 + z) / (3 + z)) ** 2

        value, _ = integrate_periodic(f, QuadratureSpec("trapezoid", 1e-13))
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_one_boundary_mass(self):
        def f(theta):
            return np.abs(r_closed(np.exp(1j * theta))) ** 2

        value, _ = integrate_periodic(f, QuadratureSpec("adaptive-split", 1e-9))
        assert value == pytest.approx(0.6693, abs=5e-4)

    def test_trapezoid_tolerance_failure_carries_partial(self):
        # a corner keeps the midpoint rule at O(n^-2): with a small node
        # budget the requested tolerance is unreachable
        def corner(theta):
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ToleranceError) as exc_info:
            integrate_periodic(corner, QuadratureSpec("trapezoid", 1e-13, 4096))
        err = exc_info.value
        assert err.value == pytest.approx(2 / np.pi, abs=1e-4)

    def test_adaptive_tolerance_failure(self):
        def f(theta):
            return np.abs(r_closed(np.exp(1j * theta))) ** 2

        with pytest.raises(ToleranceError):
            integrate_periodic(f, QuadratureSpec("adaptive-split", 1e-30))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec("simpson", 1e-10)
        with pytest.raises(ValueError):
            QuadratureSpec("trapezoid", -1e-10)
        with pytest.raises(ValueError):
            QuadratureSpec("trapezoid", 1e-10, 4)


    def test_constant_gauss_split(self):
        value, err = integrate_periodic(
            lambda t: np.ones_like(t), QuadratureSpec("gauss-split", 1e-12)
        )
        assert value == pytest.approx(1.0, abs=1e-14)
        assert err <= 1e-12

    def test_gauss_split_tolerance_failure_is_not_branch_error(self):
        # the order stops at 1024 per piece, before a node comes within
        # genfun's refusal distance of a branch point
        def f(theta):
            return np.abs(r_closed(np.exp(1j * theta))) ** 2

        try:
            integrate_periodic(f, QuadratureSpec("gauss-split", 1e-30))
        except BranchPointError:
            pytest.fail("gauss-split sampled a branch point")
        except ToleranceError as exc:
            assert exc.value == pytest.approx(P_ONE_R, abs=1e-9)
            assert 0 <= exc.error < 1e-12
        else:
            pytest.fail("abs_tol=1e-30 was met")

    def test_gauss_split_needs_room_for_a_second_level(self):
        # 64 nodes fit, the 128 of the second level do not: no estimate
        def f(theta):
            return np.abs(r_closed(np.exp(1j * theta))) ** 2

        with pytest.raises(ToleranceError) as exc_info:
            integrate_periodic(f, QuadratureSpec("gauss-split", 1e-10, 100))
        assert exc_info.value.value == pytest.approx(P_ONE_R, abs=1e-3)

    def test_gauss_split_level_never_exceeds_max_points(self):
        sizes = []

        def f(theta):
            sizes.append(theta.size)
            return np.abs(r_closed(np.exp(1j * theta))) ** 2

        with pytest.raises(ToleranceError):
            integrate_periodic(f, QuadratureSpec("gauss-split", 1e-30, 1000))
        assert sizes == [64, 128, 256, 512]

    def test_trapezoid_tolerance_failure_carries_last_difference(self):
        means = []

        def corner(theta):
            means.append(float(np.mean(np.abs(np.sin(theta / 2)))))
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ToleranceError) as exc_info:
            integrate_periodic(corner, QuadratureSpec("trapezoid", 1e-13, 4096))
        assert exc_info.value.value == means[-1]
        assert exc_info.value.error == abs(means[-1] - means[-2])

    def test_trapezoid_needs_room_for_a_second_level(self):
        # 64 nodes fit, the 128 of the second level do not: no estimate
        sizes = []

        def f(theta):
            sizes.append(theta.size)
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ToleranceError) as exc_info:
            integrate_periodic(f, QuadratureSpec("trapezoid", 1e-10, 100))
        assert sizes == [64]
        assert exc_info.value.value == pytest.approx(2 / np.pi, abs=1e-3)

    @pytest.mark.parametrize("max_points,expected", [
        (16, []),
        (63, []),
        (1000, [64, 128, 256, 512]),
        (1024, [64, 128, 256, 512, 1024]),
    ])
    def test_trapezoid_level_never_exceeds_max_points(self, max_points, expected):
        sizes = []

        def f(theta):
            sizes.append(theta.size)
            return np.abs(np.sin(theta / 2))

        with pytest.raises(ToleranceError):
            integrate_periodic(f, QuadratureSpec("trapezoid", 1e-30, max_points))
        assert sizes == expected

    def test_spec_rejects_non_finite_tol_and_non_integer_max_points(self):
        for tol in (float("inf"), float("nan"), True, "1e-3", None, 1e-3j):
            with pytest.raises(ValueError, match="abs_tol"):
                QuadratureSpec("trapezoid", tol)
        for points in (1e6, 2.0 ** 20, True, "4096"):
            with pytest.raises(ValueError, match="max_points"):
                QuadratureSpec("trapezoid", 1e-10, points)
        assert QuadratureSpec("trapezoid", 1e-10, np.int64(4096)).max_points == 4096


def _gauss_split_spinors():
    rng = np.random.default_rng(20140527)
    spinors = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(3):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        spinors.append(tuple(v / np.linalg.norm(v)))
    return spinors


class TestGaussSplit:
    """The default one-boundary route against scipy's adaptive quadrature."""

    SPINORS = _gauss_split_spinors()
    ADAPTIVE = QuadratureSpec("adaptive-split", 1e-10)
    GAUSS = QuadratureSpec("gauss-split", 1e-10)

    def test_is_the_one_boundary_default(self):
        psi = self.SPINORS[-1]
        assert prob_one_boundary(4, psi) == prob_one_boundary(4, psi, self.GAUSS)
        ans = absorption_answer(AbsorptionQuery(psi, left=4))
        assert ans.p_left == prob_one_boundary(4, psi, self.GAUSS)

    @pytest.mark.parametrize("m", range(1, 16))
    def test_agrees_with_adaptive_split(self, m):
        for psi in self.SPINORS:
            ans = absorption_answer(AbsorptionQuery(psi, left=m))
            assert ans.error_estimate <= self.GAUSS.abs_tol
            ref = prob_one_boundary(m, psi, self.ADAPTIVE)
            assert ans.p_left == pytest.approx(ref, abs=1e-11), psi

    @pytest.mark.parametrize("m", (1, 3, 9))
    def test_right_boundary_mirrors(self, m):
        for psi in self.SPINORS:
            right = absorption_answer(AbsorptionQuery(psi, right=m))
            left = prob_one_boundary(m, psi[::-1])
            assert right.p_right == left


class TestOneBoundary:
    def test_basis_values(self):
        assert prob_one_boundary(1, (1, 0, 0)) == pytest.approx(P_ONE_L, abs=1e-9)
        assert prob_one_boundary(1, (0, 1, 0)) == pytest.approx(P_ONE_S, abs=1e-9)
        assert prob_one_boundary(1, (0, 0, 1)) == pytest.approx(P_ONE_R, abs=1e-9)

    def test_receded_boundary_drop(self):
        # moving the boundary from -1 to -2 collapses absorption by ~7x:
        # the trapped component stops draining
        p2 = prob_one_boundary(2, (0, 0, 1))
        assert p2 == pytest.approx(P_TWO_R, abs=1e-9)
        assert p2 < 0.15 * prob_one_boundary(1, (0, 0, 1))

    def test_monotone_in_distance(self):
        values = [prob_one_boundary(m, (0, 0, 1)) for m in range(1, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_simulator_lower_bound(self):
        report = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=2), 2000)
        quad = prob_one_boundary(2, (0, 0, 1))
        assert report.cumulative_left <= quad + 1e-12
        assert quad - report.cumulative_left < 2e-3

    def test_right_side_mirror(self):
        def p_right(psi):
            return absorption_answer(AbsorptionQuery(psi, right=1)).p_right

        assert p_right((1, 0, 0)) == pytest.approx(P_ONE_R, abs=1e-9)
        assert p_right((0, 1, 0)) == pytest.approx(P_ONE_S, abs=1e-9)
        sym = (1 / np.sqrt(3),) * 3
        assert prob_one_boundary(1, sym) == pytest.approx(p_right(sym), abs=1e-11)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prob_one_boundary(0, (0, 0, 1))
        with pytest.raises(ValueError):
            prob_one_boundary(1, (0.5, 0, 0))


class TestTwoBoundary:
    def test_table_row_one(self):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=2, right=1))
        assert ans.p_left == pytest.approx(TABLE_L[0], abs=1e-9)
        assert ans.p_right == pytest.approx(TABLE_R[0], abs=1e-9)
        assert ans.total == pytest.approx(0.6, abs=1e-9)
        # row 1 is exactly rational: 13/85 and 38/85
        assert ans.p_left == pytest.approx(13 / 85, abs=1e-12)
        assert ans.p_right == pytest.approx(38 / 85, abs=1e-12)

    def test_box_value(self):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=1))
        assert ans.p_left == pytest.approx(2 / 3, abs=1e-12)
        assert ans.p_right == pytest.approx(1 / 3, abs=1e-12)
        assert ans.deficit == pytest.approx(0.0, abs=1e-12)

    def test_table_row_six(self):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=2, right=6))
        assert ans.p_left == pytest.approx(TABLE_L[5], abs=1e-9)
        assert ans.p_right == pytest.approx(TABLE_R[5], abs=1e-9)

    def test_conservation_by_construction(self):
        query = AbsorptionQuery((0, 0, 1), left=3, right=2)
        ans = prob_two_boundary(query)
        assert ans.total == ans.p_left + ans.p_right
        # the exact route's deficit is the directly computed trapped mass;
        # the ledger residual bounds how far it is from 1 - total
        assert ans.deficit == ans.trapped
        assert abs(ans.total + ans.deficit - 1.0) <= ans.error_estimate + 1e-16
        quad = prob_two_boundary(query, QuadratureSpec("trapezoid", 1e-12))
        assert quad.total == quad.p_left + quad.p_right
        assert quad.total + quad.deficit == 1.0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 20), (20, 40)])
    def test_exact_answer_is_the_forms_of_the_matrices(self, m, n):
        # reading the cached blocks in place changes no bit of the answer
        psi = _gauss_split_spinors()[-1]
        ans = prob_two_boundary(AbsorptionQuery(psi, left=m, right=n))
        p_left, p_right, trapped = (_form(x, psi) for x in absorption_matrices(m, n))
        assert (ans.p_left, ans.p_right, ans.trapped) == (p_left, p_right, trapped)

    def test_deficit_is_never_negative_when_nothing_is_trapped(self):
        # at (1, 5), coin R, total rounds to 1 + 7e-16, so 1 - total < 0
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=5))
        assert 1.0 - ans.total < 0
        assert 0.0 <= ans.deficit == ans.trapped < 1e-30

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw /= np.linalg.norm(raw)
        a, b, g = (complex(c) for c in raw)
        fwd = prob_two_boundary(AbsorptionQuery((a, b, g), left=3, right=2))
        rev = prob_two_boundary(AbsorptionQuery((g, b, a), left=2, right=3))
        assert fwd.p_right == pytest.approx(rev.p_left, abs=1e-13)
        assert fwd.p_left == pytest.approx(rev.p_right, abs=1e-13)

    def test_monotone_in_right_distance(self):
        values = [
            prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=n)).p_left
            for n in range(1, 7)
        ]
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))

    def test_deficit_matches_simulator_residual(self):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=2, right=2))
        report = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=2, right=2), 2000)
        assert report.residual_norm == pytest.approx(ans.deficit, abs=5e-3)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            AbsorptionQuery((0, 0, 1))
        with pytest.raises(ValueError):
            AbsorptionQuery((0, 0, 1), left=-1, right=2)
        with pytest.raises(ValueError):
            AbsorptionQuery((1, 1, 1), left=1)


class TestInputValidation:
    """One validator behind every entry point; each case passed before it."""

    NAN_SPINOR = (float("nan"), 0, 1)

    def test_query_rejects_nan_spinor(self):
        with pytest.raises(ValueError, match="finite"):
            AbsorptionQuery(self.NAN_SPINOR, left=1, right=2)

    def test_one_boundary_rejects_nan_spinor(self):
        with pytest.raises(ValueError, match="finite"):
            prob_one_boundary(1, self.NAN_SPINOR)
        with pytest.raises(ValueError, match="finite"):
            AbsorptionQuery(self.NAN_SPINOR, right=1)

    def test_one_boundary_rejects_fractional_distance(self):
        with pytest.raises(ValueError, match="integer"):
            prob_one_boundary(2.5, (0, 0, 1))
        for m in (0.0, np.float64(0.0), 1.0):
            with pytest.raises(ValueError, match="integer"):
                AbsorptionQuery((0, 0, 1), right=m)
        numpy_int = absorption_answer(AbsorptionQuery((0, 0, 1), right=np.int64(1)))
        assert numpy_int.p_right == absorption_answer(
            AbsorptionQuery((0, 0, 1), right=1)
        ).p_right

    def test_bool_boundary_rejected(self):
        for kwargs in ({"left": True}, {"right": True}, {"left": 1, "right": False}):
            with pytest.raises(ValueError, match="integer"):
                AbsorptionQuery((0, 0, 1), **kwargs)
        with pytest.raises(ValueError, match="integer"):
            BoundarySpec(left=True)

    def test_fractional_two_boundary_is_value_error(self):
        with pytest.raises(ValueError, match="integer"):
            AbsorptionQuery((0, 0, 1), left=2.5, right=2)

    def test_numpy_integer_boundary_accepted(self):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=np.int64(1), right=1))
        assert ans.p_left == pytest.approx(2 / 3, abs=1e-12)
        assert BoundarySpec(left=np.int64(2)).left == 2

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_counts_go_through_the_one_check(self, bad):
        with pytest.raises(ValueError, match="max_n must be"):
            theorem4_sequence(bad)
        with pytest.raises(ValueError, match="max_n must be"):
            table1(bad)
        with pytest.raises(ValueError, match="n must be"):
            theorem4_crosscheck(bad)

    def test_numpy_integer_counts_accepted(self):
        assert np.array_equal(theorem4_sequence(np.int64(4)), theorem4_sequence(4))
        assert len(table1(np.int32(2))) == 2


class TestDispatch:
    def test_two_boundary_query(self):
        ans = absorption_answer(AbsorptionQuery((0, 0, 1), left=1, right=1))
        assert ans.p_left is not None and ans.p_right is not None

    def test_left_only(self):
        ans = absorption_answer(AbsorptionQuery((0, 0, 1), left=1))
        assert ans.p_right is None
        assert ans.p_left == pytest.approx(P_ONE_R, abs=1e-9)
        assert ans.deficit == pytest.approx(1 - P_ONE_R, abs=1e-9)

    def test_right_only(self):
        ans = absorption_answer(AbsorptionQuery((1, 0, 0), right=1))
        assert ans.p_left is None
        assert ans.p_right == pytest.approx(P_ONE_R, abs=1e-9)

    def test_trapped_only_on_the_exact_route(self):
        query = AbsorptionQuery((0, 0, 1), left=2, right=3)
        exact = absorption_answer(query)
        p_trapped = absorption_matrices(2, 3)[2][2, 2]
        assert exact.trapped == pytest.approx(p_trapped, abs=1e-15)
        assert exact.deficit == exact.trapped
        assert exact.deficit == pytest.approx(1.0 - exact.total, abs=1e-12)
        spec = QuadratureSpec("trapezoid", 1e-12)
        assert absorption_answer(query, spec).trapped is None
        assert absorption_answer(AbsorptionQuery((0, 0, 1), left=2)).trapped is None
        assert absorption_answer(AbsorptionQuery((0, 0, 1), right=2)).trapped is None


class TestTheorem4:
    def test_seed_and_first_step(self):
        seq = theorem4_sequence(1)
        assert seq[0] == 0.0
        assert seq[1] == pytest.approx(2 / 3, abs=1e-12)

    def test_fixed_point(self):
        seq = theorem4_sequence(25)
        assert seq[25] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        # monotone approach; strictly so until double precision saturates
        assert np.all(np.diff(seq) >= 0)
        assert np.all(np.diff(seq[:8]) > 0)

    def test_crosscheck_against_quadrature(self):
        for n in range(1, 11):
            assert theorem4_crosscheck(n) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem4_sequence(-1)
        with pytest.raises(ValueError):
            theorem4_crosscheck(0)


@pytest.fixture(scope="module")
def rows():
    return table1(max_n=6)


class TestTable1:
    def test_ten_digit_probabilities(self, rows):
        for i, row in enumerate(rows):
            assert row.left == pytest.approx(TABLE_L[i], abs=1e-9)
            assert row.right == pytest.approx(TABLE_R[i], abs=1e-9)
            assert row.total == pytest.approx(TABLE_S[i], abs=1e-9)

    def test_scaled_deficits(self, rows):
        # agree with the 30-digit walk of tests/test_highprec.py
        for i in range(5):
            assert rows[i].deficit_scaled == pytest.approx(
                DEFICIT_1E12[i], abs=0.05
            )
            assert rows[i].log2_deficit == pytest.approx(
                LOG2_DEFICIT[i], abs=1e-3
            )
        assert rows[5].deficit_scaled is None
        assert rows[5].log2_deficit is None

    def test_rational_first_row(self, rows):
        assert rows[0].deficit_scaled == pytest.approx(2 / 495 * 1e12, abs=0.05)

    def test_geometric_decay_of_deficit(self, rows):
        logs = [r.log2_deficit for r in rows[:5]]
        diffs = np.diff(logs)
        assert np.max(np.abs(diffs - diffs.mean())) < 0.15

    def test_precision_flags(self, rows):
        assert all(r.precision_ok for r in rows)
        assert all(r.error_estimate <= 1e-12 for r in rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            table1(max_n=1)
