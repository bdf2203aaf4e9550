"""Quadrature, absorption probabilities, and the deficit table.

The high-precision reference values here were frozen from midpoint-rule
circle averages of the closed forms and, at 4 digits, checked against the
simulator.  The scaled deficits are also checked against the independent
30-digit walk of ``tests/test_highprec.py``.
"""

import dataclasses
import gc
import inspect
import math
import pickle
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

import groverline.absorb as absorb
from groverline.absorb import (
    AbsorptionAnswer,
    AbsorptionQuery,
    QuadratureSpec,
    ToleranceError,
    _strip_forms,
    absorption_answer,
    absorption_matrices,
    integrate_periodic,
    prob_one_boundary,
    prob_two_boundary,
    table1,
    theorem4_sequence,
)
from groverline._strip_table import BLOCKS
from groverline.genfun import r_closed
from groverline.walk import BoundarySpec, CoinSpinor, WindowWalk, run_walk, validate_input

from test_series import BAD_COUNTS
from test_strip import UPPER

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
        # no corner-mapped Gauss-Legendre method: one boundary reads its form
        with pytest.raises(ValueError, match="unknown quadrature method 'gauss-split'"):
            QuadratureSpec("gauss-split", 1e-10)
        with pytest.raises(ValueError):
            QuadratureSpec("trapezoid", -1e-10)
        with pytest.raises(ValueError):
            QuadratureSpec("trapezoid", 1e-10, 4)


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

    @pytest.mark.parametrize("method", ["trapezoid"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_level_fails_at_once(self, method, bad):
        # finer levels cannot repair a NaN or inf mean, so the loop stops
        # at the first one instead of climbing to max_points
        sizes = []

        def f(theta):
            sizes.append(theta.size)
            return np.full(theta.shape, bad)

        with pytest.raises(ToleranceError, match="last difference nan") as exc_info:
            integrate_periodic(f, QuadratureSpec(method))
        assert sizes == [64]
        assert np.isnan(exc_info.value.error)
        assert not np.isfinite(exc_info.value.value)

    def test_non_finite_level_after_finite_ones(self):
        sizes = []

        def f(theta):
            sizes.append(theta.size)
            corner = np.abs(np.sin(theta / 2))
            return corner if theta.size < 256 else np.full(theta.shape, np.nan)

        with pytest.raises(ToleranceError) as exc_info:
            integrate_periodic(f, QuadratureSpec("trapezoid", 1e-30))
        assert sizes == [64, 128, 256]
        assert np.isnan(exc_info.value.value)

    def test_spec_rejects_non_finite_tol_and_non_integer_max_points(self):
        for tol in (float("inf"), float("nan"), True, "1e-3", None, 1e-3j):
            with pytest.raises(ValueError, match="abs_tol"):
                QuadratureSpec("trapezoid", tol)
        for points in (1e6, 2.0 ** 20, True, "4096"):
            with pytest.raises(ValueError, match="max_points"):
                QuadratureSpec("trapezoid", 1e-10, points)
        assert QuadratureSpec("trapezoid", 1e-10, np.int64(4096)).max_points == 4096


def _symmetric(six):
    """The symmetric 3x3 array of six upper-triangle entries (LL, LS, LR, SS, SR, RR)."""
    out = np.empty((3, 3))
    out[UPPER] = six
    out.T[UPPER] = six
    return out


def _bits(*values):
    """Each value's exact bits (``None`` kept), so a comparison tells -0.0 from 0.0."""
    return [None if v is None else float(v).hex() for v in values]


def _one_boundary_spinors():
    rng = np.random.default_rng(20140527)
    spinors = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(3):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        spinors.append(tuple(v / np.linalg.norm(v)))
    return spinors


class TestOneBoundaryForm:
    """The default one-boundary route, the form F_m, against scipy's adaptive quadrature."""

    SPINORS = _one_boundary_spinors()
    ADAPTIVE = QuadratureSpec("adaptive-split", 1e-10)

    def test_is_the_one_boundary_default(self):
        psi = self.SPINORS[-1]
        form = absorb._one_boundary_form(4)
        assert prob_one_boundary(4, psi) == _strip_forms([form], psi)[0]
        ans = absorption_answer(AbsorptionQuery(psi, left=4))
        assert ans.p_left == prob_one_boundary(4, psi)
        assert ans.error_estimate == absorb._ONE_BOUNDARY_ERROR
        # six upper-triangle floats, the order of each block of a strip row
        assert len(form) == 6 and {type(x) for x in form} == {float}

    @pytest.mark.parametrize("m", range(1, 16))
    def test_agrees_with_adaptive_split(self, m):
        for psi in self.SPINORS:
            ans = absorption_answer(AbsorptionQuery(psi, left=m))
            assert ans.error_estimate == absorb._ONE_BOUNDARY_ERROR
            ref = prob_one_boundary(m, psi, self.ADAPTIVE)
            assert ans.p_left == pytest.approx(ref, abs=1e-11), psi

    @pytest.mark.parametrize("m", (1, 3, 9))
    def test_right_boundary_mirrors(self, m):
        # a right boundary is the left one of the mirrored walk, to the bit
        for psi in self.SPINORS:
            right = absorption_answer(AbsorptionQuery(psi, right=m))
            left = absorption_answer(AbsorptionQuery(psi[::-1], left=m))
            assert right.p_right == prob_one_boundary(m, psi[::-1])
            assert _bits(right.p_left, right.p_right, right.total, right.deficit,
                         right.error_estimate) == _bits(
                left.p_right, left.p_left, left.total, left.deficit, left.error_estimate)
            assert right.trapped is left.trapped is None


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

    @pytest.mark.parametrize(
        "m,n", [(m, w - m) for w in range(2, 31) for m in range(1, w)] + [(20, 40)]
    )
    def test_exact_answer_is_the_forms_of_the_matrices(self, m, n, cold_strip_rows):
        # every start site of widths 2-30, from a cold read: the matrices
        # are built from the geometry's rows, built with every other
        # geometry's from the table on that read, and the queries read the
        # same rows
        blocks = absorption_matrices(m, n)
        # the float basis spinors and an all-int one: a basis spinor e_k
        # reads the diagonal entry of each block exactly
        basis = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0, -1, 0)]
        for k, e in zip((0, 1, 2, 1), basis):
            ans = prob_two_boundary(AbsorptionQuery(e, left=m, right=n))
            assert [ans.p_left, ans.p_right, ans.trapped] == [x[k, k] for x in blocks]
        psi = _one_boundary_spinors()[-1]  # numpy complex128 components
        for spinor in basis + [psi, tuple(map(complex, psi))]:
            # reading the prebuilt rows changes no bit of the answer
            ans = prob_two_boundary(AbsorptionQuery(spinor, left=m, right=n))
            forms = _strip_forms([x[UPPER] for x in blocks], spinor)
            assert _bits(ans.p_left, ans.p_right, ans.trapped) == _bits(*forms)
            # and the forms are psi^H X psi of each block
            for form, x in zip(forms, blocks):
                want = np.real(np.conj(spinor) @ x @ np.array(spinor))
                assert form == pytest.approx(want, abs=1e-15)

    def test_rows_are_converted_once_and_cleared_with_the_blocks(self, monkeypatch):
        spinors = [(0.6, 0.8j, 0), (0.48, -0.6, 0.64j)]
        k = absorb._CLAMP
        loads = []
        load = absorb._load_rows

        def spy():
            loads.append(1)
            return load()

        monkeypatch.setattr(absorb, "_load_rows", spy)
        monkeypatch.setattr(absorb, "_ROWS", None)
        first = prob_two_boundary(AbsorptionQuery(spinors[0], left=3, right=4))
        # the first read builds every clamped geometry's row in one load,
        # from the table's floats: X_left and P_trapped at (m, n), X_right
        # from X_left at (n, m)
        rows = absorb._ROWS
        assert loads == [1] and type(rows) is tuple and len(rows) == k * k
        row = rows[k * 2 + 3]
        assert type(row) is tuple and len(row) == 18
        i = 12 * (k * 2 + 3)
        assert _bits(*row[:6], *row[12:]) == _bits(*BLOCKS[i:i + 12])
        # X_right's upper triangle is the mirror J X_left(n, m) J's
        j = 12 * (k * 3 + 2)
        mirror = _symmetric(BLOCKS[j:j + 6])[::-1, ::-1]
        assert _bits(*row[6:12]) == _bits(*mirror[UPPER])
        assert {type(x) for x in row} == {float}
        assert all(type(v) is float for v in dataclasses.astuple(first))
        # a second spinor and another geometry of the width read the same
        # rows: nothing more is built
        prob_two_boundary(AbsorptionQuery(spinors[1], left=3, right=4))
        prob_two_boundary(AbsorptionQuery(spinors[1], left=1, right=6))
        assert loads == [1]
        assert absorb._ROWS is rows and rows[k * 2 + 3] is row
        # an unloaded table drops the rows: the next query builds them anew,
        # to the same bits
        monkeypatch.setattr(absorb, "_ROWS", None)
        again = prob_two_boundary(AbsorptionQuery(spinors[0], left=3, right=4))
        assert _bits(*dataclasses.astuple(again)) == _bits(*dataclasses.astuple(first))
        assert loads == [1, 1]
        fresh = absorb._ROWS[k * 2 + 3]
        assert fresh is not row and fresh == row

    def test_far_walls_read_the_clamped_geometry(self, cold_strip_rows):
        # a wall beyond K is read at K: (20, 40), (14, 40) and (20, 14) are
        # the query of (14, 14) to the bit and read its very row object, and
        # (3, 40) reads the row of (3, 14)
        k = absorb._CLAMP
        spinor = (0.48, -0.6, 0.64j)
        want = prob_two_boundary(AbsorptionQuery(spinor, left=k, right=k))
        row = absorb._ROWS[k * k - 1]
        for m, n in ((20, 40), (k, 40), (20, k), (np.int64(100), np.int64(100))):
            assert prob_two_boundary(AbsorptionQuery(spinor, left=m, right=n)) == want
            assert absorb._site_rows(m, n) is row
        assert prob_two_boundary(AbsorptionQuery(spinor, left=3, right=40)) == prob_two_boundary(
            AbsorptionQuery(spinor, left=3, right=k)
        )
        assert absorb._site_rows(3, 40) is absorb._ROWS[k * 2 + k - 1]
        assert absorb._site_rows(40, 3) is absorb._ROWS[k * (k - 1) + 2]

    def test_row_build_starts_no_collection(self):
        # the K^2 rows are the only objects the build keeps, too few to start
        # a pass of the cyclic garbage collector, however young the heap
        import groverline._strip_table  # noqa: F401  imported before the watch

        starts = []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(watch)
        try:
            rows = absorb._load_rows()
        finally:
            gc.callbacks.remove(watch)
        assert starts == [] and len(rows) == absorb._CLAMP ** 2

    def test_deficit_is_never_negative_when_nothing_is_trapped(self):
        # start next to the left boundary in coin R: nothing is trapped, and
        # the deficit is the directly computed trapped mass, never 1 - total;
        # no total rounds above 1 either (none does for n = 1..119)
        answers = [
            prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=n))
            for n in range(1, 15)
        ]
        for ans in answers:
            assert ans.deficit == ans.trapped
            assert 0.0 <= ans.trapped < 1e-30
        assert all(ans.total <= 1.0 for ans in answers)

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

    @pytest.mark.parametrize("spinor", [(0, 0, 1), (0.48, 0.6, 0.64j)], ids=["R", "complex"])
    @pytest.mark.parametrize("left, right", [(2, 2), (1, 3), (1, 5), (2, 4), (3, 3)])
    def test_narrow_strip_walk_matches_the_exact_route(self, spinor, left, right):
        # the tight half of the simulator leg: on strips this narrow the walk
        # has converged by T = 2000, so its hit masses and residual meet the
        # exact route to rounding (measured: at most 6.7e-16 per side and
        # 1.1e-13 on residual - trapped)
        ans = prob_two_boundary(AbsorptionQuery(spinor, left=left, right=right))
        report = run_walk(CoinSpinor(*spinor), BoundarySpec(left=left, right=right), 2000)
        assert abs(report.cumulative_left - ans.p_left) <= 1e-14
        assert abs(report.cumulative_right - ans.p_right) <= 1e-14
        assert abs(report.residual_norm - ans.trapped) <= 1e-12

    def test_query_validation(self):
        with pytest.raises(ValueError):
            AbsorptionQuery((0, 0, 1))
        with pytest.raises(ValueError):
            AbsorptionQuery((0, 0, 1), left=-1, right=2)
        with pytest.raises(ValueError):
            AbsorptionQuery((1, 1, 1), left=1)


class _Distance(IntEnum):
    TWO = 2


class _Float(float):
    pass


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

    @pytest.mark.parametrize(
        "spinor",
        [("1", 0, 0), 5, (True, False, False), (np.True_, 0, 0),
         (10 ** 400, 0, 0), (1e200, 0, 0), None],
        ids=["str", "scalar", "bool", "numpy-bool", "int-beyond-float",
             "norm-beyond-float", "none"],
    )
    def test_malformed_spinor_is_value_error(self, spinor):
        with pytest.raises(ValueError, match="spinor"):
            prob_one_boundary(1, spinor)
        with pytest.raises(ValueError, match="spinor"):
            AbsorptionQuery(spinor, left=1, right=2)
        with pytest.raises(ValueError, match="spinor"):
            AbsorptionQuery(spinor, right=1)
        if isinstance(spinor, tuple):
            with pytest.raises(ValueError, match="spinor"):
                run_walk(CoinSpinor(*spinor), BoundarySpec(left=1), 3)

    def test_none_spinor_is_not_a_missing_spinor(self):
        # validate_input skips the spinor only when none is passed; the
        # boundary-only callers keep working
        with pytest.raises(ValueError, match="spinor must be a sequence, got NoneType"):
            validate_input(None, left=1, right=2)
        with pytest.raises(ValueError, match="spinor must be a sequence, got NoneType"):
            validate_input(None)
        validate_input(left=1, right=2)
        assert BoundarySpec(left=1, right=2).right == 2
        assert absorption_matrices(1, 2)[0].shape == (3, 3)

    def test_validator_returns_the_components_it_checked(self):
        # callers compute with the tuple the check passed: a tuple comes back
        # as itself, any other sequence or a one-shot iterator as the tuple
        # of its components, and a boundary-only call returns None
        psi = (0.48, -0.6, 0.64j)
        assert validate_input(psi, left=1) is psi
        assert validate_input(iter(psi)) == psi
        got = validate_input(np.array([0.6, 0.0, 0.8]), m=2)
        assert type(got) is tuple and got == (0.6, 0.0, 0.8)
        assert {type(c) for c in got} == {np.float64}
        assert validate_input(left=1, right=2) is None
        assert validate_input() is None

    def test_message_names_the_component_not_its_value(self):
        # formatting an integer of more than 4300 digits raises Python's own
        # ValueError, so the messages name the component's index and type
        huge = 10 ** 5000
        nan_beside_huge = (float("nan"), huge, 0)
        with pytest.raises(ValueError, match="spinor component 0 must be finite"):
            prob_one_boundary(1, nan_beside_huge)
        with pytest.raises(ValueError, match="spinor component 0 must be finite"):
            AbsorptionQuery(nan_beside_huge, left=1, right=2)
        with pytest.raises(ValueError, match="spinor component 1 must be a number, got str"):
            AbsorptionQuery((huge, "0", 0), left=1)
        with pytest.raises(ValueError, match="spinor must be a sequence, got int"):
            prob_one_boundary(1, huge)

    def test_one_shot_iterable_spinor_answers_like_its_tuple(self):
        # the components are taken once, so validation does not use them up
        psi = (0.48, -0.6, 0.64j)
        for left, right in ((1, 2), (3, 4), (2, None), (None, 2)):
            query = AbsorptionQuery(iter(psi), left=left, right=right)
            assert query.spinor == psi
            want = absorption_answer(AbsorptionQuery(psi, left=left, right=right))
            got = absorption_answer(query)
            assert _bits(*dataclasses.astuple(got)) == _bits(*dataclasses.astuple(want))
        assert _bits(prob_one_boundary(2, iter(psi))) == _bits(prob_one_boundary(2, psi))
        assert _bits(prob_one_boundary(2, (c for c in (0, 0, 1)))) == _bits(
            prob_one_boundary(2, (0, 0, 1))
        )
        with pytest.raises(ValueError, match="three components"):
            AbsorptionQuery(iter((0, 1)), left=1, right=2)
        with pytest.raises(ValueError, match="unit norm"):
            prob_one_boundary(2, iter((1, 1, 0)))

    def test_array_spinor_query_hashes(self):
        query = AbsorptionQuery(np.array([0.6, 0.0, 0.8]), left=1, right=2)
        assert isinstance(query.spinor, tuple)
        same = AbsorptionQuery((0.6, 0.0, 0.8), left=1, right=2)
        assert query == same and hash(query) == hash(same)
        assert prob_two_boundary(query) == prob_two_boundary(same)
        assert hash(AbsorptionQuery(np.array([0, 1j, 0]), right=2)) == hash(
            AbsorptionQuery((0, 1j, 0), right=2)
        )

    def test_fractional_two_boundary_is_value_error(self):
        with pytest.raises(ValueError, match="integer"):
            AbsorptionQuery((0, 0, 1), left=2.5, right=2)

    @pytest.mark.parametrize(
        "left", [np.int32(2), np.int64(2), _Distance.TWO], ids=["int32", "int64", "int-enum"]
    )
    def test_non_builtin_boundary_accepted(self, left):
        # types that are not exactly int take the abstract-base-class checks
        psi = (0.6, 0, 0.8j)
        ans = prob_two_boundary(AbsorptionQuery(psi, left=left, right=3))
        assert ans == prob_two_boundary(AbsorptionQuery(psi, left=2, right=3))
        assert AbsorptionQuery(psi, left=1, right=left).right == 2
        assert BoundarySpec(right=left).right == 2

    @pytest.mark.parametrize(
        "spinor,builtin",
        [((np.float64(0.6), 0, 0.8), (0.6, 0, 0.8)),
         ((0, np.complex128(0.6j), 0.8), (0, 0.6j, 0.8)),
         ((np.float32(0.5), 0.5, math.sqrt(0.5)), (0.5, 0.5, math.sqrt(0.5))),
         ((Fraction(3, 5), 0, Fraction(4, 5)), (0.6, 0, 0.8))],
        ids=["float64", "complex128", "float32", "fraction"],
    )
    def test_non_builtin_components_accepted(self, spinor, builtin):
        # components that are not exactly complex, float or int take the
        # number check, and the forms read them as the same complex values
        ans = prob_two_boundary(AbsorptionQuery(spinor, left=2, right=3))
        assert ans == prob_two_boundary(AbsorptionQuery(builtin, left=2, right=3))

    REDUCED = [
        (np.float32(0.6), 0, np.float32(0.8)),
        (np.float16(0.6), 0, np.float16(0.8)),
        (0, np.complex64(0.6j), np.float32(0.8)),
    ]
    REDUCED_IDS = ["float32", "float16", "complex64"]

    @pytest.mark.parametrize("spinor", REDUCED, ids=REDUCED_IDS)
    def test_reduced_precision_is_normed_in_double(self, spinor):
        # the float32 (float16) components nearest 0.6 and 0.8 square to a
        # unit sum in their own precision but are 4.8e-8 (-2.0e-4) off unit
        # norm in double precision, which every route computes in: each
        # entry point refuses them instead of answering with that error in
        # its ledger
        message = "spinor must have unit norm"
        with pytest.raises(ValueError, match=message):
            AbsorptionQuery(spinor, left=2, right=3)
        with pytest.raises(ValueError, match=message):
            prob_one_boundary(2, spinor)
        with pytest.raises(ValueError, match=message):
            absorption_answer(AbsorptionQuery(spinor, left=2))
        with pytest.raises(ValueError, match=message):
            run_walk(CoinSpinor(*spinor), BoundarySpec(left=1, right=4), 10)
        with pytest.raises(ValueError, match=message):
            WindowWalk(CoinSpinor(*spinor), BoundarySpec(), 10)

    @pytest.mark.parametrize(
        "spinor",
        [(np.float32(0.5), np.float32(-0.5), math.sqrt(0.5)),
         (np.complex64(0.5j), np.float16(0.5), math.sqrt(0.5))],
        ids=["float32", "complex64-float16"],
    )
    def test_reduced_precision_of_unit_norm_accepted(self, spinor):
        # components exact in their own precision are the doubles they name
        widened = tuple(complex(c) for c in spinor)
        ans = prob_two_boundary(AbsorptionQuery(spinor, left=2, right=3))
        assert ans == prob_two_boundary(AbsorptionQuery(widened, left=2, right=3))
        assert prob_one_boundary(2, spinor) == prob_one_boundary(2, widened)

    @pytest.mark.parametrize(
        "spinor,kwargs,message",
        [((0, 0, 1), {"left": np.True_, "right": 2},
          f"left boundary must be an integer >= 1, got {np.True_!r}"),
         ((0, Decimal("nan"), 1), {"left": 1, "right": 2}, "spinor component 1 must be finite"),
         ((0, _Float("nan"), 1), {"left": 1, "right": 2}, "spinor component 1 must be finite")],
        ids=["numpy-bool-boundary", "decimal-nan", "float-subclass-nan"],
    )
    def test_non_builtin_types_rejected(self, spinor, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            AbsorptionQuery(spinor, **kwargs)

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


class TestRecords:
    """Query and answer are frozen dataclasses with hand-written ``__init__``."""

    def test_fields_and_signatures(self):
        query_fields = [(f.name, f.default) for f in dataclasses.fields(AbsorptionQuery)]
        assert query_fields == [
            ("spinor", dataclasses.MISSING), ("left", None), ("right", None)
        ]
        answer_fields = [(f.name, f.default) for f in dataclasses.fields(AbsorptionAnswer)]
        assert answer_fields == [
            ("p_left", dataclasses.MISSING), ("p_right", dataclasses.MISSING),
            ("total", dataclasses.MISSING), ("deficit", dataclasses.MISSING),
            ("error_estimate", dataclasses.MISSING), ("trapped", None),
        ]
        assert str(inspect.signature(AbsorptionQuery, eval_str=True)) == (
            "(spinor: tuple[complex, complex, complex], left: int | None = None, "
            "right: int | None = None) -> None"
        )
        assert str(inspect.signature(AbsorptionAnswer, eval_str=True)) == (
            "(p_left: float | None, p_right: float | None, total: float, "
            "deficit: float, error_estimate: float, trapped: float | None = None) -> None"
        )
        assert AbsorptionQuery.__match_args__ == ("spinor", "left", "right")

    def test_positional_and_keyword_construction(self):
        query = AbsorptionQuery((0, 0, 1), 2, 3)
        assert query == AbsorptionQuery(spinor=(0, 0, 1), left=2, right=3)
        assert (query.spinor, query.left, query.right) == ((0, 0, 1), 2, 3)
        assert AbsorptionQuery((0, 0, 1), right=3).left is None
        answer = AbsorptionAnswer(0.25, 0.5, 0.75, 0.25, 0.0)
        assert answer == AbsorptionAnswer(
            p_left=0.25, p_right=0.5, total=0.75, deficit=0.25, error_estimate=0.0
        )
        assert answer.trapped is None
        assert dataclasses.astuple(answer) == (0.25, 0.5, 0.75, 0.25, 0.0, None)
        with pytest.raises(TypeError):
            AbsorptionAnswer(0.25, 0.5, 0.75, 0.25)
        with pytest.raises(TypeError):
            AbsorptionQuery((0, 0, 1), 1, 2, 3)

    def test_eq_hash_and_repr(self):
        query = AbsorptionQuery((0, 0, 1), left=1, right=1)
        answer = prob_two_boundary(query)
        assert repr(query) == "AbsorptionQuery(spinor=(0, 0, 1), left=1, right=1)"
        # the box's blocks are 2/3 and 1/3, each the nearest float
        assert repr(answer) == (
            "AbsorptionAnswer(p_left=0.6666666666666666, p_right=0.3333333333333333, "
            "total=1.0, deficit=0.0, error_estimate=0.0, trapped=0.0)"
        )
        assert answer == prob_two_boundary(AbsorptionQuery([0, 0, 1], left=1, right=1))
        assert answer != dataclasses.replace(answer, trapped=None)
        assert answer != dataclasses.astuple(answer)
        assert len({query, AbsorptionQuery([0, 0, 1], left=1, right=1)}) == 1
        assert hash(answer) == hash(prob_two_boundary(query))
        for record in (query, answer):
            assert pickle.loads(pickle.dumps(record)) == record

    def test_fields_are_frozen(self):
        query = AbsorptionQuery((0, 0, 1), left=1, right=2)
        answer = prob_two_boundary(query)
        for record, name in ((query, "left"), (query, "spinor"), (answer, "p_right")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 3)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        assert query.left == 1 and answer == prob_two_boundary(query)

    def test_replace(self):
        query = AbsorptionQuery((0, 0, 1), left=1, right=2)
        answer = prob_two_boundary(query)
        moved = dataclasses.replace(answer, p_right=answer.p_right + 1e-6)
        assert moved.p_right == answer.p_right + 1e-6
        assert dataclasses.astuple(moved)[2:] == dataclasses.astuple(answer)[2:]
        assert dataclasses.replace(query, left=3) == AbsorptionQuery((0, 0, 1), left=3, right=2)
        # replace calls __init__, which validates again
        with pytest.raises(ValueError, match="left boundary must be an integer >= 1"):
            dataclasses.replace(query, left=0)
        with pytest.raises(ValueError, match="at least one boundary"):
            dataclasses.replace(query, left=None, right=None)
        with pytest.raises(ValueError, match="unit norm"):
            dataclasses.replace(query, spinor=(1, 0, 1))


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
        seq = theorem4_sequence(10)
        spec = QuadratureSpec("trapezoid", 1e-12)
        for n in range(1, 11):
            ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=n), spec)
            assert abs(ans.p_left - seq[n]) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem4_sequence(-1)


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

    def test_deficit_steps_are_exact(self, rows):
        # the trapped mass t_N = 1 - s_N of coin R between -2 and +N obeys
        # t_0 = 0, t_(N+1) = 16 / (40 - t_N); every scaled step
        # (t_(N+1) - t_N) * 1e12 within 1e-4 (measured at most 3.3e-5)
        t = [Fraction(0)]
        for _ in range(6):
            t.append(16 / (40 - t[-1]))
        steps = [b - a for a, b in zip(t[1:], t[2:])]
        assert steps == [Fraction(2, 495), Fraction(1, 24255), Fraction(1, 2376745),
                         Fraction(2, 465793515), Fraction(2, 45643010985)]
        for row, step in zip(rows, steps):
            assert abs(row.deficit_scaled - float(step * 10 ** 12)) < 1e-4

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

    def test_steps_past_the_clamp_are_zero(self, rows):
        # the exact route reads every right boundary n >= K at K, so those
        # deficit steps are exactly 0.0 (the true step is below 1e-20);
        # rows n <= 6 are unchanged to the bit
        wide = table1(max_n=20)
        k = absorb._CLAMP
        assert wide[:5] == rows[:5]
        assert dataclasses.replace(wide[5], deficit_scaled=None, log2_deficit=None) == rows[5]
        assert wide[5].deficit_scaled > 0
        for row in wide[k - 1 : -1]:
            assert row.deficit_scaled == 0.0 and row.log2_deficit is None
        assert wide[-1].deficit_scaled is None
        assert all(row.precision_ok for row in wide)
