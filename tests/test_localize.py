"""Trapped-mass observables: oscillation, twin peaks, decay of the deficit."""

import time

import numpy as np
import pytest

from groverline.localize import (
    oscillation_trace,
    residual_near_origin,
    stationary_profile,
    two_peak_profile,
)
from groverline.walk import BoundarySpec, CoinSpinor, WindowWalk

from test_series import BAD_COUNTS
from walk_oracle import (
    WalkState,
    apply_evolution,
    cone_profile,
    position_distribution,
    position_probability,
)


class TestInputValidation:
    def test_two_peak_profile_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError):
            two_peak_profile(10, init=CoinSpinor(2, 0, 0))

    def test_residual_rejects_nan_spinor(self):
        with pytest.raises(ValueError):
            residual_near_origin(2, 50, init=CoinSpinor(np.nan, 0, 1))

    def test_oscillation_trace_rejects_zero_spinor(self):
        with pytest.raises(ValueError):
            oscillation_trace(5, init=CoinSpinor(0, 0, 0))

    def test_oscillation_trace_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError):
            oscillation_trace(3, init=CoinSpinor(0.5, 0, 0))

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
    def test_oscillation_trace_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            oscillation_trace(steps)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "3"])
    def test_two_peak_profile_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            two_peak_profile(steps)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, -1, "3"])
    def test_residual_rejects_bad_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            residual_near_origin(2, steps)

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_counts_go_through_the_one_check(self, bad):
        with pytest.raises(ValueError, match="span must be"):
            stationary_profile(bad)
        with pytest.raises(ValueError, match="window must be"):
            residual_near_origin(2, 10, bad)
        with pytest.raises(ValueError, match="left_boundary must be"):
            residual_near_origin(bad, 10)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 0"):
            residual_near_origin(2, 10, -1)


# flat-band projection values, frozen; see stationary_profile docstring
P_PEAK = 0.2020410288672
TRAPPED_TOTAL = 1 / np.sqrt(6)
TAIL_RATIO = 0.0102051443364
# the flat band's decay per site, 5 - 2 sqrt(6), without the cancellation
Q = 1 / (5 + 2 * np.sqrt(6))


def test_frozen_values_are_the_closed_forms():
    assert P_PEAK == pytest.approx(2 * Q, abs=1e-13)
    assert TAIL_RATIO == pytest.approx(Q**2, abs=1e-13)
    assert TRAPPED_TOTAL == pytest.approx(4 * Q / (1 - Q**2), abs=1e-13)


class TestOscillationTrace:
    def test_first_step_hand_values(self):
        tr = oscillation_trace(1)
        assert tr.p_minus1[0] == pytest.approx(4 / 9, abs=1e-14)
        assert tr.p_zero[0] == pytest.approx(4 / 9, abs=1e-14)

    def test_long_run_means(self, trace500):
        half = trace500.steps >= 250
        m1 = trace500.p_minus1[half].mean()
        m0 = trace500.p_zero[half].mean()
        assert m1 == pytest.approx(0.202, abs=0.005)
        assert m0 == pytest.approx(0.202, abs=0.005)
        assert (m1 + m0) == pytest.approx(0.404, abs=0.005)

    def test_sum_constant_parts_oscillating(self, trace500):
        # the two site probabilities trade mass back and forth: each one
        # swings visibly while their sum holds still
        half = trace500.steps >= 250
        total = trace500.total[half]
        assert total.min() > 0.40 and total.max() < 0.41
        assert total.std() < 1e-3
        assert trace500.p_minus1[half].std() > 5e-3
        assert trace500.p_zero[half].std() > 5e-3

    @pytest.mark.parametrize("init, steps", [
        pytest.param(CoinSpinor(0, 0, 1), 40, id="init0"),
        pytest.param(CoinSpinor(0.48, 0.6, 0.64j), 40, id="init1"),
        # across about thirty view rebuilds, each flushing below the floor
        pytest.param(CoinSpinor(0, 0, 1), 1000, id="init0-rebuilds"),
        pytest.param(CoinSpinor(0.48, 0.6, 0.64j), 1000, id="init1-rebuilds"),
    ])
    def test_bit_identical_to_position_probability(self, init, steps):
        # the trace reads both buffers after every advance(2), this engine
        # one step at a time
        trace = oscillation_trace(steps, init=init)
        engine = WindowWalk(init, BoundarySpec(), steps)
        want = []
        for _ in range(steps):
            engine.advance(1)
            want.append((position_probability(engine, -1), position_probability(engine, 0)))
        want = np.array(want)
        assert np.array_equal(trace.steps, np.arange(1, steps + 1))
        assert np.array_equal(trace.p_minus1, want[:, 0])
        assert np.array_equal(trace.p_zero, want[:, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            oscillation_trace(0)


class TestTwoPeakProfile:
    def test_maxima_at_the_twin_sites(self, profile500):
        top2 = sorted(profile500, key=profile500.get, reverse=True)[:2]
        assert sorted(top2) == [-1, 0]

    def test_maxima_already_at_t50(self):
        prof = two_peak_profile(50)
        top2 = sorted(prof, key=prof.get, reverse=True)[:2]
        assert sorted(top2) == [-1, 0]

    @pytest.mark.parametrize("init", [CoinSpinor(0, 0, 1), CoinSpinor(0.48, 0.6, 0.64j)])
    def test_values_match_the_sparse_oracle(self, init):
        # the profile's accumulation of float squares against the sparse
        # walk's own |psi|^2, averaged over the same steps T//2..T
        steps = 40
        state = WalkState.initial(init)
        want: dict[int, float] = {}
        count = 0
        for t in range(1, steps + 1):
            state = apply_evolution(state)
            if t >= steps // 2:
                for m, p in position_distribution(state).items():
                    want[m] = want.get(m, 0.0) + p
                count += 1
        got = two_peak_profile(steps, init)
        assert got.keys() == want.keys()
        for m, p in want.items():
            assert got[m] == pytest.approx(p / count, abs=1e-15)

    @pytest.mark.parametrize("steps", [2, 3, 50, 800, 801])
    @pytest.mark.parametrize("init", [CoinSpinor(0, 0, 1), CoinSpinor(0.48, 0.6, 0.64j)])
    def test_matches_the_per_step_cone_oracle(self, init, steps):
        # odd and even counts of observed steps (2, 3, 26, 401, 402), before
        # the first flushing rebuild and across many
        got = two_peak_profile(steps, init)
        want = cone_profile(steps, init)
        assert got.keys() == want.keys()
        for m, p in want.items():
            assert got[m] == pytest.approx(p, abs=1e-15)

    def test_total_mass_conserved(self, profile500):
        assert sum(profile500.values()) == pytest.approx(1.0, abs=1e-9)

    def test_peaks_approach_stationary_values(self, profile500):
        assert profile500[-1] == pytest.approx(P_PEAK, abs=5e-3)
        assert profile500[0] == pytest.approx(P_PEAK, abs=5e-3)

    def test_ballistic_floor_masks_far_tail(self, profile500):
        # the finite-time average carries an O(log T / T) transport
        # remnant: at T=500 it sits near 6e-4, far above the 2e-5
        # stationary value at m = -3 (why tail fits use stationary_profile)
        assert 1e-4 < profile500[-3] < 2e-3
        assert profile500[-3] > 10 * 2.1e-5


@pytest.fixture(scope="module")
def prof():
    return stationary_profile()


class TestStationaryProfile:
    def test_peak_values(self, prof):
        assert prof[-1] == pytest.approx(P_PEAK, abs=1e-9)
        assert prof[0] == pytest.approx(P_PEAK, abs=1e-9)

    def test_total_trapped_mass(self, prof):
        assert sum(prof.values()) == pytest.approx(TRAPPED_TOTAL, abs=1e-12)

    def test_mirror_symmetry_about_the_bond(self, prof):
        for j in range(0, 8):
            assert prof[-1 - j] == pytest.approx(prof[j], abs=1e-15)

    def test_geometric_tails(self, prof):
        # affine fits of log2 P(m) along each tail, slope per site
        for tail, sign in (((-2, -3, -4), -1), ((1, 2, 3), 1)):
            ys = np.log2([prof[m] for m in tail])
            coeffs = np.polyfit(tail, ys, 1)
            assert np.max(np.abs(ys - np.polyval(coeffs, tail))) < 0.2
            assert coeffs[0] == pytest.approx(sign * np.log2(TAIL_RATIO), abs=1e-6)

    def test_tail_ratio_value(self, prof):
        assert prof[-3] / prof[-2] == pytest.approx(TAIL_RATIO, abs=1e-9)

    def test_twin_peaks_are_4q(self, prof):
        assert prof[-1] + prof[0] == pytest.approx(4 * Q, abs=1e-15)

    @pytest.mark.parametrize("span", [8, 20])
    def test_closed_form_to_40_digits(self, span):
        mpmath = pytest.importorskip("mpmath")
        wide = stationary_profile(span)
        assert list(wide) == list(range(-span, span + 1))
        with mpmath.workdps(40):
            q = 5 - 2 * mpmath.sqrt(6)
            for m, p in wide.items():
                exact = 2 * q ** abs(2 * m + 1)
                assert abs((mpmath.mpf(p) - exact) / exact) < 1e-15
        for j in range(span):
            assert wide[-1 - j] == wide[j]

    def test_agrees_with_finite_time_average(self, prof, profile500):
        for m in (-1, 0):
            assert profile500[m] == pytest.approx(prof[m], abs=5e-3)

    def test_wide_span_stops_at_the_float_floor(self):
        narrow = stationary_profile(200)
        start = time.perf_counter()
        wide = stationary_profile(100_000)
        assert time.perf_counter() - start < 0.5
        assert len(wide) == 200_001
        assert all(wide[m] == p for m, p in narrow.items())
        assert not any(p for m, p in wide.items() if abs(m) > 200)

    def test_validation(self):
        with pytest.raises(ValueError):
            stationary_profile(span=0)


class TestResidualNearOrigin:
    def test_adjacent_boundary_drains_everything(self):
        assert residual_near_origin(1, steps=2000) < 0.01

    def test_receded_boundary_revives_localization(self):
        res = residual_near_origin(2, steps=2000)
        assert res > 0.3
        # the trapped remainder is the two stationary peaks
        assert res == pytest.approx(2 * P_PEAK, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_near_origin(0)


class TestDecaySlope:
    def test_table_slope(self, table1_rows):
        # least-squares slope of log2(scaled deficit) against strip width
        pts = [(row.n, row.log2_deficit) for row in table1_rows if row.log2_deficit is not None]
        slope = np.polyfit(*zip(*pts), 1)[0]
        # equals the stationary tail's per-site exponent
        assert slope == pytest.approx(np.log2(TAIL_RATIO), abs=1e-3)
        assert abs(slope - (-7.11)) < 0.5
