"""Simulator unit tests: coin algebra, hand-checked steps, conservation laws."""

import numpy as np
import pytest

from groverline.walk import (
    BoundarySpec,
    CoinSpinor,
    WindowWalk,
    grover_coin,
    run_walk,
)
from groverline.localize import oscillation_trace

from walk_oracle import (
    WalkState,
    apply_evolution,
    position_distribution,
    position_probability,
    project_is_at,
)

R3 = 1 / np.sqrt(3)
R5 = 1 / np.sqrt(5)


class TestGroverCoin:
    def test_involutory(self):
        g = grover_coin()
        assert np.allclose(g @ g, np.eye(3), atol=1e-15)

    def test_real_symmetric_unitary(self):
        g = grover_coin()
        assert np.allclose(g, g.T, atol=0)
        assert np.allclose(g.conj().T @ g, np.eye(3), atol=1e-12)

    def test_rows_sum_to_one(self):
        assert np.allclose(grover_coin().sum(axis=1), 1.0, atol=1e-15)

    def test_action_on_r_basis(self):
        out = grover_coin() @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(out, [2 / 3, 2 / 3, -1 / 3], atol=1e-15)


class TestApplyEvolution:
    def test_one_step_from_l(self):
        state = WalkState.initial(CoinSpinor(1, 0, 0))
        nxt = apply_evolution(state)
        assert nxt.t == 1
        assert set(nxt.amplitudes) == {-1, 0, 1}
        assert nxt.amplitudes[-1].as_array() == pytest.approx([-1 / 3, 0, 0])
        assert nxt.amplitudes[0].as_array() == pytest.approx([0, 2 / 3, 0])
        assert nxt.amplitudes[1].as_array() == pytest.approx([0, 0, 2 / 3])

    def test_one_step_from_r(self):
        nxt = apply_evolution(WalkState.initial(CoinSpinor(0, 0, 1)))
        assert nxt.amplitudes[-1].as_array() == pytest.approx([2 / 3, 0, 0])
        assert nxt.amplitudes[0].as_array() == pytest.approx([0, 2 / 3, 0])
        assert nxt.amplitudes[1].as_array() == pytest.approx([0, 0, -1 / 3])

    def test_zero_state_stays_zero(self):
        zero = WalkState(amplitudes={}, t=0)
        assert apply_evolution(zero).amplitudes == {}

    def test_linearity_preserves_norm(self):
        state = WalkState.initial(CoinSpinor(0.5, 0.5j, np.sqrt(0.5)))
        for _ in range(6):
            state = apply_evolution(state)
        assert state.norm2 == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def five_term_state(self):
        return WalkState(
            amplitudes={
                0: CoinSpinor(R5, R5, R5),
                1: CoinSpinor(0, R5, 0),
                2: CoinSpinor(0, 0, R5),
            },
            t=7,
        )

    def test_five_term_example(self):
        prob, yes, no = project_is_at(self.five_term_state(), 0)
        assert prob == pytest.approx(3 / 5, abs=1e-12)
        assert set(yes.amplitudes) == {0}
        # the collapsed branches are the raw ones over their norms
        yes_unit = yes.amplitudes[0].as_array() / np.sqrt(yes.norm2)
        assert yes_unit == pytest.approx([R3, R3, R3])
        assert set(no.amplitudes) == {1, 2}
        no_scale = 1 / np.sqrt(no.norm2)
        assert no_scale * no.amplitudes[1].as_array() == pytest.approx([0, 1 / np.sqrt(2), 0])
        assert no_scale * no.amplitudes[2].as_array() == pytest.approx([0, 0, 1 / np.sqrt(2)])

    def test_no_branch_unnormalized_by_default(self):
        prob, yes, no = project_is_at(self.five_term_state(), 0)
        assert prob == pytest.approx(3 / 5, abs=1e-12)
        assert no.norm2 == pytest.approx(2 / 5, abs=1e-12)
        assert yes.norm2 == pytest.approx(3 / 5, abs=1e-12)

    def test_projection_misses(self):
        state = self.five_term_state()
        prob, yes, no = project_is_at(state, 9)
        assert prob == 0.0
        assert no.amplitudes == state.amplitudes

    def test_projection_hits_everything(self):
        state = WalkState.initial(CoinSpinor(0, 1, 0))
        prob, yes, no = project_is_at(state, 0)
        assert prob == pytest.approx(1.0, abs=1e-15)
        assert no.amplitudes == {}


class TestRunWalk:
    def test_zero_steps(self):
        report = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=1, right=1), 0)
        assert report.cumulative_left == 0.0
        assert report.cumulative_right == 0.0
        assert report.residual_norm == pytest.approx(1.0, abs=0)

    def test_box_absorbs_two_thirds_left(self):
        # cumulative left for boundaries at -1 and +1 converges to 2/3;
        # the per-step masses decay like 9^-t so T=60 is far past machine eps
        report = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=1, right=1), 60)
        assert report.cumulative_left == pytest.approx(2 / 3, abs=1e-13)
        assert report.cumulative_right == pytest.approx(1 / 3, abs=1e-13)

    def test_single_left_boundary_value(self):
        report = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=1), 2000)
        assert report.cumulative_left == pytest.approx(0.6692653092, abs=5e-4)

    def test_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError):
            run_walk(CoinSpinor(0.5, 0, 0), BoundarySpec(left=1), 3)

    def test_norm_conservation_with_absorption(self):
        init = CoinSpinor(0, 0, 1)
        engine = WindowWalk(init, BoundarySpec(left=2), 200)
        absorbed = 0.0
        for _ in range(200):
            engine.advance(1)
            absorbed = sum(abs(a) ** 2 for a in engine.hit_left)
            assert engine.norm2() + absorbed == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "bounds, steps",
        [(BoundarySpec(left=1, right=2), 0), (BoundarySpec(left=2), 7), (BoundarySpec(right=2), 7),
         (BoundarySpec(), 5), (BoundarySpec(left=1, right=3), 40)],
    )
    def test_report_dtypes(self, bounds, steps):
        # hit amplitudes are complex and masses float even when a list is
        # empty (a free side, or no steps); the masses are their squares exactly
        report = run_walk(CoinSpinor(0.48, 0.6, 0.64j), bounds, steps)
        for hits, masses, bounded in (
            (report.first_hit_left, report.absorbed_left, bounds.left is not None),
            (report.first_hit_right, report.absorbed_right, bounds.right is not None),
        ):
            assert hits.dtype == np.complex128
            assert masses.dtype == np.float64
            assert len(hits) == (steps if bounded else 0)
            assert np.array_equal(masses, np.abs(hits) ** 2)

    def test_boundary_spec_validation(self):
        with pytest.raises(ValueError):
            BoundarySpec(left=0)
        with pytest.raises(ValueError):
            BoundarySpec(right=-3)


class TestFirstHit:
    def test_hand_values_left_coin(self):
        amps = run_walk(CoinSpinor(1, 0, 0), BoundarySpec(left=1), 2).first_hit_left
        assert amps[0] == pytest.approx(-1 / 3, abs=1e-15)
        assert amps[1] == pytest.approx(4 / 9, abs=1e-15)

    def test_hand_value_box_r(self):
        amps = run_walk(CoinSpinor(0, 0, 1), BoundarySpec(left=1, right=1), 1).first_hit_left
        assert amps[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_matches_run_walk_masses(self):
        # |first hit amplitude|^2 must equal the per-step absorbed mass
        for spinor in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            report = run_walk(CoinSpinor(*spinor), BoundarySpec(left=1), 30)
            assert np.allclose(
                np.abs(report.first_hit_left) ** 2, report.absorbed_left, atol=1e-12
            )


class TestPositionDistribution:
    def test_one_step_from_l(self):
        state = apply_evolution(WalkState.initial(CoinSpinor(1, 0, 0)))
        dist = position_distribution(state)
        assert dist == pytest.approx({-1: 1 / 9, 0: 4 / 9, 1: 4 / 9})

    def test_sums_to_one(self):
        state = WalkState.initial(CoinSpinor(0.6, 0.8j, 0))
        for _ in range(5):
            state = apply_evolution(state)
        assert sum(position_distribution(state).values()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_state(self):
        assert position_distribution(WalkState(amplitudes={}, t=0)) == {}


class TestInvariants:
    def test_support_bound(self):
        state = WalkState.initial(CoinSpinor(R3, R3, R3))
        for t in range(1, 12):
            state = apply_evolution(state)
            support = state.support()
            assert len(support) <= 2 * t + 1
            assert min(support) >= -t and max(support) <= t

    def test_free_norm_conservation_long(self):
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(), 500)
        for _ in range(500):
            engine.advance(1)
        assert engine.norm2() == pytest.approx(1.0, abs=1e-10)

    def test_mirror_symmetry_with_boundaries(self):
        # (a,b,g) with boundaries {-M, +N} mirrors (g,b,a) with {-N, +M}:
        # absorbed traces swap sides and distributions reflect through 0
        rng = np.random.default_rng(42)
        for _ in range(5):
            raw = rng.normal(size=3) + 1j * rng.normal(size=3)
            raw /= np.linalg.norm(raw)
            a, b, g = raw
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            fwd = WindowWalk(CoinSpinor(a, b, g), BoundarySpec(left=m, right=n), 25)
            rev = WindowWalk(CoinSpinor(g, b, a), BoundarySpec(left=n, right=m), 25)
            for _ in range(25):
                fwd.advance(1)
                rev.advance(1)
                assert abs(fwd.hit_left[-1]) ** 2 == pytest.approx(
                    abs(rev.hit_right[-1]) ** 2, abs=1e-12
                )
                assert abs(fwd.hit_right[-1]) ** 2 == pytest.approx(
                    abs(rev.hit_left[-1]) ** 2, abs=1e-12
                )
                for pos in range(-m + 1, n):
                    assert position_probability(fwd, pos) == pytest.approx(
                        position_probability(rev, -pos), abs=1e-12
                    )

    def test_window_engine_matches_sparse_engine(self):
        init = CoinSpinor(0.5, 0.5, np.sqrt(0.5) * 1j)
        engine = WindowWalk(init, BoundarySpec(), 6)
        state = WalkState.initial(init)
        for _ in range(6):
            engine.advance(1)
            state = apply_evolution(state)
        for pos, spin in state.amplitudes.items():
            assert position_probability(engine, pos) == pytest.approx(
                spin.norm2, abs=1e-12
            )

    def test_mass_within(self):
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(), 10)
        for _ in range(10):
            engine.advance(1)
        total = engine.mass_within(10)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert engine.mass_within(1) < total


class TestEngineGuards:
    @pytest.mark.parametrize(
        "spinor", [CoinSpinor(2, 0, 0), CoinSpinor(np.nan, 0, 1), CoinSpinor(0, 0, 0)]
    )
    def test_engine_rejects_bad_spinor(self, spinor):
        with pytest.raises(ValueError):
            WindowWalk(spinor, BoundarySpec(), 3)

    def test_step_past_horizon_raises(self):
        # a free edge holds steps + 1 sites of slack; one more step would
        # push mass off the window
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(), 3)
        for _ in range(3):
            engine.advance(1)
        with pytest.raises(RuntimeError):
            engine.advance(1)
        assert engine.t == 3
        assert engine.norm2() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("t", [0, 2])
    def test_advance_zero_is_a_no_op(self, t):
        engine = WindowWalk(CoinSpinor(0.48, 0.6, 0.64j), BoundarySpec(left=1, right=1), 4)
        engine.advance(t)
        amps, hits = engine.amps.copy(), (list(engine.hit_left), list(engine.hit_right))
        engine.advance(0)
        assert engine.t == t
        assert np.array_equal(engine.amps, amps)
        assert (engine.hit_left, engine.hit_right) == hits

    def test_advance_past_horizon_moves_nothing(self):
        engine = WindowWalk(CoinSpinor(0.48, 0.6, 0.64j), BoundarySpec(left=2), 5)
        engine.advance(3)
        amps, hits = engine.amps.copy(), list(engine.hit_left)
        with pytest.raises(RuntimeError):
            engine.advance(3)
        assert engine.t == 3
        assert np.array_equal(engine.amps, amps)
        assert engine.hit_left == hits and engine.hit_right == []
        engine.advance(2)
        assert engine.t == 5

    @pytest.mark.parametrize("n", [True, 2.0, -1, np.float64(1.0), "1"])
    def test_advance_rejects_bad_counts(self, n):
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(left=1), 5)
        with pytest.raises(ValueError, match="n must be"):
            engine.advance(n)
        assert engine.t == 0 and engine.hit_left == []

    def test_advance_accepts_numpy_integers(self):
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(left=1), 5)
        engine.advance(np.int64(3))
        assert type(engine.t) is int and engine.t == 3 and len(engine.hit_left) == 3

    def test_evolve_yields_every_time_once(self):
        # observers of every step call advance(1) in their own loop: each
        # call moves the engine one time on, and the last one reaches steps
        engine = WindowWalk(CoinSpinor(0, 1, 0), BoundarySpec(left=2), 4)
        seen = [(engine.t, engine.norm2())]
        for _ in range(4):
            engine.advance(1)
            seen.append((engine.t, engine.norm2()))
        assert [t for t, _ in seen] == [0, 1, 2, 3, 4]
        assert seen[0][1] == 1.0
        assert len(engine.hit_left) == 4 and engine.hit_right == []
        with pytest.raises(RuntimeError):
            engine.advance(1)

    def test_cone_grows_with_time_and_clips_at_boundaries(self):
        engine = WindowWalk(CoinSpinor(0, 0, 1), BoundarySpec(left=2), 5)
        assert engine.cone() == slice(engine.index(0), engine.index(0) + 1)
        for _ in range(3):
            engine.advance(1)
        assert engine.cone() == slice(0, engine.index(3) + 1)


BAD_STEPS = [2.5, 2.0, True, -1, np.float64(3.0), "3"]
R_START = CoinSpinor(0, 0, 1)
LEFT_1 = BoundarySpec(left=1)


class TestStepsValidation:
    """``steps`` is checked once, in ``WindowWalk``, for every entry point."""

    @pytest.mark.parametrize("steps", BAD_STEPS)
    def test_window_walk(self, steps):
        with pytest.raises(ValueError, match="steps"):
            WindowWalk(R_START, LEFT_1, steps)

    @pytest.mark.parametrize("steps", BAD_STEPS)
    def test_run_walk(self, steps):
        with pytest.raises(ValueError, match="steps"):
            run_walk(R_START, LEFT_1, steps)

    @pytest.mark.parametrize("steps", BAD_STEPS)
    def test_oscillation_trace(self, steps):
        with pytest.raises(ValueError, match="steps"):
            oscillation_trace(steps, init=R_START)

    def test_numpy_integer_steps_accepted(self):
        report = run_walk(R_START, LEFT_1, np.int64(3))
        assert report.steps == 3
        assert len(report.absorbed_left) == 3
