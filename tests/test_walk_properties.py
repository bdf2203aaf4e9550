"""Property tests of the light-cone walk kernel against two independent references.

* The sparse ``WalkState`` oracle of ``tests/walk_oracle.py``
  (``apply_evolution``, then ``project_is_at`` at each boundary) gives the
  per-step hit masses and position probabilities within 1e-12.
* A plain full-window complex step, the kernel's arithmetic without the
  light cone, the fused shift or the float view, gives the amplitudes bit
  for bit.

Every run starts with the one-column first step, where the cone is a
single complex column.  The kernel multiplies the live columns padded by
``_BLOCK`` columns per side and rebuilds its views every ``_BLOCK + 1``
steps, so the longer runs below cross several rebuilds.  The same runs
are also advanced in chunks of random lengths, and must match the plain
step bit for bit at the end of every chunk.  Bit for bit holds until a
rebuild first flushes a nonzero component below the floor, which none of
these runs reach: the floor scales with the start spinor's smallest
nonzero component, and the explicit tiny-component spinors below pin
that.  ``tests/test_walk_flush.py`` covers the flush itself.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groverline.walk import _BLOCK, BoundarySpec, CoinSpinor, WindowWalk  # noqa: E402
from walk_oracle import (  # noqa: E402
    WalkState,
    apply_evolution,
    position_probability,
    project_is_at,
    reference_step,
    spinor_from_array,
)

TOL = 1e-12

component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
raw_spinor = st.tuples(*[st.tuples(component, component)] * 3)
boundary = st.none() | st.integers(min_value=1, max_value=5)
steps = st.integers(min_value=1, max_value=30)


def normalized(raw) -> CoinSpinor:
    v = np.array([complex(re, im) for re, im in raw])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([0, 0, 1], dtype=complex), 1.0
    return spinor_from_array(v / norm)


@settings(max_examples=60, deadline=None)
@given(raw_spinor, boundary, boundary, steps)
def test_kernel_matches_sparse_oracle(raw, left, right, n_steps):
    init = normalized(raw)
    bounds = BoundarySpec(left=left, right=right)
    engine = WindowWalk(init, bounds, n_steps)
    state = WalkState.initial(init)
    for _ in range(n_steps):
        engine.advance(1)
        state = apply_evolution(state)
        if left is not None:
            _, hit, state = project_is_at(state, -left)
            assert abs(engine.hit_left[-1]) ** 2 == pytest.approx(hit.norm2, abs=TOL)
        if right is not None:
            _, hit, state = project_is_at(state, right)
            assert abs(engine.hit_right[-1]) ** 2 == pytest.approx(hit.norm2, abs=TOL)
        for m in range(engine.lo, engine.hi + 1):
            want = state.amplitudes[m].norm2 if m in state.amplitudes else 0.0
            assert position_probability(engine, m) == pytest.approx(want, abs=TOL)
        absorbed = sum(abs(a) ** 2 for a in engine.hit_left + engine.hit_right)
        assert engine.norm2() + absorbed == pytest.approx(1.0, abs=TOL)


def assert_bit_identical_run(init: CoinSpinor, bounds: BoundarySpec, n_steps: int) -> None:
    """Every step equals ``reference_step``; a step past ``n_steps`` raises."""
    engine = WindowWalk(init, bounds, n_steps)
    amps = engine.amps.copy()
    for _ in range(n_steps):
        engine.advance(1)
        amps, hits = reference_step(amps, bounds)
        assert np.array_equal(engine.amps, amps)
        assert hits == engine.hit_left[-1:] + engine.hit_right[-1:]
    with pytest.raises(RuntimeError):
        engine.advance(1)
    assert engine.t == n_steps


def assert_chunks_bit_identical(init: CoinSpinor, bounds: BoundarySpec, n_steps: int, chunks) -> None:
    """Advancing by ``chunks`` in turn equals ``reference_step`` after every chunk."""
    engine = WindowWalk(init, bounds, n_steps)
    amps = engine.amps.copy()
    want_left, want_right = [], []
    for n in itertools.cycle(chunks):
        n = min(n, n_steps - engine.t)
        engine.advance(n)
        for _ in range(n):
            amps, hits = reference_step(amps, bounds)
            if bounds.left is not None:
                want_left.append(hits[0])
            if bounds.right is not None:
                want_right.append(hits[-1])
        assert np.array_equal(engine.amps, amps)
        assert engine.hit_left == want_left
        assert engine.hit_right == want_right
        if engine.t == n_steps:
            break


# chunk lengths, zero included, taken in turn until the run ends; not all zero
chunks = st.lists(st.integers(0, 2 * _BLOCK + 3), min_size=1, max_size=6).filter(any)
# the start beside both boundaries with all three components nonzero: the
# product never writes R beside the left sink or L beside the right one,
# so the start spinor lingers there unless buffer 0 is cleared
START = ((0.48, 0.0), (0.6, 0.0), (0.0, 0.64))


@settings(max_examples=60, deadline=None)
@given(raw_spinor, boundary, boundary, steps, chunks)
@example(START, 1, 1, 30, [30])
@example(START, 1, 1, 30, [1, 0, 2])
def test_chunked_advance_is_bit_identical_to_stepping(raw, left, right, n_steps, sizes):
    assert_chunks_bit_identical(normalized(raw), BoundarySpec(left=left, right=right), n_steps, sizes)


@settings(max_examples=60, deadline=None)
@given(raw_spinor, boundary, boundary, steps)
def test_kernel_is_bit_identical_to_full_window_step(raw, left, right, n_steps):
    assert_bit_identical_run(normalized(raw), BoundarySpec(left=left, right=right), n_steps)


# free and half-line sides, and strips narrower and wider than one block
wide_boundary = st.none() | st.integers(min_value=1, max_value=3 * _BLOCK)


@settings(max_examples=25, deadline=None)
@given(raw_spinor, wide_boundary, wide_boundary, st.integers(_BLOCK, 3 * _BLOCK + 2))
@example(START, None, None, 3 * _BLOCK + 2)
@example(START, 1, None, 3 * _BLOCK + 2)
@example(START, None, 3, 3 * _BLOCK + 2)
@example(START, 2, 4, 3 * _BLOCK + 2)
@example(START, _BLOCK + 5, 2 * _BLOCK, 3 * _BLOCK + 2)
@example(START, 1, 3 * _BLOCK, 3 * _BLOCK + 2)
def test_kernel_is_bit_identical_across_view_rebuilds(raw, left, right, n_steps):
    assert_bit_identical_run(normalized(raw), BoundarySpec(left=left, right=right), n_steps)


def test_one_column_first_step_bit_identical():
    # the cone at t = 0 is one complex column; a one-column complex product
    # would go through gemv, which rounds this spinor differently from gemm
    bounds = BoundarySpec()
    engine = WindowWalk(CoinSpinor(0.48, 0.6, 0.64j), bounds, 1)
    want, _ = reference_step(engine.amps.copy(), bounds)
    engine.advance(1)
    assert np.array_equal(engine.amps, want)


@settings(max_examples=25, deadline=None)
@given(raw_spinor, wide_boundary, wide_boundary, st.integers(_BLOCK, 3 * _BLOCK + 2), chunks)
@example(START, 1, 1, 3 * _BLOCK + 2, [3 * _BLOCK + 2])
@example(START, None, None, 3 * _BLOCK + 2, [_BLOCK - 1, 1, _BLOCK + 1])
@example(START, _BLOCK + 5, 2 * _BLOCK, 3 * _BLOCK + 2, [7])
def test_chunked_advance_is_bit_identical_across_view_rebuilds(raw, left, right, n_steps, sizes):
    assert_chunks_bit_identical(normalized(raw), BoundarySpec(left=left, right=right), n_steps, sizes)


# a component far below the others: 5e-324 and 1e-300j scale the floor to
# 0.0, so nothing is flushed; 1e-140 scales it to a subnormal 2.2e-321, so
# the flush stays armed but finds no column below it in these runs
TINY = [
    ((1.0, 0.0), (0.5, 0.0), (5e-324, 0.0)),
    ((1.0, 0.0), (0.0, 1e-300), (0.0, 0.0)),
    ((1.0, 0.0), (0.5, 0.0), (1e-140, 0.0)),
]


@pytest.mark.parametrize("raw", TINY)
@pytest.mark.parametrize("left, right", [(None, None), (1, None), (None, 3), (_BLOCK + 5, 2 * _BLOCK)])
def test_tiny_components_are_bit_identical(raw, left, right):
    bounds = BoundarySpec(left=left, right=right)
    assert_bit_identical_run(normalized(raw), bounds, 3 * _BLOCK + 2)
    assert_chunks_bit_identical(normalized(raw), bounds, 3 * _BLOCK + 2, [_BLOCK - 1, 1, _BLOCK + 1])
