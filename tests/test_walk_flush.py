"""The walk kernel's flush of components below the floor.

``WindowWalk`` multiplies only the live columns, from the first to the
last one holding a float component at or above the floor, and zeroes
everything outside them.  Its docstring bounds what that changes: in exact
arithmetic, the sum of the flushed norms, below
(T / _BLOCK + 1) * sqrt(6 (2T + 3)) * 2**-600 after T steps; in floating
point, a few units in the last place of an amplitude on top.  These tests
hold long runs to that bound against the plain full-window step of
``tests/walk_oracle.py``, check that no subnormal reaches the kernel, and
that a narrow strip still builds its views once.
"""

import numpy as np
import pytest

from groverline.walk import _BLOCK, BoundarySpec, CoinSpinor, WindowWalk
from walk_oracle import reference_step

COIN_R = CoinSpinor(0, 0, 1)
COMPLEX = CoinSpinor(0.48, 0.6, 0.64j)


def flush_bound(steps: int) -> float:
    """The docstring's exact-arithmetic bound on the flush's change after ``steps`` steps."""
    return (steps / _BLOCK + 1) * np.sqrt(6 * (2 * steps + 3)) * 2.0 ** -600


def within(got, want, steps: int) -> bool:
    """|got - want| below the flush bound plus 16 units in the last place of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(np.abs(got - want) <= flush_bound(steps) + 2.0 ** -48 * np.abs(want)))


@pytest.mark.parametrize("init", [COIN_R, COMPLEX], ids=["R", "complex"])
@pytest.mark.parametrize("left, steps", [(None, 2000), (1, 3000), (1000, 3000)],
                         ids=["free", "half-line", "far-wall"])
def test_flush_stays_within_its_bound_of_the_unflushed_walk(init, left, steps):
    bounds = BoundarySpec(left=left)
    engine = WindowWalk(init, bounds, steps)
    amps = engine.amps.copy()
    want_hits = []
    flushed = False
    for _ in range(steps):
        engine.advance(1)
        amps, hits = reference_step(amps, bounds)
        want_hits += hits
        assert within(engine.amps.view(float), amps.view(float), steps)
        flushed = flushed or not np.array_equal(engine.amps, amps)
    assert flushed  # the run reaches the floor, so the bound is exercised
    got_hits = np.array(engine.hit_left, dtype=complex)
    want_hits = np.array(want_hits, dtype=complex)
    assert within(got_hits.view(float), want_hits.view(float), steps)
    assert within(np.abs(got_hits) ** 2, np.abs(want_hits) ** 2, steps)
    assert within(engine.norm2(), np.sum(np.abs(amps) ** 2), steps)
    near = slice(max(0, engine.index(-10)), engine.index(10) + 1)
    assert within(engine.mass_within(10), np.sum(np.abs(amps[:, near]) ** 2), steps)
    if left == 1000:
        # the first hits come from the trimmed tail: zero here, tiny there
        assert np.any((got_hits == 0) & (want_hits != 0))


@pytest.mark.parametrize("init", [COIN_R, COMPLEX], ids=["R", "complex"])
@pytest.mark.parametrize("left", [None, 1], ids=["free", "half-line"])
def test_no_subnormal_reaches_the_kernel(init, left):
    steps = 3000
    engine = WindowWalk(init, BoundarySpec(left=left), steps)
    tiny = np.finfo(float).tiny
    while engine.t < steps:
        engine.advance(min(_BLOCK, steps - engine.t))
        x = np.abs(engine.amps.view(float))
        assert not np.any((x > 0) & (x < tiny)), engine.t
    start, stop = engine._span
    cone = engine.cone()
    assert stop - start < cone.stop - cone.start


@pytest.mark.parametrize("init, floor", [
    (COIN_R, 2.0 ** -600),
    (COMPLEX, 0.48 * 2.0 ** -600),
    (CoinSpinor(0.6, 1e-140, 0.8j), 1e-140 * 2.0 ** -600),
    (CoinSpinor(0.6, 5e-324, 0.8j), 0.0),  # underflows: nothing is flushed
])
def test_floor_scales_with_the_smallest_nonzero_component(init, floor):
    assert WindowWalk(init, BoundarySpec(), 1)._floor == floor


def test_narrow_strip_builds_its_views_once(monkeypatch):
    # the views of t = 0 serve the first step alone; those of t = 1 cover
    # the interior and serve to the end, with no scan
    calls = []
    refresh = WindowWalk._refresh

    def counted(self, t):
        calls.append(t)
        refresh(self, t)

    monkeypatch.setattr(WindowWalk, "_refresh", counted)
    engine = WindowWalk(COMPLEX, BoundarySpec(left=1, right=8), 500)
    engine.advance(500)
    assert calls == [0, 1]
