"""Localization diagnostics for the free and one-boundary walks.

The walk traps a constant fraction of the mass near its start: site
probabilities oscillate around nonzero means instead of decaying, the
time-averaged profile has twin peaks at the start's two neighbors with
geometric tails, and a single absorbing boundary can leave a large
never-absorbed remainder parked next to it.  These helpers read them off
the walk engine, :class:`~groverline.walk.WindowWalk`: a trace of every
step by ``advance(1)`` in its own loop, anything else by advancing the
engine straight to the times it reads.  The infinite-time profile, the
start state's flat-band projection, is in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import BoundarySpec, CoinSpinor, WindowWalk, validate_steps

__all__ = [
    "OscillationTrace",
    "oscillation_trace",
    "two_peak_profile",
    "stationary_profile",
    "residual_near_origin",
]


@dataclass(frozen=True)
class OscillationTrace:
    """Per-step probabilities at the start's two persistent sites."""

    steps: np.ndarray
    p_minus1: np.ndarray
    p_zero: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.p_minus1 + self.p_zero


def oscillation_trace(
    steps: int, init: CoinSpinor | None = None
) -> OscillationTrace:
    """Track P(-1, t) and P(0, t) for the free walk, t = 1..steps.

    Both stay bounded away from zero forever; their time averages settle
    near 0.2027 each (about 0.4053 combined) for the rightward start.
    """
    validate_steps(steps, 1)
    init = init or CoinSpinor(0, 0, 1)
    engine = WindowWalk(init, BoundarySpec(), steps)
    i = engine.index(-1)
    amps = np.empty((steps, 3, 2), dtype=complex)
    for t in range(steps):
        engine.advance(1)
        amps[t] = engine.amps[:, i:i + 2]
    probs = np.sum(np.abs(amps) ** 2, axis=1)
    return OscillationTrace(
        steps=np.arange(1, steps + 1),
        p_minus1=probs[:, 0],
        p_zero=probs[:, 1],
    )


def two_peak_profile(
    steps: int = 500, init: CoinSpinor | None = None
) -> dict[int, float]:
    """Time-averaged position distribution over the second half of a free run.

    Averaging over t in [steps//2, steps] washes out the oscillations and
    leaves the stationary picture: twin peaks at -1 and 0, plus the
    transport component spread thinly over the light cone.  That ballistic
    remnant floors the averaged tail at O(log steps / steps); use
    :func:`stationary_profile` when the geometric tail itself is the
    object of study.  Returns {position: mean probability} restricted to
    positions that ever carry mass.
    """
    validate_steps(steps, 2)
    init = init or CoinSpinor(0, 0, 1)
    engine = WindowWalk(init, BoundarySpec(), steps)
    # squares of the float view (re, im interleaved), paired once at the end:
    # no complex abs, which goes through hypot and allocates twice per step
    acc = np.zeros(2 * engine.width)
    times = range(steps // 2, steps + 1)
    for t in times:
        engine.advance(t - engine.t)
        cone = engine.cone()
        f = engine.amps[:, cone].view(float)
        acc[2 * cone.start:2 * cone.stop] += np.einsum("ij,ij->j", f, f)
    acc = (acc[0::2] + acc[1::2]) / len(times)
    return {
        engine.lo + i: float(p) for i, p in enumerate(acc) if p > 0.0
    }


def stationary_profile(span: int = 8) -> dict[int, float]:
    """Exact infinite-time average of P(t, m) for the free |0,R> walk.

    The dispersive bands time-average to zero at any fixed position, so
    the limit is the start state's projection onto the eigenvalue-1 flat
    band, spanned by the states v_x with (1, 1/2, 0) on site x and
    (0, 1/2, 1) on site x + 1 (site-major (L, S, R) order).  Their Gram
    matrix tridiag(1/4, 5/2, 1/4) has the inverse (-q)^|x - y| / sqrt(6),
    q = 5 - 2 sqrt(6), and <v_x|0,R> is 1 at x = -1, else 0; so the
    projection is sum_x c_x v_x with c_x = (-q)^|x + 1| / sqrt(6), site m
    carries (c_m, (c_m + c_{m-1}) / 2, c_{m-1}), and reducing with
    q^2 - 10 q + 1 = 0 gives P(m) = 2 q^|2m + 1|.

    This is what the finite-time average of :func:`two_peak_profile`
    converges to; at T = 500 that average still carries an
    O(log T / T) ~ 6e-4 ballistic floor which masks the geometric tail
    beyond |m| ~ 2, so tail studies should use this function.

    Returns {m: probability} for |m| <= span: peaks P(-1) = P(0) = 2q =
    0.202041, exact symmetry about -1/2, tails falling by q^2 = 0.0102 per
    site to the double-precision floor near |m| = 8, and total trapped
    mass 4q / (1 - q^2) = 1/sqrt(6).  A float q would carry its rounding
    k-fold into q^k, so 2 q^k is taken as 2 / (t + sqrt(t^2 - 1)) with the
    integer t = T_k(5) = ((5 + 2 sqrt(6))^k + q^k) / 2, divided through by
    t so that a t too large for a float gives 0, not OverflowError.
    From the first such 0 on (|m| >= 163) the rest is filled with 0.0,
    so the integers stop growing there and the cost is linear in ``span``.
    """
    validate_steps(span, 1, "span")
    half = []
    t, t_prev = 5, 5  # T_k(5) and T_{k-2}(5) at odd k = 2j + 1; T_{-1} = T_1
    while len(half) <= span:
        half.append((2 / t) / (1 + math.sqrt(1 - (1 / t) ** 2)))
        if half[-1] == 0.0:
            half += [0.0] * (span + 1 - len(half))
        t, t_prev = 98 * t - t_prev, t
    return {m: half[m if m >= 0 else -1 - m] for m in range(-span, span + 1)}


def residual_near_origin(
    left_boundary: int,
    steps: int = 2000,
    window: int = 10,
    init: CoinSpinor | None = None,
) -> float:
    """Unabsorbed mass within ``window`` sites of the start, after a long run.

    With the boundary adjacent to a rightward start everything eventually
    drains into it.  One site further out the drain misses the localized
    component and ~0.404 of the mass stays parked near the start forever.
    """
    validate_steps(left_boundary, 1, "left_boundary")
    validate_steps(window, 0, "window")
    init = init or CoinSpinor(0, 0, 1)
    engine = WindowWalk(init, BoundarySpec(left=left_boundary), steps)
    engine.advance(steps)
    return engine.mass_within(window)
