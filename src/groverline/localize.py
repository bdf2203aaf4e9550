"""Localization diagnostics for the free and one-boundary walks.

The walk traps a constant fraction of the mass near its start: site
probabilities oscillate around nonzero means instead of decaying, the
time-averaged profile has twin peaks at the start's two neighbors with
geometric tails, and a single absorbing boundary can leave a large
never-absorbed remainder parked next to it.  These helpers extract the
corresponding observables from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walk import BoundarySpec, CoinSpinor, evolve, spinor_mass_history, validate_steps

__all__ = [
    "OscillationTrace",
    "oscillation_trace",
    "two_peak_profile",
    "stationary_profile",
    "residual_near_origin",
    "decay_slope",
    "tail_decay_fit",
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
    hist = spinor_mass_history(init, BoundarySpec(), steps, positions=(-1, 0))
    return OscillationTrace(
        steps=np.arange(1, steps + 1),
        p_minus1=hist[:, 0],
        p_zero=hist[:, 1],
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
    walk = evolve(init, BoundarySpec(), steps)
    engine = next(walk)
    t_lo = steps // 2
    acc = np.zeros(engine.width)
    count = 0
    for engine in walk:
        if engine.t >= t_lo:
            cone = engine.cone()
            acc[cone] += np.sum(np.abs(engine.amps[:, cone]) ** 2, axis=0)
            count += 1
    acc /= count
    return {
        engine.lo + i: float(p) for i, p in enumerate(acc) if p > 0.0
    }


def stationary_profile(span: int = 8, n_modes: int = 256) -> dict[int, float]:
    """Exact infinite-time average of P(t, m) for the free |0,R> walk.

    In momentum space the step operator diag(e^{ik}, 1, e^{-ik}) G has a
    flat band at eigenvalue 1 with eigenvector proportional to
    (1/(1+e^{-ik}), 1/2, 1/(1+e^{ik})); the dispersive bands' bounded
    phases time-average to zero at any fixed position, so the limit
    profile is the squared position amplitudes of the flat-band
    projection of the start state.  This is the quantity the finite-time
    average of :func:`two_peak_profile` converges to; at T = 500 that
    average still carries an O(log T / T) ~ 6e-4 ballistic floor which
    masks the geometric tail beyond |m| ~ 2, so tail studies should use
    this function.

    Returns {m: probability} for |m| <= span.  The tail falls by a factor
    ~0.0102 per site, hitting the double-precision floor around |m| = 8.
    Sample identities: P(-1) = P(0) = 0.202041, the profile is symmetric
    about -1/2, and the total trapped mass is 1/sqrt(6).
    """
    validate_steps(span, 1, "span")
    validate_steps(n_modes, 4 * span, "n_modes")
    # midpoint grid: avoids k = pi, where the unnormalized eigenvector
    # formula degenerates
    k = 2 * np.pi * (np.arange(n_modes) + 0.5) / n_modes
    v = np.vstack(
        [
            1.0 / (1.0 + np.exp(-1j * k)),
            0.5 * np.ones(n_modes),
            1.0 / (1.0 + np.exp(1j * k)),
        ]
    )
    v /= np.linalg.norm(v, axis=0)
    proj = v * np.conj(v[2])
    ms = np.arange(-span, span + 1)
    phases = np.exp(1j * np.outer(ms, k))
    phi = phases @ proj.T / n_modes
    probs = np.sum(np.abs(phi) ** 2, axis=1)
    return {int(m): float(p) for m, p in zip(ms, probs)}


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
    for engine in evolve(init, BoundarySpec(left=left_boundary), steps):
        pass
    return engine.mass_within(window)


def decay_slope(rows) -> float:
    """Least-squares slope of log2(scaled deficit) against strip width.

    ``rows`` is the table produced by :func:`groverline.absorb.table1`;
    rows without a deficit entry (the widest strip) are skipped.  The
    deficit shrinks geometrically, so the points are nearly affine and
    the slope estimates the per-site decay exponent.
    """
    pts = [(row.n, row.log2_deficit) for row in rows if row.log2_deficit is not None]
    if len(pts) < 3:
        raise ValueError("need at least three rows with a deficit entry")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    return float(np.polyfit(xs, ys, 1)[0])


def tail_decay_fit(
    profile: dict[int, float], positions
) -> tuple[float, float]:
    """Affine fit of log2 probability along one tail of a profile.

    Returns (slope per site, max absolute deviation from the fit).  Only
    positions carrying more than 1e-12 of mass participate; fewer than
    three such points is an error.
    """
    pts = [(m, profile[m]) for m in positions if profile.get(m, 0.0) > 1e-12]
    if len(pts) < 3:
        raise ValueError("need at least three usable tail positions")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log2([p[1] for p in pts])
    coeffs = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coeffs, xs)
    return float(coeffs[0]), float(np.max(np.abs(resid)))
