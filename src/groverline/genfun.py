"""Closed-form generating functions on the closed unit disk.

The one-boundary functions involve Delta = sqrt(9 + 6z + 9z^2), whose two
branch points (-1 +- 2*sqrt(2) i)/3 sit exactly on the unit circle.  The
quadratic avoids the negative real axis everywhere inside the open disk
(on the only line where it is real, Re z = -1/3, it equals 8 - 9 Im(z)^2 > 0),
so inside the disk the principal square root IS the analytic branch with
Delta(0) = +3.  On the circle the same branch has the explicit arc form

    |theta| <  theta_bp:  Delta = exp(i theta/2) sqrt(6 (1 + 3 cos theta))
    |theta| >  theta_bp:  Delta = -exp(i (theta + sign(theta) pi)/2)
                                   sqrt(-6 (1 + 3 cos theta))

with theta in (-pi, pi] and theta_bp = arccos(-1/3); each arc formula is
continuous on its arc and agrees with the disk branch at z = 1 (sqrt 24)
and z = -1 (sqrt 12), which pins it down since Delta only vanishes at the
branch points.

The two-boundary functions are rational, built by iterating a Moebius
step in the inner strip's r.

Only what the absorption routes evaluate lives here.  The branch rebuilt
by continuity tracking, the transfer-matrix eigenvalue form, the
unit-circle identities and the printed +2z sign of the R form are test
oracles, in ``tests/genfun_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from .walk import validate_steps

__all__ = [
    "BranchPointError",
    "PoleError",
    "BRANCH_POINTS",
    "BRANCH_ANGLES",
    "delta",
    "delta_on_circle",
    "l_closed",
    "s_closed",
    "r_closed",
    "r_iterates",
    "lsr_from_previous",
]


class BranchPointError(ValueError):
    """Evaluation point indistinguishably close to a branch point of Delta."""


class PoleError(ArithmeticError):
    """A denominator on the evaluation path is numerically zero."""


#: roots of 9 + 6z + 9z^2, both on the unit circle
BRANCH_POINTS = (
    (-1 + 2j * np.sqrt(2)) / 3,
    (-1 - 2j * np.sqrt(2)) / 3,
)

#: their angles in [0, 2pi): arccos(-1/3) and 2pi - arccos(-1/3)
BRANCH_ANGLES = (np.arccos(-1.0 / 3.0), 2 * np.pi - np.arccos(-1.0 / 3.0))

_CIRCLE_TOL = 1e-9
_BP_TOL = 1e-12


def _quadratic(z):
    return 9 + 6 * z + 9 * z * z


def _as_complex_array(z):
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    return arr, arr.ndim == 0


def _maybe_scalar(arr, scalar: bool):
    if scalar:
        return complex(np.asarray(arr).reshape(())[()])
    return arr


def _check_branch_distance(z_arr):
    if not np.size(z_arr):
        return
    for bp in BRANCH_POINTS:
        d = np.min(np.abs(z_arr - bp))
        if d < _BP_TOL:
            raise BranchPointError(
                f"point within {d:.1e} of branch point {bp:.6f}; refusing to pick a sign"
            )


def _delta_arc(theta):
    """Arc formula for Delta(e^{i theta}) on the disk-analytic branch."""
    theta = np.asarray(theta, dtype=float)
    tp = np.mod(theta + np.pi, 2 * np.pi) - np.pi
    tp = np.where(tp == -np.pi, np.pi, tp)
    w = 6.0 * (1.0 + 3.0 * np.cos(tp))
    inner = np.abs(tp) < BRANCH_ANGLES[0]
    out = np.empty(tp.shape, dtype=complex)
    ti, to = tp[inner], tp[~inner]
    out[inner] = np.exp(0.5j * ti) * np.sqrt(np.maximum(w[inner], 0.0))
    out[~inner] = -np.exp(0.5j * (to + np.sign(to) * np.pi)) * np.sqrt(
        np.maximum(-w[~inner], 0.0)
    )
    return out


def delta_on_circle(theta):
    """Delta(e^{i theta}) on the branch analytic in the disk, vectorized.

    ``theta`` must be real and finite: an angle with a nonzero imaginary
    part raises ``ValueError`` rather than losing that part, and so does a
    NaN or infinite one.
    """
    theta_arr, scalar = _as_complex_array(theta)
    if np.any(theta_arr.imag != 0):
        raise ValueError("delta_on_circle needs real angles")
    th = np.atleast_1d(theta_arr.real.astype(float))
    _check_branch_distance(np.exp(1j * th))
    out = np.atleast_1d(_delta_arc(th))
    return _maybe_scalar(out.reshape(np.shape(theta_arr)), scalar)


def delta(z):
    """sqrt(9 + 6z + 9z^2) on the branch with Delta(0) = +3, |z| <= 1.

    On the circle this is the branch continuous along the circle from
    z = 1 (where Delta = +sqrt(24)) within each arc between the branch
    points.  A non-finite z raises ``ValueError``.
    """
    z_arr, scalar = _as_complex_array(z)
    zs = np.atleast_1d(z_arr)
    mags = np.abs(zs)
    if np.any(mags > 1 + _CIRCLE_TOL):
        raise ValueError("delta is only defined on the closed unit disk")
    _check_branch_distance(zs)
    on_circle = np.abs(mags - 1) <= _CIRCLE_TOL
    out = np.empty(zs.shape, dtype=complex)
    if np.any(~on_circle):
        out[~on_circle] = np.sqrt(_quadratic(zs[~on_circle]))
    if np.any(on_circle):
        out[on_circle] = _delta_arc(np.mod(np.angle(zs[on_circle]), 2 * np.pi))
    return _maybe_scalar(out.reshape(np.shape(z_arr)), scalar)


def _closed_eval(z, dl, numerator, k):
    """Evaluate numerator(z, delta) / (k z), filling z = 0 with 0.

    A non-finite z raises ``ValueError`` before any arithmetic, even when
    ``dl`` is given.

    z = 0 is a removable singularity of the three closed forms; the filled
    value is their series constant term, 0, since a first hit takes at
    least one step.
    """
    z_arr, scalar = _as_complex_array(z)
    flat = np.atleast_1d(z_arr)
    small = np.abs(flat) < 1e-15
    safe = np.where(small, 1.0, flat)
    d = np.atleast_1d(np.asarray(delta(z_arr) if dl is None else dl, dtype=complex))
    d = np.broadcast_to(d, flat.shape)
    out = numerator(safe, d) / (k * safe)
    out = np.where(small, 0.0, out)
    return _maybe_scalar(out.reshape(np.shape(z_arr)), scalar)


def l_closed(z, dl=None):
    """One-boundary generating function for initial coin L."""
    return _closed_eval(
        z, dl,
        lambda w, d: -3 - 4 * w - 3 * w * w + (1 + w) * d,
        2,
    )


def s_closed(z, dl=None):
    """One-boundary generating function for initial coin S."""
    return _closed_eval(
        z, dl,
        lambda w, d: -3 - w + d,
        2,
    )


def r_closed(z, dl=None):
    """One-boundary generating function for initial coin R.

    The linear term of the numerator is -2z.  With +2z the expansion gains
    a spurious constant term (first-hit amplitudes start at step 1, so the
    true constant coefficient is 0); the -2z form is the one consistent
    with the coefficient recursion, the simulator, and the identity
    r = (l + z)/(1 + z l).  The +2z variant is kept in the tests, whose
    regression test documents the deviation.
    """
    return _closed_eval(
        z, dl,
        lambda w, d: 3 - 2 * w + 3 * w * w + (w - 1) * d,
        4,
    )


_DEN_TOL = 1e-14


def lsr_from_previous(r_prev, z):
    """One widening step of the two-boundary recursion, vectorized over z.

    Given r for the strip with the right boundary one site nearer, returns
    (l, s, r) for the current strip.  All three share the denominator
    3 + z - (2z + 2z^2) r_prev; a numerically vanishing denominator (for
    example z = 1, where the step is a removable 0/0) raises
    :class:`PoleError` rather than returning garbage.
    """
    z = np.asarray(z, dtype=complex)
    r_prev = np.asarray(r_prev, dtype=complex)
    den = 3 + z - (2 * z + 2 * z * z) * r_prev
    if np.any(np.abs(den) < _DEN_TOL):
        raise PoleError("two-boundary recursion denominator vanished on the path")
    l = (-z + z * z) / den
    s = (2 * z - 2 * z * z * r_prev) / den
    r = (2 * z + 2 * z * z - (z * z + 3 * z ** 3) * r_prev) / den
    return l, s, r


def r_iterates(max_k: int, z) -> list:
    """[r(0,z), r(1,z), ..., r(max_k,z)] by the widening recursion."""
    validate_steps(max_k, 0, "max_k")
    z = np.asarray(z, dtype=complex)
    out = [np.zeros_like(z)]
    for _ in range(max_k):
        out.append(lsr_from_previous(out[-1], z)[2])
    return out
