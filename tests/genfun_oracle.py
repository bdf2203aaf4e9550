"""Closed-form identities and transfer-matrix forms, for tests only.

None of these is on a production route; each is an independent form the
tests hold the production closed forms and iterates against:

* :class:`BranchTrace` rebuilds the disk-analytic branch of
  Delta = sqrt(9 + 6z + 9z^2) on the unit circle by continuity tracking
  along a theta grid, re-anchoring against the disk-interior value after
  each branch point (continuity alone cannot pick the sign across a zero
  of Delta: the limits on the two sides differ by a factor of -i, making
  the two candidates equidistant).  It carries its own copy of the
  quadratic, so it shares no arithmetic with ``genfun.delta_on_circle``.
* :func:`two_boundary_eval`, :func:`lambda_pm` and
  :func:`r_closed_two_boundary` are the two-boundary functions at a point
  and their transfer-matrix eigenvalue form.
* :func:`check_prop8`, :func:`check_prop10` and :func:`check_contraction`
  are the unit-circle reflection identity, the value at ``OMEGA`` and the
  contraction of the widening step, as residuals.
* :func:`r_closed_uncorrected` is the printed +2z sign of the R closed
  form, whose regression test documents the correction.
"""

from dataclasses import dataclass

import numpy as np

from groverline.genfun import (
    _DEN_TOL,
    BRANCH_ANGLES,
    PoleError,
    _as_complex_array,
    _check_branch_distance,
    _maybe_scalar,
    delta,
    lsr_from_previous,
    r_iterates,
)

#: the root of 3z^2 - 2z + 3 in the upper half plane, on the unit circle
OMEGA = (1 + 2j * np.sqrt(2)) / 3


def _quadratic(z):
    return 9 + 6 * z + 9 * z * z


@dataclass(frozen=True)
class BranchTrace:
    """Continuity-tracked samples of Delta along the unit circle.

    The grid is split at the two branch angles.  Within a segment each
    sample's sign is chosen so the value stays close to its predecessor
    (|next - prev| <= |next + prev|); the first sample of each segment is
    instead anchored to the principal square root evaluated just inside
    the circle at radius 1 - 1e-6, the independent tie-breaker that
    continuity cannot supply across a zero.
    """

    theta_grid: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, n: int = 4096) -> "BranchTrace":
        if n < 8:
            raise ValueError("grid too coarse to track the branch")
        base = 2 * np.pi * np.arange(n) / n
        keep = np.ones(n, dtype=bool)
        for ang in BRANCH_ANGLES:
            keep &= np.abs(base - ang) > 1e-9
        thetas = base[keep]
        seg = np.searchsorted(BRANCH_ANGLES, thetas)  # 0, 1, 2 per arc
        values = np.empty(thetas.shape, dtype=complex)
        prev_val = None
        prev_seg = -1
        for k, (th, sg) in enumerate(zip(thetas, seg)):
            cand = np.sqrt(_quadratic(np.exp(1j * th)))
            if sg != prev_seg:
                ref = np.sqrt(_quadratic((1 - 1e-6) * np.exp(1j * th)))
            else:
                ref = prev_val
            if abs(cand - ref) > abs(cand + ref):
                cand = -cand
            values[k] = cand
            prev_val = cand
            prev_seg = sg
        trace = cls(theta_grid=thetas, values=values)
        if abs(trace.values[0] - np.sqrt(24)) >= 1e-9:
            raise RuntimeError("branch tracking lost the +sqrt(24) anchor at theta = 0")
        return trace

    def resolve(self, theta: float) -> complex:
        """Branch-consistent Delta at e^{i theta} via the nearest tracked sample."""
        th = float(np.mod(theta, 2 * np.pi))
        z = np.exp(1j * th)
        _check_branch_distance(np.array([z]))
        seg = int(np.searchsorted(BRANCH_ANGLES, th))
        same = np.searchsorted(BRANCH_ANGLES, self.theta_grid) == seg
        if not np.any(same):
            raise ValueError("trace has no samples on this arc")
        idx = np.argmin(np.abs(self.theta_grid[same] - th))
        neighbor = self.values[same][idx]
        cand = np.sqrt(_quadratic(z))
        return complex(cand if abs(cand - neighbor) <= abs(cand + neighbor) else -cand)


def r_closed_uncorrected(z, dl=None):
    """The printed +2z sign of ``genfun.r_closed``; wrong, kept for regression.

    (3 + 2z + 3z^2 + (z - 1) Delta) / (4z), with z = 0 filled by its limit
    1, not the 0 of a first-hit function: exactly the defect the regression
    test pins down.  The numerator exceeds the corrected -2z one by 4z over
    the denominator 4z, so this is ``r_closed`` + 1, but it is written out
    on its own so the printed form is evaluated as printed.
    """
    z_arr, scalar = _as_complex_array(z)
    flat = np.atleast_1d(z_arr)
    small = np.abs(flat) < 1e-15
    w = np.where(small, 1.0, flat)
    d = np.atleast_1d(np.asarray(delta(z_arr) if dl is None else dl, dtype=complex))
    d = np.broadcast_to(d, flat.shape)
    out = (3 + 2 * w + 3 * w * w + (w - 1) * d) / (4 * w)
    out = np.where(small, 1.0, out)
    return _maybe_scalar(out.reshape(np.shape(z_arr)), scalar)


def two_boundary_eval(n: int, z):
    """(l, s, r) of the strip with right boundary n sites away, at z."""
    z_arr, scalar = _as_complex_array(z)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        zero = np.zeros_like(z_arr)
        return tuple(_maybe_scalar(np.atleast_1d(zero), scalar) for _ in range(3))
    r_prev = r_iterates(n - 1, z_arr)[-1]
    l, s, r = lsr_from_previous(r_prev, z_arr)
    return tuple(
        _maybe_scalar(np.atleast_1d(v).reshape(np.shape(z_arr)), scalar)
        for v in (l, s, r)
    )


def lambda_pm(z):
    """Eigenvalues of the widening-step transfer matrix, larger first at z=0.

    Their product is z^2 (1-z)^2 and their sum (3+z) - (z^2+3z^3); every
    consumer is symmetric under swapping the two, so the square-root
    branch is immaterial.
    """
    z = np.asarray(z, dtype=complex)
    disc = (3 + z + z * z + 3 * z ** 3) ** 2 - 4 * (2 * z + 2 * z * z) ** 2
    sq = np.sqrt(disc)
    tr = (3 + z) - (z * z + 3 * z ** 3)
    return (tr + sq) / 2, (tr - sq) / 2


def r_closed_two_boundary(n: int, z):
    """r for the width-n strip from eigenvalue powers.

    ``genfun.r_iterates`` is preferred on the routes since lambda_+^n
    grows; this form cross-checks it for moderate n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    z_arr, scalar = _as_complex_array(z)
    lp, lm = lambda_pm(z_arr)
    rn = lp ** n - lm ** n
    rn1 = lp ** (n + 1) - lm ** (n + 1)
    den = rn1 + z_arr * z_arr * (1 + 3 * z_arr) * rn
    if np.any(np.abs(den) < _DEN_TOL):
        raise PoleError("eigenvalue-form denominator vanished")
    out = 2 * z_arr * (z_arr + 1) * rn / den
    return _maybe_scalar(np.atleast_1d(out).reshape(np.shape(z_arr)), scalar)


def check_prop8(n: int, z):
    """Residual of the unit-circle reflection identity for r_n.

    For z on the circle, (1/z) r_n(z) r_n(1/z) should equal
    (2 / (3z^2 - 2z + 3)) (r_n(z) + r_n(1/z)); returns |lhs - rhs|.
    """
    z_arr, scalar = _as_complex_array(z)
    rn_z = r_iterates(n, z_arr)[-1]
    rn_zi = r_iterates(n, 1 / z_arr)[-1]
    lhs = rn_z * rn_zi / z_arr
    rhs = 2 / (3 * z_arr * z_arr - 2 * z_arr + 3) * (rn_z + rn_zi)
    out = np.abs(lhs - rhs)
    return float(out) if scalar else out


def check_prop10(n: int) -> tuple[float, float]:
    """(Re r_n(omega), real value of -(i/sqrt 2) r_n(omega)).

    r_n at omega is purely imaginary, and -(i/sqrt 2) r_n(omega) is the
    absorption probability p_n of the strip with the left boundary
    adjacent to the start; the first element should vanish and the second
    should match the scalar recurrence for p_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rn = complex(r_iterates(n, np.asarray(OMEGA))[-1])
    pn = (-1j / np.sqrt(2)) * rn
    return float(rn.real), float(pn.real)


def check_contraction(w, z):
    """|f(w, z)| for the widening-step Moebius map on the open bidisk.

    f(w, z) = (2z(z+1) - z^2(1+3z) w) / ((z+3) - 2z(z+1) w) maps the
    bidisk strictly inside the unit disk, which is what makes the
    two-boundary iteration converge; values must stay below 1.
    """
    w_arr = np.asarray(w, dtype=complex)
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(w_arr) >= 1) or np.any(np.abs(z_arr) >= 1):
        raise ValueError("contraction check expects |w| < 1 and |z| < 1")
    num = 2 * z_arr * (z_arr + 1) - z_arr * z_arr * (1 + 3 * z_arr) * w_arr
    den = (z_arr + 3) - 2 * z_arr * (z_arr + 1) * w_arr
    out = np.abs(num / den)
    return float(out) if out.ndim == 0 else out
